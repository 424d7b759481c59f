// Bit-level encodings of the EdgeMM AI-extension instructions (Fig. 7).
//
// The paper extends RISC-V with four formats riding on the custom
// opcode space:
//
//   M-M    matrix–matrix      (CC-core; matrix registers md/ms1/ms2)
//   M-V    matrix–vector      (MC-core; vd/vs1 vector regs, rs1 holds the
//                              base address of the matrix operand)
//   V-V    vector–vector      (all cores; activation / precision ops)
//   Config CSR configuration  (runtime shape & pruning parameters)
//
// Field boundaries follow Fig. 7 as closely as its published positions
// allow; where the figure is ambiguous the standard RISC-V field homes
// (opcode [6:0], func3 [14:12], rd/vd [11:7], rs1 [19:15], rs2/vs1
// [24:20]) are used so the extension coexists with the base ISA decoder.
#ifndef EDGEMM_ISA_ENCODING_HPP
#define EDGEMM_ISA_ENCODING_HPP

#include <cstdint>

namespace edgemm::isa {

/// The four extension formats of Fig. 7.
enum class Format : std::uint8_t { kMatrixMatrix, kMatrixVector, kVectorVector, kConfig };

/// RISC-V custom major opcodes hosting the extension.
inline constexpr std::uint32_t kOpcodeMatrixMatrix = 0x0B;  // custom-0
inline constexpr std::uint32_t kOpcodeMatrixVector = 0x2B;  // custom-1
inline constexpr std::uint32_t kOpcodeVectorVector = 0x5B;  // custom-2
inline constexpr std::uint32_t kOpcodeConfig = 0x7B;        // custom-3

/// Decoded field view of one 32-bit extension instruction.
/// Unused fields for a given format are zero.
struct Fields {
  Format format = Format::kMatrixMatrix;
  std::uint8_t size = 0;   ///< element-size selector (M-M / Config), 3 bits
  std::uint8_t func3 = 0;  ///< minor opcode, 3 bits
  std::uint8_t md = 0;     ///< destination matrix register, 3 bits
  std::uint8_t ms1 = 0;    ///< source matrix register 1, 3 bits
  std::uint8_t ms2 = 0;    ///< source matrix register 2, 3 bits
  std::uint8_t vd = 0;     ///< destination vector register, 5 bits
  std::uint8_t vs1 = 0;    ///< source vector register 1, 5 bits
  std::uint8_t vs2 = 0;    ///< source vector register 2, 5 bits
  std::uint8_t rs1 = 0;    ///< scalar register (matrix base address), 5 bits
  std::uint8_t csr = 0;    ///< CSR selector (Config format), 5 bits
  std::uint8_t uop = 0;    ///< micro-op selector, 2 bits
  std::uint8_t func = 0;   ///< major function, 5 bits
};

/// Packs fields into a 32-bit word. Field-range violations throw
/// std::invalid_argument (they indicate an assembler bug upstream).
std::uint32_t encode(const Fields& fields);

/// Unpacks a 32-bit word. Returns false if the major opcode does not
/// belong to the extension space.
bool decode(std::uint32_t word, Fields& out);

/// True if `word` carries one of the four extension opcodes.
bool is_extension_word(std::uint32_t word);

}  // namespace edgemm::isa

#endif  // EDGEMM_ISA_ENCODING_HPP
