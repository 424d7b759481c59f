// Functional model of one EdgeMM core: RISC-V host + AI coprocessor.
//
// "The extended instructions are decoded by host core and dispatched to
// coprocessor via direct-linked interface" (§III-B). This model executes
// the extension instructions of Fig. 7 against the coprocessor models,
// with real arithmetic, and charges the documented cycle costs. Scalar
// control flow (loops, address arithmetic) is the host program's job —
// tests and kernels drive this class from C++, mirroring the paper's
// "customized kernel functions" programming model (§III-C).
#ifndef EDGEMM_CORE_HOST_CORE_HPP
#define EDGEMM_CORE_HOST_CORE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/tensor.hpp"
#include "common/types.hpp"
#include "coproc/cim_macro.hpp"
#include "coproc/matrix_regfile.hpp"
#include "coproc/pruner.hpp"
#include "coproc/systolic_array.hpp"
#include "coproc/vector_unit.hpp"
#include "core/config.hpp"
#include "isa/csr.hpp"

namespace edgemm::core {

/// Raised when a core executes an instruction its coprocessor lacks
/// (e.g. mm.mul on a memory-centric core).
class IllegalInstruction : public std::runtime_error {
 public:
  explicit IllegalInstruction(const std::string& what);
};

/// One core with its coprocessor state.
class HostCore {
 public:
  /// Builds a CC-core (systolic array + matrix registers) or an MC-core
  /// (CIM macro + pruner) per `kind`. Identity values seed the read-only
  /// CSRs of the programming model.
  HostCore(const ChipConfig& config, CoreKind kind, CoreId core_id,
           ClusterId cluster_id, std::uint32_t group_id, std::uint32_t core_pos);

  CoreKind kind() const { return kind_; }

  // --- Scalar register file ---------------------------------------------
  void set_xreg(std::size_t index, std::uint32_t value);
  std::uint32_t xreg(std::size_t index) const;

  // --- Vector register file ----------------------------------------------
  static constexpr std::size_t kNumVRegs = 32;
  static constexpr std::size_t kMaxVlen = 8192;

  void set_vreg(std::size_t index, std::vector<float> value);
  const std::vector<float>& vreg(std::size_t index) const;

  // --- Bindings (stand-ins for cluster memory) ----------------------------
  /// Binds LSU address slot aN to a host tile for mm.ld / mm.st.
  void bind_lsu_slot(std::size_t slot, Tensor* tile);

  /// Binds a weight matrix at a virtual address for mv.ldw / mv.mul.
  void bind_matrix(std::uint32_t address, const Tensor* matrix);

  // --- Execution ----------------------------------------------------------
  /// Decodes and executes one extension word; returns the cycles charged.
  /// Throws IllegalInstruction for wrong-core or unknown encodings and
  /// std::invalid_argument for operand violations.
  Cycle execute(std::uint32_t word);

  /// Executes a whole program; returns total cycles.
  Cycle run(std::span<const std::uint32_t> words);

  // --- Introspection ------------------------------------------------------
  isa::CsrFile& csrs() { return csrs_; }
  const isa::CsrFile& csrs() const { return csrs_; }
  coproc::MatrixRegFile& matrix_regs();
  coproc::SystolicArray& systolic();
  coproc::CimMacro& cim();
  coproc::VectorUnit& vector_unit() { return vu_; }
  const std::optional<coproc::PruneOutcome>& last_prune() const { return last_prune_; }

 private:
  struct BoundMatrix {
    const Tensor* tensor = nullptr;
    // Set once mv.ldw quantizes and writes the tensor into the macro.
    std::size_t first_entry = 0;
    std::size_t entry_count = 0;
    float weight_scale = 1.0F;
    bool loaded = false;
  };

  Cycle exec_matrix(const struct DecodedView& d);
  Cycle exec_matrix_vector(const struct DecodedView& d);
  Cycle exec_vector(const struct DecodedView& d);
  Cycle exec_config(const struct DecodedView& d);

  /// Held by value: HostCores are built from throwaway configs all over
  /// the tests (and ChipConfig is a small flat struct), so a reference
  /// member would dangle the moment a caller passes a temporary.
  ChipConfig config_;
  CoreKind kind_;
  isa::CsrFile csrs_;

  std::array<std::uint32_t, 32> xregs_{};
  std::array<std::vector<float>, kNumVRegs> vregs_{};

  // CC-side state.
  std::optional<coproc::MatrixRegFile> mregs_;
  std::optional<coproc::SystolicArray> sa_;
  std::array<Tensor*, 8> lsu_slots_{};

  // MC-side state.
  std::optional<coproc::CimMacro> cim_;
  coproc::ActAwarePruner pruner_;
  std::map<std::uint32_t, BoundMatrix> bound_matrices_;
  std::size_t next_free_entry_ = 0;
  std::optional<coproc::PruneOutcome> last_prune_;

  coproc::VectorUnit vu_;
};

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_HOST_CORE_HPP
