// Energy accounting for the tokens/J figures of Table II.
//
// Chip power is the published post-P&R constant (112 mW at 1 GHz);
// external-memory energy is charged per byte moved. The paper quotes
// both 0.217 token/J (abstract) and 0.28 token/J (§V-C) — mutually
// inconsistent and inconsistent with 138 tokens/s at sub-watt power, so
// docs/PAPER_MAP.md records our derivation next to both published values.
#ifndef EDGEMM_BASELINES_ENERGY_MODEL_HPP
#define EDGEMM_BASELINES_ENERGY_MODEL_HPP

#include "common/types.hpp"
#include "core/config.hpp"

namespace edgemm::baselines {

/// Energy of one EdgeMM execution window.
struct EnergyReport {
  double chip_joules = 0.0;  ///< chip_power × wall-clock
  double dram_joules = 0.0;  ///< per-byte LPDDR access energy
  double total_joules() const { return chip_joules + dram_joules; }
};

/// Charges `seconds` of chip activity plus `dram_bytes` of traffic.
EnergyReport edgemm_energy(const core::ChipConfig& config, double seconds,
                           Bytes dram_bytes);

/// tokens / J given a throughput and an energy rate.
double tokens_per_joule(double tokens, const EnergyReport& energy);

/// GPU-side energy for the same comparison: board power × time.
double gpu_energy_joules(double board_power_w, double seconds);

/// Per-block energy composition of a run — where the joules go.
///
/// Per-operation energies are 22 nm-class constants: a BF16 systolic MAC
/// costs several times an in-memory INT8 MAC (the CIM macro avoids the
/// register/SRAM movement entirely, which is its raison d'être), and a
/// DRAM byte costs two orders of magnitude more than either.
struct EnergyBreakdown {
  double sa_joules = 0.0;      ///< systolic-array MACs (BF16)
  double cim_joules = 0.0;     ///< CIM MACs (INT8, bit-serial)
  double dram_joules = 0.0;    ///< external memory traffic
  double static_joules = 0.0;  ///< leakage + clock tree over the window
  double total_joules() const {
    return sa_joules + cim_joules + dram_joules + static_joules;
  }
};

/// Energy constants used by energy_breakdown (exposed for tests/docs).
inline constexpr double kSaPjPerMac = 0.9;    ///< BF16 MAC + operand movement
inline constexpr double kCimPjPerMac = 0.15;  ///< in-SRAM INT8 MAC
inline constexpr double kStaticShare = 0.25;  ///< fraction of chip power that is static

/// Charges `sa_macs` systolic MACs, `cim_macs` in-memory MACs,
/// `dram_bytes` of traffic, and `seconds` of static power.
EnergyBreakdown energy_breakdown(const core::ChipConfig& config, double sa_macs,
                                 double cim_macs, Bytes dram_bytes, double seconds);

}  // namespace edgemm::baselines

#endif  // EDGEMM_BASELINES_ENERGY_MODEL_HPP
