// Unit helpers: cycle/time/bandwidth conversions at the chip clock.
#ifndef EDGEMM_COMMON_UNITS_HPP
#define EDGEMM_COMMON_UNITS_HPP

#include "common/types.hpp"

namespace edgemm {

inline constexpr double kChipClockHz = 1.0e9;  ///< EdgeMM runs at 1 GHz (paper §V-A).

constexpr double cycles_to_seconds(Cycle cycles, double clock_hz = kChipClockHz) {
  return static_cast<double>(cycles) / clock_hz;
}

constexpr double cycles_to_ms(Cycle cycles, double clock_hz = kChipClockHz) {
  return cycles_to_seconds(cycles, clock_hz) * 1e3;
}

constexpr double bytes_per_cycle_to_gbps(double bytes_per_cycle,
                                         double clock_hz = kChipClockHz) {
  return bytes_per_cycle * clock_hz / 1e9;
}

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;

}  // namespace edgemm

#endif  // EDGEMM_COMMON_UNITS_HPP
