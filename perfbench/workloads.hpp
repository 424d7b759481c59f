// The benchmark's three serving workloads: named traffic mixes replayed
// through the public serving API. Each workload is generated from a seed;
// the engine only ever sees the generated Request vector.
#ifndef EDGEMM_PERFBENCH_WORKLOADS_HPP
#define EDGEMM_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/engine_config.hpp"
#include "serve/request.hpp"

namespace edgemm::perfbench {

/// One named workload and the reason it is in the benchmark.
struct WorkloadSpec {
  std::string name;
  /// Why the workload exists: the layers it stresses and the ones it
  /// bypasses (the no-change control for optimizations elsewhere).
  std::string why;
  /// Seed reserved for verifying a performance claim: never used while a
  /// change is being written or tuned.
  std::uint64_t held_out_seed = 0;
  /// True when the fast-tier twin of this workload must match its
  /// detailed makespan (the fidelity gate; detailed-tier workloads only).
  bool fast_twin_gate = false;
};

/// The spec named `name`; throws std::invalid_argument when unknown.
const WorkloadSpec& find_workload(const std::string& name);

/// The 8x-coarsened bench chip every workload runs on.
core::ChipConfig bench_chip();

/// Generates the request trace of `name` from `seed`: identical seeds
/// give identical traces.
std::vector<serve::Request> generate_requests(const std::string& name,
                                              std::uint64_t seed);

/// Chip, models and engine composition of a workload.
struct Composition {
  core::ChipConfig chip;
  std::vector<model::MllmConfig> models;
  serve::EngineConfig engine;
};

/// Engine composition of `name`. `requests` sizes the KV budget of the
/// paged workload (a multiple of the trace's worst per-request footprint).
Composition make_composition(const std::string& name,
                             const std::vector<serve::Request>& requests);

}  // namespace edgemm::perfbench

#endif  // EDGEMM_PERFBENCH_WORKLOADS_HPP
