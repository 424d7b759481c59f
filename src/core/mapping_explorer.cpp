#include "core/mapping_explorer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace edgemm::core {

const char* to_string(Mapping::Split split) {
  return split == Mapping::Split::kOutput ? "n-split" : "k-split";
}

MappingExplorer::MappingExplorer(const ChipConfig& config)
    : config_(config), sim_(std::make_unique<sim::Simulator>()),
      dram_(std::make_unique<mem::DramController>(*sim_, config.dram)) {
  config_.validate();
  cc_probe_ = std::make_unique<ClusterTimingModel>(
      *sim_, *dram_, config_, ClusterKind::kComputeCentric);
  mc_probe_ = std::make_unique<ClusterTimingModel>(
      *sim_, *dram_, config_, ClusterKind::kMemoryCentric);
  simd_probe_ = std::make_unique<ClusterTimingModel>(
      *sim_, *dram_, config_, ClusterKind::kBaselineSimd);
}

ClusterTimingModel& MappingExplorer::probe(ClusterKind kind) const {
  switch (kind) {
    case ClusterKind::kComputeCentric: return *cc_probe_;
    case ClusterKind::kMemoryCentric: return *mc_probe_;
    case ClusterKind::kBaselineSimd: return *simd_probe_;
  }
  EDGEMM_ASSERT_MSG(false, "unknown cluster kind");
  return *cc_probe_;
}

Mapping MappingExplorer::evaluate(const GemmWork& work, ClusterKind kind,
                                  Mapping::Split split, std::size_t ways) const {
  if (ways == 0) {
    throw std::invalid_argument("MappingExplorer::evaluate: ways must be > 0");
  }
  ClusterTimingModel& cluster = probe(kind);
  Mapping m;
  m.split = split;

  GemmWork shard = work;
  double exchange_bytes = 0.0;
  if (split == Mapping::Split::kOutput) {
    m.ways = std::min(ways, work.n);
    shard.n = (work.n + m.ways - 1) / m.ways;
  } else {
    m.ways = std::min(ways, work.k);
    shard.k = (work.k + m.ways - 1) / m.ways;
    // Partial sums from all but one cluster travel through the shared
    // buffer / DRAM and are reduced (BF16 accumulators).
    exchange_bytes = 2.0 * static_cast<double>(m.ways - 1) *
                     static_cast<double>(work.m) * static_cast<double>(work.n) * 2.0;
  }

  m.compute_cycles = cluster.compute_cycles(shard);
  const double shard_bytes = static_cast<double>(cluster.weight_bytes(shard) +
                                                 cluster.activation_bytes(shard));
  const double total_bytes = shard_bytes * static_cast<double>(m.ways) + exchange_bytes;
  m.total_bytes = static_cast<Bytes>(total_bytes);
  m.memory_cycles =
      static_cast<Cycle>(total_bytes / config_.dram.bytes_per_cycle);
  m.predicted_cycles =
      std::max(m.compute_cycles, m.memory_cycles) + config_.dram.latency;
  return m;
}

std::vector<Mapping> MappingExplorer::explore(const GemmWork& work, ClusterKind kind,
                                              std::size_t max_ways) const {
  std::vector<Mapping> candidates;
  for (std::size_t ways = 1; ways <= std::max<std::size_t>(max_ways, 1); ++ways) {
    candidates.push_back(evaluate(work, kind, Mapping::Split::kOutput, ways));
    if (ways > 1) {
      candidates.push_back(evaluate(work, kind, Mapping::Split::kReduction, ways));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

Mapping MappingExplorer::best(const GemmWork& work, ClusterKind kind,
                              std::size_t max_ways) const {
  const auto candidates = explore(work, kind, max_ways);
  EDGEMM_ASSERT(!candidates.empty());
  return candidates.front();
}

}  // namespace edgemm::core
