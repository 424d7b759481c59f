#include "core/chip.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace edgemm::core {

const char* to_string(ChipComposition composition) {
  switch (composition) {
    case ChipComposition::kHeterogeneous: return "EdgeMM (hetero)";
    case ChipComposition::kHomoCc: return "homo-CC";
    case ChipComposition::kHomoMc: return "homo-MC";
    case ChipComposition::kBaselineSnitch: return "Snitch baseline";
  }
  return "?";
}

namespace {

/// Validates before any member is built from the configuration.
const ChipConfig& validated(const ChipConfig& config) {
  config.validate();
  return config;
}

}  // namespace

ChipTimingModel::ChipTimingModel(const ChipConfig& config, ChipComposition composition,
                                 ReplayMode mode)
    : config_(validated(config)), composition_(composition), mode_(mode),
      dram_(sim_, config_.dram),
      system_xbar_(sim_, config_.system_xbar_bytes_per_cycle,
                   config_.system_xbar_latency) {
  const std::size_t clusters_per_group =
      config_.cc_clusters_per_group + config_.mc_clusters_per_group;
  const std::size_t total_clusters = config_.groups * clusters_per_group;

  // Hierarchical AXI interconnect (Fig. 4): one crossbar link per group,
  // one system crossbar in front of the DRAM controller. Only the
  // detailed tier walks bursts through it; the fast tier prices the
  // hops analytically and builds no ports, paths or DMA engines. Every
  // table is sized up front (each cluster adds one port per hop), so
  // nothing the clusters point at ever moves.
  if (mode_ == ReplayMode::kFast) {
    fast_.emplace(sim_, dram_, config_);
  } else {
    system_xbar_.reserve_ports(total_clusters);
    dram_.channel().reserve_ports(total_clusters);
    group_xbars_.reserve(config_.groups);
    for (std::size_t g = 0; g < config_.groups; ++g) {
      group_xbars_.emplace_back(sim_, config_.group_xbar_bytes_per_cycle,
                                config_.group_xbar_latency);
      group_xbars_.back().reserve_ports(clusters_per_group);
    }
  }
  clusters_.reserve(total_clusters);

  for (std::size_t g = 0; g < config_.groups; ++g) {
    for (std::size_t c = 0; c < clusters_per_group; ++c) {
      ClusterKind kind = ClusterKind::kBaselineSimd;
      switch (composition) {
        case ChipComposition::kHeterogeneous:
          kind = c < config_.cc_clusters_per_group ? ClusterKind::kComputeCentric
                                                   : ClusterKind::kMemoryCentric;
          break;
        case ChipComposition::kHomoCc: kind = ClusterKind::kComputeCentric; break;
        case ChipComposition::kHomoMc: kind = ClusterKind::kMemoryCentric; break;
        case ChipComposition::kBaselineSnitch: break;
      }
      if (fast_) {
        clusters_.emplace_back(sim_, *fast_, config_, kind);
        continue;
      }
      // The cluster's DMA builds its path in place from this route; a
      // braced list evaluates in order, so ports are added group crossbar
      // first, then system crossbar, then DRAM.
      mem::ResourceServer& group_xbar = group_xbars_[g];
      const std::array<mem::MemoryPath::Hop, 3> route{{
          {&group_xbar, group_xbar.add_port()},
          {&system_xbar_, system_xbar_.add_port()},
          {&dram_.channel(), dram_.add_port()},
      }};
      clusters_.emplace_back(sim_, route, config_, kind);
    }
  }
  EDGEMM_ASSERT(clusters_.size() == total_clusters);

  all_.reserve(total_clusters);
  for (ClusterTimingModel& cluster : clusters_) all_.push_back(&cluster);
  for (std::size_t k = 0; k < by_kind_.size(); ++k) {
    const auto kind = static_cast<ClusterKind>(k);
    const auto n = static_cast<std::size_t>(std::count_if(
        all_.begin(), all_.end(),
        [kind](const ClusterTimingModel* c) { return c->kind() == kind; }));
    by_kind_[k].reserve(n);
    for (ClusterTimingModel* cluster : all_) {
      if (cluster->kind() == kind) by_kind_[k].push_back(cluster);
    }
  }
}

const ChipTimingModel::ClusterSet& ChipTimingModel::preferred_clusters(Phase phase) {
  // §IV-B: "it is optimal to run modality encoder and LLM-prefill on
  // CC-clusters, with LLM-decoding on MC-clusters."
  if (composition_ == ChipComposition::kHeterogeneous) {
    const bool wants_cc = phase == Phase::kVisionEncoder || phase == Phase::kPrefill ||
                          phase == Phase::kProjector;
    return clusters(wants_cc ? ClusterKind::kComputeCentric
                             : ClusterKind::kMemoryCentric);
  }
  return all_;
}

std::vector<GemmWork> ChipTimingModel::partition(const GemmWork& work,
                                                 std::size_t ways) {
  EDGEMM_ASSERT(ways > 0);
  std::vector<GemmWork> shards;
  const std::size_t base = work.n / ways;
  std::size_t remainder = work.n % ways;
  for (std::size_t w = 0; w < ways; ++w) {
    std::size_t n_shard = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    if (n_shard == 0) continue;  // more clusters than columns
    GemmWork shard = work;
    shard.n = n_shard;
    shards.push_back(shard);
  }
  return shards;
}

void ChipTimingModel::run_on(const ClusterSet& targets,
                             const std::vector<GemmWork>& ops, sim::Action done) {
  EDGEMM_ASSERT_MSG(!targets.empty(), "run_on: empty cluster set");
  // Build one op list per cluster by sharding each op's n dimension.
  std::vector<std::vector<GemmWork>> per_cluster(targets.size());
  for (const GemmWork& op : ops) {
    const auto shards = partition(op, targets.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      per_cluster[s].push_back(shards[s]);
    }
  }
  // Join barrier across clusters.
  struct Join {
    std::size_t pending = 0;
    sim::Action finish;
  };
  auto join = std::make_shared<Join>();
  join->finish = std::move(done);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (!per_cluster[t].empty()) ++join->pending;
  }
  if (join->pending == 0) {
    sim_.schedule(0, std::move(join->finish));
    return;
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (per_cluster[t].empty()) continue;
    targets[t]->run_ops(per_cluster[t], [join] {
      EDGEMM_ASSERT(join->pending > 0);
      if (--join->pending == 0 && join->finish) join->finish();
    });
  }
}

Cycle ChipTimingModel::run_phase(std::span<const GemmWork> ops) {
  const Cycle start = sim_.now();
  // Group consecutive ops by preferred cluster set (phases are
  // homogeneous in practice; this handles mixed spans too).
  std::vector<GemmWork> batch;
  std::size_t i = 0;
  while (i < ops.size()) {
    const Phase phase = ops[i].phase;
    batch.clear();
    while (i < ops.size() && ops[i].phase == phase) batch.push_back(ops[i++]);
    bool finished = false;
    run_on(preferred_clusters(phase), batch, [&finished] { finished = true; });
    sim_.run();
    EDGEMM_ASSERT(finished);
  }
  return sim_.now() - start;
}

void ChipTimingModel::clear_bandwidth_budgets() {
  for (ClusterTimingModel& c : clusters_) c.set_budget(mem::DmaEngine::kUnlimited);
}

}  // namespace edgemm::core
