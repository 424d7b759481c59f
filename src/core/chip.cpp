#include "core/chip.hpp"

#include <memory>
#include <string>

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

ChipTimingModel::ChipTimingModel(const ChipConfig& config, ChipComposition composition,
                                 ReplayMode mode)
    : config_(config), composition_(composition), mode_(mode),
      dram_(sim_, config.dram) {
  config_.validate();
  const std::size_t clusters_per_group =
      config.cc_clusters_per_group + config.mc_clusters_per_group;
  const std::size_t total_clusters = config.groups * clusters_per_group;

  // Hierarchical AXI interconnect (Fig. 4): one crossbar link per group,
  // one system crossbar in front of the DRAM controller. Every table is
  // sized up front: each cluster adds one port per hop.
  system_xbar_ = std::make_unique<mem::ResourceServer>(
      sim_, "sys-xbar", config.system_xbar_bytes_per_cycle,
      config.system_xbar_latency);
  system_xbar_->reserve_ports(total_clusters);
  dram_.channel().reserve_ports(total_clusters);
  group_xbars_.reserve(config.groups);
  for (std::size_t g = 0; g < config.groups; ++g) {
    group_xbars_.push_back(std::make_unique<mem::ResourceServer>(
        sim_, "grp-xbar" + std::to_string(g), config.group_xbar_bytes_per_cycle,
        config.group_xbar_latency));
    group_xbars_.back()->reserve_ports(clusters_per_group);
  }
  clusters_.reserve(total_clusters);

  auto add_cluster = [&](ClusterKind kind, std::size_t group, std::size_t index) {
    const std::string name = std::string(to_string(kind)) + "-g" +
                             std::to_string(group) + "c" + std::to_string(index);
    mem::MemoryPath path;
    path.reserve(3);
    path.add_hop(*group_xbars_[group], group_xbars_[group]->add_port(name));
    path.add_hop(*system_xbar_, system_xbar_->add_port(name));
    path.add_hop(dram_.channel(), dram_.add_port(name));
    clusters_.push_back(std::make_unique<ClusterTimingModel>(sim_, std::move(path),
                                                             config_, kind, name));
  };

  for (std::size_t g = 0; g < config.groups; ++g) {
    for (std::size_t c = 0; c < clusters_per_group; ++c) {
      switch (composition) {
        case ChipComposition::kHeterogeneous:
          add_cluster(c < config.cc_clusters_per_group ? ClusterKind::kComputeCentric
                                                       : ClusterKind::kMemoryCentric,
                      g, c);
          break;
        case ChipComposition::kHomoCc:
          add_cluster(ClusterKind::kComputeCentric, g, c);
          break;
        case ChipComposition::kHomoMc:
          add_cluster(ClusterKind::kMemoryCentric, g, c);
          break;
        case ChipComposition::kBaselineSnitch:
          add_cluster(ClusterKind::kBaselineSimd, g, c);
          break;
      }
    }
  }

  if (mode_ == ReplayMode::kFast) {
    fast_ = std::make_unique<FastMemoryModel>(sim_, dram_, config_);
    for (const auto& cluster : clusters_) {
      fast_->register_cluster(*cluster);
      // Budget changes (BandwidthManager rebalances) re-price the active
      // streams; the model coalesces the per-cluster calls of one tick.
      cluster->dma().set_budget_listener(
          [fast = fast_.get()] { fast->budgets_changed(); });
    }
  }
}

std::vector<ClusterTimingModel*> ChipTimingModel::clusters(ClusterKind kind) {
  std::vector<ClusterTimingModel*> out;
  for (const auto& c : clusters_) {
    if (c->kind() == kind) out.push_back(c.get());
  }
  return out;
}

std::vector<ClusterTimingModel*> ChipTimingModel::all_clusters() {
  std::vector<ClusterTimingModel*> out;
  out.reserve(clusters_.size());
  for (const auto& c : clusters_) out.push_back(c.get());
  return out;
}

std::vector<ClusterTimingModel*> ChipTimingModel::preferred_clusters(Phase phase) {
  // §IV-B: "it is optimal to run modality encoder and LLM-prefill on
  // CC-clusters, with LLM-decoding on MC-clusters."
  if (composition_ == ChipComposition::kHeterogeneous) {
    const bool wants_cc = phase == Phase::kVisionEncoder || phase == Phase::kPrefill ||
                          phase == Phase::kProjector;
    return clusters(wants_cc ? ClusterKind::kComputeCentric
                             : ClusterKind::kMemoryCentric);
  }
  return all_clusters();
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

void ChipTimingModel::run_on(const std::vector<ClusterTimingModel*>& targets,
                             const std::vector<GemmWork>& ops,
                             std::function<void()> done) {
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
  auto pending = std::make_shared<std::size_t>(0);
  auto finish = std::make_shared<std::function<void()>>(std::move(done));
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (per_cluster[t].empty()) continue;
    ++*pending;
  }
  if (*pending == 0) {
    sim_.schedule(0, [finish] {
      if (*finish) (*finish)();
    });
    return;
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (per_cluster[t].empty()) continue;
    targets[t]->run_ops(per_cluster[t], [pending, finish] {
      EDGEMM_ASSERT(*pending > 0);
      if (--*pending == 0 && *finish) (*finish)();
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
  for (const auto& c : clusters_) c->dma().set_budget(mem::DmaEngine::kUnlimited);
}

}  // namespace edgemm::core
