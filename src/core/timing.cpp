#include "core/timing.hpp"

#include <array>
#include <utility>

#include "common/assert.hpp"
#include "coproc/cim_macro.hpp"
#include "coproc/systolic_array.hpp"
#include "core/fast_replay.hpp"

namespace edgemm::core {

namespace {

// Unextended Snitch cluster baseline (Fig. 11 "original snitch cluster
// including SIMD cores"): 8 worker cores, each sustaining a 2-wide FMA
// SIMD issue, derated for the redundant register load/store traffic the
// matrix extensions eliminate.
constexpr double kBaselineCores = 8.0;
constexpr double kBaselineFlopsPerCyclePerCore = 4.0;
constexpr double kBaselineLoadStoreEfficiency = 0.6;
constexpr std::size_t kBaselineElemBytes = 2;  // BF16 SIMD

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

const char* to_string(ClusterKind kind) {
  switch (kind) {
    case ClusterKind::kComputeCentric: return "CC";
    case ClusterKind::kMemoryCentric: return "MC";
    case ClusterKind::kBaselineSimd: return "SIMD";
  }
  return "?";
}

ClusterTimingModel::ClusterTimingModel(sim::Simulator& sim, mem::DramController& dram,
                                       const ChipConfig& config, ClusterKind kind)
    : ClusterTimingModel(
          sim, std::array{mem::MemoryPath::Hop{&dram.channel(), dram.add_port()}}, config,
          kind) {}

ClusterTimingModel::ClusterTimingModel(sim::Simulator& sim,
                                       std::span<const mem::MemoryPath::Hop> route,
                                       const ChipConfig& config, ClusterKind kind)
    : sim_(sim), config_(config), kind_(kind),
      dma_(std::in_place, sim, route, config.dma) {}

ClusterTimingModel::ClusterTimingModel(sim::Simulator& sim, FastMemoryModel& fast,
                                       const ChipConfig& config, ClusterKind kind)
    : fast_(&fast), fast_lane_(fast.register_cluster(*this)), sim_(sim),
      config_(config), kind_(kind) {}

void ClusterTimingModel::set_budget(Bytes budget) {
  budget_ = budget;
  if (fast_ != nullptr) {
    fast_->budgets_changed();
  } else {
    dma_->set_budget(budget);
  }
}

Cycle ClusterTimingModel::compute_cycles(const GemmWork& work) const {
  switch (kind_) {
    case ClusterKind::kComputeCentric: {
      // Weight-stationary tiling: each R×C weight tile is loaded and the
      // M activation rows streamed through (Eq. 2 per tile pass).
      const auto& sa = config_.systolic;
      const std::size_t tiles = ceil_div(work.k, sa.rows) * ceil_div(work.n, sa.cols);
      const Cycle per_tile = coproc::systolic_tile_cycles(sa, work.m);
      const std::size_t cores = config_.cc_cores_per_cluster;
      return static_cast<Cycle>(ceil_div(tiles, cores)) * per_tile;
    }
    case ClusterKind::kMemoryCentric: {
      // Per column group: write ceil(k/R) entries through the write
      // circuits, then bit-serial compute per Eq. 3. Resident weights
      // (batch reuse) skip the write.
      const auto& cim = config_.cim;
      const std::size_t col_groups = ceil_div(work.n, cim.columns);
      const std::size_t entries = ceil_div(work.k, cim.tree_inputs);
      const Cycle write = work.weights_resident
                              ? 0
                              : static_cast<Cycle>(entries) *
                                    coproc::cim_entry_write_cycles(cim);
      const Cycle compute = coproc::cim_gemm_cycles(
          cim, work.m * entries);  // m vectors × entries passes, pipelined
      const std::size_t cores = config_.mc_cores_per_cluster;
      return static_cast<Cycle>(ceil_div(col_groups, cores)) * (write + compute);
    }
    case ClusterKind::kBaselineSimd: {
      const double effective =
          kBaselineCores * kBaselineFlopsPerCyclePerCore * kBaselineLoadStoreEfficiency;
      const auto cycles =
          static_cast<Cycle>(static_cast<double>(work.flops()) / effective);
      return cycles > 0 ? cycles : 1;
    }
  }
  return 1;
}

Bytes ClusterTimingModel::weight_bytes(const GemmWork& work) const {
  if (work.weights_resident) return 0;
  std::size_t elem = work.weight_elem_bytes_override;
  if (elem == 0) {
    switch (kind_) {
      case ClusterKind::kComputeCentric: elem = config_.cc_elem_bytes; break;
      case ClusterKind::kMemoryCentric: elem = config_.mc_elem_bytes; break;
      case ClusterKind::kBaselineSimd: elem = kBaselineElemBytes; break;
    }
  }
  return static_cast<Bytes>(work.k) * work.n * elem;
}

Bytes ClusterTimingModel::activation_bytes(const GemmWork& work) const {
  // Activations stream in and results stream out in BF16 regardless of
  // the weight format (the MC datapath quantizes at the macro boundary).
  const std::size_t elem = 2;
  return static_cast<Bytes>(work.m) * (work.k + work.n) * elem;
}

Bytes ClusterTimingModel::block_bytes() const {
  Bytes working = 0;
  switch (kind_) {
    case ClusterKind::kComputeCentric:
      working = config_.cc_cluster_tcdm_bytes;
      break;
    case ClusterKind::kMemoryCentric:
      // The CIM macros double as data memory; the shared buffer stages
      // inter-core traffic (§III-A).
      working = config_.mc_cluster_cim_bytes() + config_.mc_shared_buffer_bytes;
      break;
    case ClusterKind::kBaselineSimd:
      working = config_.cc_cluster_tcdm_bytes;
      break;
  }
  const Bytes half = working / 2;  // double buffering
  const double scale =
      config_.timing_block_scale >= 1.0 ? config_.timing_block_scale : 1.0;
  const auto scaled = static_cast<Bytes>(static_cast<double>(half) * scale);
  return scaled > 0 ? scaled : 1;
}

void ClusterTimingModel::run_ops(const std::vector<GemmWork>& ops, sim::Action done) {
  if (ops.empty()) {
    sim_.schedule(0, std::move(done));
    return;
  }
  if (fast_ != nullptr) {
    // Fast tier: price the batch analytically instead of walking its
    // blocks through the event-driven DMA plane. ops_executed stays a
    // submit-time counter on both tiers.
    stats_.ops_executed += ops.size();
    fast_->submit(*this, ops, std::move(done));
    return;
  }
  const Bytes block_limit = block_bytes();
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    const GemmWork& work = ops[oi];
    const Bytes total_bytes = weight_bytes(work) + activation_bytes(work);
    const Cycle total_compute = compute_cycles(work);
    const Flops total_flops = work.flops();
    const std::size_t n_blocks =
        total_bytes == 0
            ? 1
            : static_cast<std::size_t>((total_bytes + block_limit - 1) / block_limit);

    Bytes bytes_left = total_bytes;
    Cycle compute_left = total_compute;
    Flops flops_left = total_flops;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t remaining_blocks = n_blocks - b;
      Block block;
      block.dma_bytes = bytes_left / remaining_blocks;
      block.compute_cycles = compute_left / remaining_blocks;
      if (block.compute_cycles == 0) block.compute_cycles = 1;
      block.flops = flops_left / remaining_blocks;
      bytes_left -= block.dma_bytes;
      compute_left -= block.compute_cycles > compute_left ? compute_left
                                                          : block.compute_cycles;
      flops_left -= block.flops;
      if (oi == ops.size() - 1 && b == n_blocks - 1) block.done = std::move(done);
      blocks_.push_back(std::move(block));
    }
    ++stats_.ops_executed;
  }
  maybe_issue_dma();
}

bool ClusterTimingModel::idle() const {
  if (fast_ != nullptr) return fast_->idle(*this);
  return blocks_.empty() && loading_.empty() && !compute_busy_;
}

void ClusterTimingModel::maybe_issue_dma() {
  // Double buffering: at most one block loading while one computes and
  // one sits ready.
  while (!blocks_.empty() && loading_.size() + ready_.size() < 2) {
    Block block = blocks_.take_front();
    if (block.dma_bytes == 0) {
      ready_.push_back(std::move(block));
      maybe_start_compute();
      continue;
    }
    const Bytes bytes = block.dma_bytes;
    stats_.dma_bytes += bytes;
    loading_.push_back(std::move(block));
    dma_->transfer(bytes, [this] {
      ready_.push_back(loading_.take_front());
      maybe_start_compute();
      maybe_issue_dma();
    });
  }
}

void ClusterTimingModel::maybe_start_compute() {
  if (compute_busy_ || ready_.empty()) return;
  computing_ = ready_.take_front();
  compute_busy_ = true;
  sim_.schedule(computing_.compute_cycles, [this] {
    compute_busy_ = false;
    finish_block(std::move(computing_));
    maybe_start_compute();
    maybe_issue_dma();
  });
}

void ClusterTimingModel::finish_block(Block block) {
  stats_.compute_cycles += block.compute_cycles;
  stats_.flops += block.flops;
  stats_.busy_until = sim_.now();
  if (block.done) block.done();
}

Bytes estimated_traffic_bytes(const ClusterTimingModel& cluster,
                              std::span<const GemmWork> ops) {
  Bytes bytes = 0;
  for (const GemmWork& op : ops) {
    bytes += cluster.weight_bytes(op) + cluster.activation_bytes(op);
  }
  return bytes;
}

}  // namespace edgemm::core
