#include "core/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/quant.hpp"
#include "coproc/cim_macro.hpp"
#include "coproc/pruner.hpp"
#include "coproc/systolic_array.hpp"

namespace edgemm::core {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Copies a sub-block into a zero-padded R×C tile.
Tensor padded_block(const Tensor& src, std::size_t r0, std::size_t c0,
                    std::size_t rows, std::size_t cols) {
  Tensor tile(rows, cols);
  const std::size_t nr = std::min(rows, src.rows() - r0);
  const std::size_t nc = std::min(cols, src.cols() - c0);
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t c = 0; c < nc; ++c) {
      tile.at(r, c) = src.at(r0 + r, c0 + c);
    }
  }
  return tile;
}

}  // namespace

SaGemmResult sa_gemm(const ChipConfig& config, const Tensor& acts,
                     const Tensor& weights) {
  if (acts.cols() != weights.rows()) {
    throw std::invalid_argument("sa_gemm: inner dimensions mismatch");
  }
  const std::size_t rows = config.systolic.rows;  // R
  const std::size_t cols = config.systolic.cols;  // C
  coproc::SystolicArray sa(config.systolic);

  const std::size_t m = acts.rows();
  const std::size_t k = acts.cols();
  const std::size_t n = weights.cols();

  SaGemmResult result{Tensor(m, n), 0, 0};
  // Weight-stationary loop nest: for each R×C weight tile, stream all M
  // activation rows before moving on (maximal weight reuse).
  for (std::size_t kb = 0; kb < k; kb += rows) {
    for (std::size_t nb = 0; nb < n; nb += cols) {
      sa.load_weights(padded_block(weights, kb, nb, rows, cols));
      const Tensor act_block = padded_block(acts, 0, kb, m, rows);
      const Tensor partial = sa.multiply(act_block);
      const std::size_t nc = std::min(cols, n - nb);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < nc; ++c) {
          result.out.at(i, nb + c) += partial.at(i, c);
        }
      }
      ++result.tile_passes;
    }
  }
  result.cycles = sa.cycles_elapsed();
  return result;
}

CimGemvResult cim_gemv(const ChipConfig& config, std::span<const float> act,
                       const Tensor& weights) {
  if (act.size() != weights.rows()) {
    throw std::invalid_argument("cim_gemv: activation length must equal rows");
  }
  const auto& cfg = config.cim;
  const std::size_t k = weights.rows();
  const std::size_t n = weights.cols();
  coproc::CimMacro macro(cfg);

  // Activation codes, zero-padded to a whole number of R-chunks.
  const auto qa = quantize_symmetric(act, cfg.act_bits);
  const std::size_t entries = ceil_div(k, cfg.tree_inputs);
  std::vector<std::int32_t> codes(entries * cfg.tree_inputs, 0);
  std::copy(qa.codes.begin(), qa.codes.end(), codes.begin());

  CimGemvResult result;
  result.out.assign(n, 0.0F);
  result.entries_used = entries;

  for (std::size_t nb = 0; nb < n; nb += cfg.columns) {
    const std::size_t nc = std::min(cfg.columns, n - nb);
    // Quantize this column group once (per-tensor symmetric scale).
    const Tensor group = weights.block(0, nb, k, nc);
    const auto qw = quantize_symmetric(group.flat(), cfg.weight_bits);
    // Stream the K dimension through the macro in windows of at most
    // `cfg.entries` entries: write a window, run the bit-serial pass,
    // accumulate, then overwrite with the next window (steady-state
    // weight streaming when K exceeds the macro capacity).
    std::vector<std::int64_t> acc(cfg.columns, 0);
    for (std::size_t base = 0; base < entries; base += cfg.entries) {
      const std::size_t count = std::min(cfg.entries, entries - base);
      for (std::size_t e = 0; e < count; ++e) {
        std::vector<std::int32_t> tile(cfg.tree_inputs * cfg.columns, 0);
        for (std::size_t r = 0; r < cfg.tree_inputs; ++r) {
          const std::size_t row = (base + e) * cfg.tree_inputs + r;
          if (row >= k) break;
          for (std::size_t c = 0; c < nc; ++c) {
            tile[r * cfg.columns + c] = qw.codes[row * nc + c];
          }
        }
        macro.write_entry(e, tile);
      }
      const auto part = macro.gemv_long(
          0, count,
          std::span<const std::int32_t>(codes).subspan(base * cfg.tree_inputs,
                                                       count * cfg.tree_inputs));
      for (std::size_t c = 0; c < cfg.columns; ++c) acc[c] += part[c];
    }
    for (std::size_t c = 0; c < nc; ++c) {
      result.out[nb + c] = static_cast<float>(acc[c]) * qa.scale * qw.scale;
    }
    ++result.column_groups;
  }
  result.cycles = macro.cycles_elapsed();
  return result;
}

PrunedGemvResult cim_gemv_pruned(const ChipConfig& config, std::span<const float> act,
                                 const Tensor& weights, std::size_t k_budget,
                                 double t, std::size_t num_cores) {
  if (act.size() != weights.rows()) {
    throw std::invalid_argument("cim_gemv_pruned: activation length mismatch");
  }
  if (num_cores == 0) {
    throw std::invalid_argument("cim_gemv_pruned: num_cores must be > 0");
  }
  const std::size_t k = weights.rows();
  const std::size_t n = weights.cols();
  const std::size_t mc_elem = config.mc_elem_bytes;

  // Partition channels over cores; each core prunes its local slice with
  // a proportional share of the global budget (§IV-A: "each core focuses
  // on its assigned local channels, avoiding complex global Top-k"). The
  // core covering [lo, hi) gets floor(budget·hi/k) − floor(budget·lo/k)
  // rows: the cumulative floors sum to exactly min(budget, k).
  const std::size_t budget = std::min(k_budget, k);
  coproc::ActAwarePruner pruner;
  std::vector<std::size_t> kept_global;
  std::size_t n_total = 0;
  Cycle prune_cycles = 0;
  const std::size_t slice = ceil_div(k, num_cores);
  for (std::size_t core = 0; core < num_cores; ++core) {
    const std::size_t lo = core * slice;
    if (lo >= k) break;
    const std::size_t len = std::min(slice, k - lo);
    const std::size_t local_k = budget * (lo + len) / k - budget * lo / k;
    const Cycle before = pruner.cycles_elapsed();
    const auto outcome = pruner.prune(act.subspan(lo, len), local_k, t);
    prune_cycles += pruner.cycles_elapsed() - before;
    n_total += outcome.n_above_threshold;
    for (const std::size_t idx : outcome.kept) kept_global.push_back(lo + idx);
  }
  std::sort(kept_global.begin(), kept_global.end());

  // Gather surviving channels + weight rows (the address generator only
  // fetches these rows from DRAM).
  std::vector<float> act_kept;
  act_kept.reserve(kept_global.size());
  Tensor w_kept(std::max<std::size_t>(kept_global.size(), 1), n);
  for (std::size_t i = 0; i < kept_global.size(); ++i) {
    act_kept.push_back(act[kept_global[i]]);
    for (std::size_t c = 0; c < n; ++c) {
      w_kept.at(i, c) = weights.at(kept_global[i], c);
    }
  }

  PrunedGemvResult result;
  result.channels_kept = kept_global.size();
  result.n_above_threshold = n_total;
  result.weight_bytes_unpruned = static_cast<Bytes>(k) * n * mc_elem;
  result.weight_bytes_fetched = static_cast<Bytes>(kept_global.size()) * n * mc_elem;
  result.pruning_ratio =
      1.0 - static_cast<double>(kept_global.size()) / static_cast<double>(k);

  if (kept_global.empty()) {
    result.out.assign(n, 0.0F);
    result.cycles = prune_cycles;
    return result;
  }
  auto gemv = cim_gemv(config, act_kept, w_kept);
  result.out = std::move(gemv.out);
  result.cycles = prune_cycles + gemv.cycles;
  return result;
}

}  // namespace edgemm::core
