// ClusterEngine: one shared trace replayed across N per-chip
// ServingEngines (the EdgeMM fleet-scale question — what does a RACK of
// Fig. 10 chips serve, and where does disaggregation pay?).
//
// Each chip of the cluster is a full ServingEngine on a fresh chip with
// its own simulator, so chips share no simulated state; what binds them
// into a cluster is decided up front, deterministically:
//   - REPLICA mode: the RouterPolicy shards the trace across the chips
//     in trace order, then every chip replays its shard independently
//     (through run_sweep, so shards price in parallel and the outcome is
//     byte-identical at any worker count). A 1-chip cluster routes
//     everything to chip 0 and reproduces the single-engine result
//     bit-for-bit.
//   - DISAGGREGATED mode: chips [0, prefill_chips) run prefill-only
//     engines (EnginePhase::kPrefillOnly, balanced by prefill cost);
//     each finished KV cache then crosses ONE shared chip-to-chip link
//     (mem::ChipLink, sized by ChipConfig::chip_link_bytes_per_cycle /
//     chip_link_latency) in (prefill_end, id) order; the RouterPolicy
//     shards the decode tier, where each request re-enters a decode-only
//     engine (EnginePhase::kDecodeOnly) at its KV's link-arrival cycle.
//     The KV migration bytes join the byte ledger: ClusterResult
//     reports bytes sent/landed/in-flight with exact conservation.
//
// Cross-chip timing needs no shared simulator because the dataflow is
// acyclic: prefill replays fix the transfer ready-times, the link model
// fixes the arrival times, and the decode replays start from those.
#ifndef EDGEMM_SERVE_CLUSTER_CLUSTER_ENGINE_HPP
#define EDGEMM_SERVE_CLUSTER_CLUSTER_ENGINE_HPP

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/cluster/cluster_config.hpp"
#include "serve/engine_config.hpp"
#include "serve/serving_engine.hpp"

namespace edgemm::serve {

/// Aggregate outcome of one cluster replay: the TraceSummary of the
/// merged per-request records (summarize_trace, as one ServingEngine
/// uses, so a 1-chip cluster matches it bit-for-bit), the KV migration
/// ledger, and every chip's own ServingResult.
struct ClusterResult : TraceSummary {
  ClusterMode mode = ClusterMode::kReplica;
  std::size_t chips = 0;
  // --- Cluster-wide weight-traffic ledger (sums over the chips) ----------
  Bytes cc_weight_fetch_bytes = 0;
  Bytes cc_weight_bytes_saved = 0;
  Bytes rider_refetch_bytes = 0;
  std::size_t weight_pins = 0;
  std::size_t placement_denials = 0;
  // --- Heterogeneous offload ledger (sums over the chips; every chip
  // --- may be an EdgeMM + fat-backend pair, see docs/HETEROGENEOUS.md) ---
  std::size_t offloaded_requests = 0;  ///< requests with >= 1 fat chunk
  std::size_t offloaded_chunks = 0;    ///< prefill chunks the fat backend ran
  Bytes fat_bytes_moved = 0;           ///< fat-backend DRAM traffic priced
  // --- Quality ledger (QualityPolicy seam; sums over the chips, the
  // --- accuracy proxies weighted/min'd over chips that completed work) ---
  std::size_t quality_downgrades = 0;
  std::size_t quality_restores = 0;
  std::size_t tokens_at_degraded_quality = 0;
  /// Completed-weighted mean of the chips' accuracy_proxy_mean (1.0 when
  /// nothing completed anywhere).
  double accuracy_proxy_mean = 1.0;
  /// Min over chips with completed > 0 of accuracy_proxy_min.
  double accuracy_proxy_min = 1.0;
  /// KV bytes shipped fat -> EdgeMM over the per-chip return links
  /// (sent == landed per chip once each engine drains, so one sum
  /// suffices for the cluster ledger).
  Bytes kv_return_bytes = 0;
  // --- KV migration over the chip-to-chip link (disaggregated mode) ------
  std::size_t kv_transfers = 0;    ///< finished prefills shipped to decode
  Bytes kv_bytes_sent = 0;         ///< entered the link (start cycle)
  Bytes kv_migration_bytes = 0;    ///< landed on a decode chip (arrival)
  /// In flight at the drain probe (the later of last finish and last
  /// link arrival) — exactly 0 once the cluster drains, and
  /// kv_bytes_sent == kv_migration_bytes + kv_bytes_in_flight always.
  Bytes kv_bytes_in_flight = 0;
  double link_occupancy = 0.0;     ///< wire-busy cycles / cluster makespan
  double max_link_queue_ms = 0.0;  ///< worst KV wait for the serialized wire
  // --- Per-chip detail ----------------------------------------------------
  /// Requests routed to each chip (disaggregated: prefill tier first,
  /// then decode tier — decode counts only completed prefills).
  std::vector<std::size_t> routed_per_chip;
  /// Each chip's own replay result, chip order (a chip that received no
  /// requests reports a default ServingResult).
  std::vector<ServingResult> per_chip;

  /// Exact, including the floating-point metrics and every per-chip
  /// result.
  bool operator==(const ClusterResult&) const = default;
};

/// Result + merged per-request records (original trace order; in
/// disaggregated mode each record splices the prefill-side fields from
/// the prefill chip with the decode-side fields from the decode chip).
struct ClusterOutcome {
  ClusterResult result;
  std::vector<RequestRecord> records;

  /// Exact: the result plus every merged record, field by field.
  bool operator==(const ClusterOutcome&) const = default;
};

/// Replays `requests` across a cluster of `cluster.chips()` chips, each
/// configured as (chip, models, engine). Runs unmodified on both replay
/// tiers — the engine config's ReplayMode is replicated per chip.
/// Throws std::invalid_argument for an empty trace or an invalid
/// ClusterConfig; anything a per-chip ServingEngine throws propagates.
ClusterOutcome run_cluster(const core::ChipConfig& chip,
                           const std::vector<model::MllmConfig>& models,
                           const EngineConfig& engine,
                           const ClusterConfig& cluster,
                           std::vector<Request> requests);

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_CLUSTER_CLUSTER_ENGINE_HPP
