#include "serve/cluster/cluster_engine.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "common/units.hpp"
#include "mem/memory_path.hpp"
#include "model/workload.hpp"
#include "serve/sweep.hpp"

namespace edgemm::serve {

namespace {

/// Routes the requests picked out by `order` across `chips` chips via
/// `router`, maintaining the per-chip load state in routing order.
/// Returns each chip's original-trace indices, in routed order.
std::vector<std::vector<std::size_t>> route_requests(
    const std::vector<Request>& requests, const std::vector<std::size_t>& order,
    std::size_t chips, std::size_t models, const RouterPolicy& router) {
  RouterContext ctx;
  ctx.chips.assign(chips, ChipLoad{});
  for (ChipLoad& load : ctx.chips) load.per_model.assign(models, 0);
  std::vector<std::vector<std::size_t>> assigned(chips);
  for (const std::size_t i : order) {
    const Request& r = requests[i];
    const std::size_t c = router.route(r, ctx);
    if (c >= chips) {
      throw std::logic_error(
          "run_cluster: RouterPolicy routed a request out of chip range");
    }
    ChipLoad& load = ctx.chips[c];
    ++load.assigned_requests;
    load.estimated_cost += request_route_cost(r);
    ++load.per_model[r.model];
    assigned[c].push_back(i);
  }
  return assigned;
}

/// The ClusterResult ledgers that are plain sums over the chips, as
/// (cluster member, per-chip ServingResult member) pairs.
constexpr auto kChipSums = std::make_tuple(
    std::pair{&ClusterResult::cc_weight_fetch_bytes,
              &ServingResult::cc_weight_fetch_bytes},
    std::pair{&ClusterResult::cc_weight_bytes_saved,
              &ServingResult::cc_weight_bytes_saved},
    std::pair{&ClusterResult::rider_refetch_bytes,
              &ServingResult::rider_refetch_bytes},
    std::pair{&ClusterResult::weight_pins, &ServingResult::weight_pins},
    std::pair{&ClusterResult::placement_denials,
              &ServingResult::placement_denials},
    std::pair{&ClusterResult::offloaded_requests,
              &ServingResult::offloaded_requests},
    std::pair{&ClusterResult::offloaded_chunks,
              &ServingResult::offloaded_chunks},
    std::pair{&ClusterResult::fat_bytes_moved,
              &ServingResult::fat_bytes_moved},
    std::pair{&ClusterResult::kv_return_bytes,
              &ServingResult::kv_return_bytes_sent},
    std::pair{&ClusterResult::quality_downgrades,
              &ServingResult::quality_downgrades},
    std::pair{&ClusterResult::quality_restores,
              &ServingResult::quality_restores},
    std::pair{&ClusterResult::tokens_at_degraded_quality,
              &ServingResult::tokens_at_degraded_quality});

/// One tier's replay: ServingResult per chip (default for an empty chip
/// — ServingEngine rejects empty traces, and an idle chip has nothing to
/// price) plus each chip's records in its assigned order.
struct TierOutcome {
  std::vector<ServingResult> per_chip;
  std::vector<std::vector<RequestRecord>> records;
};

/// Replays every non-empty chip of a tier through run_sweep (shards
/// price in parallel; outcome order is fixed by case index, so the tier
/// is byte-identical at any worker count). `arrivals`, when non-null,
/// overrides each request's arrival cycle (the decode tier re-times
/// requests to their KV link-arrival).
TierOutcome replay_tier(const core::ChipConfig& chip,
                        const std::vector<model::MllmConfig>& models,
                        const EngineConfig& engine,
                        const std::vector<Request>& requests,
                        const std::vector<std::vector<std::size_t>>& assigned,
                        const std::vector<Cycle>* arrivals,
                        const char* label_prefix, std::size_t workers) {
  std::vector<SweepCase> cases;
  std::vector<std::size_t> case_chip;
  for (std::size_t c = 0; c < assigned.size(); ++c) {
    if (assigned[c].empty()) continue;
    SweepCase sc;
    sc.label = std::string(label_prefix) + std::to_string(c);
    sc.chip = chip;
    sc.models = models;
    sc.engine = engine;
    sc.requests.reserve(assigned[c].size());
    for (const std::size_t i : assigned[c]) {
      Request r = requests[i];
      if (arrivals) r.arrival = (*arrivals)[i];
      sc.requests.push_back(r);
    }
    case_chip.push_back(c);
    cases.push_back(std::move(sc));
  }
  TierOutcome tier;
  tier.per_chip.assign(assigned.size(), ServingResult{});
  tier.records.resize(assigned.size());
  if (cases.empty()) return tier;
  auto outcomes = run_sweep(cases, SweepOptions{workers});
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    tier.per_chip[case_chip[k]] = outcomes[k].result;
    tier.records[case_chip[k]] = std::move(outcomes[k].records);
  }
  return tier;
}

}  // namespace

ClusterOutcome run_cluster(const core::ChipConfig& chip,
                           const std::vector<model::MllmConfig>& models,
                           const EngineConfig& engine,
                           const ClusterConfig& cluster,
                           std::vector<Request> requests) {
  cluster.validate();
  if (requests.empty()) {
    throw std::invalid_argument("run_cluster: empty trace");
  }
  if (engine.phase() != EnginePhase::kFull) {
    throw std::invalid_argument(
        "run_cluster: the cluster owns the phase split — pass a kFull "
        "EngineConfig and pick a ClusterMode instead");
  }
  for (const Request& r : requests) {
    if (r.model >= models.size()) {
      throw std::invalid_argument("run_cluster: model index out of range");
    }
  }

  const std::size_t n = cluster.chips();
  ClusterOutcome out;
  out.result.mode = cluster.mode();
  out.result.chips = n;
  out.records.resize(requests.size());

  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::optional<mem::ChipLink> link;
  if (cluster.mode() == ClusterMode::kReplica) {
    // --- Replica sharding: route, then replay every shard independently.
    const auto assigned =
        route_requests(requests, order, n, models.size(), cluster.router());
    TierOutcome tier = replay_tier(chip, models, engine, requests, assigned,
                                   nullptr, "chip", cluster.workers());
    out.result.per_chip = std::move(tier.per_chip);
    for (std::size_t c = 0; c < n; ++c) {
      out.result.routed_per_chip.push_back(assigned[c].size());
      for (std::size_t j = 0; j < assigned[c].size(); ++j) {
        out.records[assigned[c][j]] = std::move(tier.records[c][j]);
      }
    }
  } else {
    // --- Disaggregated prefill/decode --------------------------------------
    const std::size_t prefill_n = cluster.prefill_chips();
    const std::size_t decode_n = n - prefill_n;
    // Prefill tier: balance by the prefill-side cost alone (vision crops
    // x prompt tokens — output length is the DECODE tier's problem).
    std::vector<std::vector<std::size_t>> pre_assigned(prefill_n);
    std::vector<double> pre_cost(prefill_n, 0.0);
    for (const std::size_t i : order) {
      std::size_t best = 0;
      for (std::size_t p = 1; p < prefill_n; ++p) {
        if (pre_cost[p] < pre_cost[best]) best = p;
      }
      pre_assigned[best].push_back(i);
      pre_cost[best] += static_cast<double>(requests[i].input_tokens *
                                            requests[i].crops);
    }
    EngineConfig prefill_engine = engine;
    prefill_engine.phase(EnginePhase::kPrefillOnly);
    TierOutcome pre_tier =
        replay_tier(chip, models, prefill_engine, requests, pre_assigned,
                    nullptr, "prefill", cluster.workers());

    // Ship each finished KV cache over the shared chip-to-chip link in
    // (prefill_end, id) order — the deterministic arrival order of the
    // transfers at the serialized wire. A prefill-rejected request never
    // ships and never decodes.
    struct Shipment {
      std::size_t index = 0;
      Cycle ready = 0;
      Bytes bytes = 0;
    };
    std::vector<Shipment> shipments;
    for (std::size_t p = 0; p < prefill_n; ++p) {
      for (std::size_t j = 0; j < pre_assigned[p].size(); ++j) {
        const std::size_t i = pre_assigned[p][j];
        out.records[i] = pre_tier.records[p][j];
        if (!out.records[i].done) continue;
        const Bytes bytes =
            static_cast<Bytes>(requests[i].input_tokens) *
            model::kv_bytes_per_token(models[requests[i].model]);
        shipments.push_back(Shipment{i, out.records[i].prefill_end, bytes});
      }
    }
    std::sort(shipments.begin(), shipments.end(),
              [&requests](const Shipment& a, const Shipment& b) {
                if (a.ready != b.ready) return a.ready < b.ready;
                return requests[a.index].id < requests[b.index].id;
              });
    link.emplace(chip.chip_link_bytes_per_cycle, chip.chip_link_latency);
    std::vector<Cycle> kv_arrival(requests.size(), 0);
    std::vector<std::size_t> shipped_order;
    shipped_order.reserve(shipments.size());
    for (const Shipment& s : shipments) {
      kv_arrival[s.index] = link->transfer(s.bytes, s.ready);
      shipped_order.push_back(s.index);
    }

    // Decode tier: the RouterPolicy shards the shipped requests, each
    // re-arriving at its KV's link-arrival cycle.
    const auto dec_assigned = route_requests(requests, shipped_order, decode_n,
                                             models.size(), cluster.router());
    EngineConfig decode_engine = engine;
    decode_engine.phase(EnginePhase::kDecodeOnly);
    TierOutcome dec_tier =
        replay_tier(chip, models, decode_engine, requests, dec_assigned,
                    &kv_arrival, "decode", cluster.workers());

    // Merge: prefill-side fields (admitted, prefill_*, pin stats) come
    // from the prefill chip's record, decode-side fields from the decode
    // chip's; the request itself keeps its ORIGINAL arrival, so latency
    // spans the whole disaggregated path including the link.
    for (std::size_t d = 0; d < decode_n; ++d) {
      for (std::size_t j = 0; j < dec_assigned[d].size(); ++j) {
        const std::size_t i = dec_assigned[d][j];
        const RequestRecord& dec = dec_tier.records[d][j];
        RequestRecord& rec = out.records[i];
        rec.first_token = dec.first_token;
        rec.finish = dec.finish;
        rec.tokens_generated = dec.tokens_generated;
        // The merged record reports the WORST fraction either tier served
        // the request at — a prefill-side degradation is not erased by a
        // decode tier that happened to judge it back up.
        rec.keep_fraction_served =
            std::min(rec.keep_fraction_served, dec.keep_fraction_served);
        rec.done = dec.done;
        rec.rejected = dec.rejected;
      }
    }
    out.result.per_chip = std::move(pre_tier.per_chip);
    out.result.per_chip.insert(out.result.per_chip.end(),
                               dec_tier.per_chip.begin(),
                               dec_tier.per_chip.end());
    for (std::size_t p = 0; p < prefill_n; ++p) {
      out.result.routed_per_chip.push_back(pre_assigned[p].size());
    }
    for (std::size_t d = 0; d < decode_n; ++d) {
      out.result.routed_per_chip.push_back(dec_assigned[d].size());
    }
  }

  static_cast<TraceSummary&>(out.result) =
      summarize_trace(out.records, chip.clock_hz);
  std::size_t acc_completed = 0;
  double acc_weighted_sum = 0.0;
  for (const ServingResult& r : out.result.per_chip) {
    std::apply(
        [&](const auto&... sum) {
          ((out.result.*sum.first += r.*sum.second), ...);
        },
        kChipSums);
    if (r.completed > 0) {
      acc_completed += r.completed;
      acc_weighted_sum +=
          r.accuracy_proxy_mean * static_cast<double>(r.completed);
      out.result.accuracy_proxy_min =
          std::min(out.result.accuracy_proxy_min, r.accuracy_proxy_min);
    }
  }
  if (acc_completed > 0) {
    out.result.accuracy_proxy_mean =
        acc_weighted_sum / static_cast<double>(acc_completed);
  }
  if (link) {
    // Probe the byte ledger at the cluster's drain point (the later of
    // the last finish and the last link arrival): everything sent has
    // landed, nothing is in flight — exact conservation.
    Cycle probe = link->last_arrival();
    for (const RequestRecord& rec : out.records) {
      if (rec.done) probe = std::max(probe, rec.finish);
    }
    out.result.kv_transfers = link->transfers().size();
    out.result.kv_bytes_sent = link->bytes_sent();
    out.result.kv_migration_bytes = link->bytes_landed_by(probe);
    out.result.kv_bytes_in_flight = link->bytes_in_flight_at(probe);
    out.result.link_occupancy =
        static_cast<double>(link->busy_cycles()) /
        static_cast<double>(std::max<Cycle>(out.result.makespan, 1));
    out.result.max_link_queue_ms =
        cycles_to_ms(link->max_queue_wait(), chip.clock_hz);
  }
  return out;
}

}  // namespace edgemm::serve
