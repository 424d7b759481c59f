#include "serve/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace edgemm::serve {

const char* to_string(EnginePhase phase) {
  switch (phase) {
    case EnginePhase::kFull: return "full";
    case EnginePhase::kPrefillOnly: return "prefill-only";
    case EnginePhase::kDecodeOnly: return "decode-only";
  }
  return "?";
}

const char* to_string(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmit: return "admit";
    case AdmissionVerdict::kDefer: return "defer";
    case AdmissionVerdict::kReject: return "reject";
  }
  return "?";
}

std::vector<std::size_t> MonolithicPrefill::plan(const Request& r) const {
  return {r.input_tokens};
}

ChunkedPrefill::ChunkedPrefill(std::size_t max_chunk_tokens)
    : max_chunk_tokens_(max_chunk_tokens) {
  if (max_chunk_tokens_ == 0) {
    throw std::invalid_argument("ChunkedPrefill: max_chunk_tokens must be > 0");
  }
}

std::vector<std::size_t> ChunkedPrefill::plan(const Request& r) const {
  std::vector<std::size_t> chunks;
  std::size_t remaining = r.input_tokens;
  while (remaining > 0) {
    const std::size_t take = std::min(remaining, max_chunk_tokens_);
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

ResidentChunkedPrefill::ResidentChunkedPrefill(std::size_t max_chunk_tokens,
                                               bool chain_lane_affinity)
    : ChunkedPrefill(max_chunk_tokens),
      chain_lane_affinity_(chain_lane_affinity) {}

void FifoBatch::order_joiners(std::vector<std::size_t>&,
                              const std::vector<RequestRecord>&) const {}

void ShortestRemainingFirst::order_joiners(
    std::vector<std::size_t>& ready,
    const std::vector<RequestRecord>& records) const {
  std::stable_sort(ready.begin(), ready.end(),
                   [&records](std::size_t a, std::size_t b) {
                     const auto remaining = [&records](std::size_t i) {
                       const RequestRecord& rec = records[i];
                       return rec.request.output_tokens - rec.tokens_generated;
                     };
                     return remaining(a) < remaining(b);
                   });
}

// --- Placement policies -----------------------------------------------------

namespace {

/// Idle resident models ordered coldest-first (live demand asc; within
/// equal demand the LARGEST pin goes first — one eviction covers the
/// need and the other idle models stay resident; ties to the lower
/// index), cut off once the freed bytes cover `bytes_needed`.
std::vector<std::size_t> coldest_idle_victims(
    Bytes bytes_needed, const PlacementContext& ctx,
    const std::vector<std::size_t>& excluded) {
  std::vector<std::size_t> idle;
  for (std::size_t m = 0; m < ctx.models.size(); ++m) {
    if (!ctx.models[m].idle_resident) continue;
    if (std::find(excluded.begin(), excluded.end(), m) != excluded.end()) {
      continue;
    }
    idle.push_back(m);
  }
  std::stable_sort(idle.begin(), idle.end(),
                   [&ctx](std::size_t a, std::size_t b) {
                     const std::size_t da = ctx.models[a].live_demand();
                     const std::size_t db = ctx.models[b].live_demand();
                     if (da != db) return da < db;
                     if (ctx.models[a].pinned_bytes !=
                         ctx.models[b].pinned_bytes) {
                       return ctx.models[a].pinned_bytes >
                              ctx.models[b].pinned_bytes;
                     }
                     return a < b;
                   });
  std::vector<std::size_t> victims;
  Bytes freed = 0;
  for (const std::size_t m : idle) {
    if (freed >= bytes_needed) break;
    victims.push_back(m);
    freed += ctx.models[m].pinned_bytes;
  }
  return victims;
}

}  // namespace

bool KeepCurrentPlacement::may_acquire(std::size_t,
                                       const PlacementContext&) const {
  return true;
}

bool KeepCurrentPlacement::retain_idle(std::size_t,
                                       const PlacementContext&) const {
  return false;
}

std::vector<std::size_t> KeepCurrentPlacement::evict_victims(
    std::size_t, Bytes, const PlacementContext&) const {
  return {};
}

std::vector<std::size_t> DemandWeightedPlacement::target_set(
    const PlacementContext& ctx) const {
  // Model indices ordered hottest-first: live demand desc, ties to the
  // lower index (pure determinism — residency deliberately does NOT
  // break ties, or a small resident model could squat the budget slot a
  // big equal-demand model needs).
  std::vector<std::size_t> order(ctx.models.size());
  for (std::size_t m = 0; m < order.size(); ++m) order[m] = m;
  std::stable_sort(order.begin(), order.end(),
                   [&ctx](std::size_t a, std::size_t b) {
                     const std::size_t da = ctx.models[a].live_demand();
                     const std::size_t db = ctx.models[b].live_demand();
                     if (da != db) return da > db;
                     return a < b;
                   });
  // Greedy knapsack over hottest-first whole sets. Zero-demand models
  // only stay in the set while already resident (keeping them warm is
  // free); they are the first to fall out once a demanded model wants
  // the bytes, because the greedy pass sees the demanded model first.
  std::vector<std::size_t> target;
  Bytes remaining = ctx.capacity;
  for (const std::size_t m : order) {
    const ModelDemand& d = ctx.models[m];
    if (d.live_demand() == 0 && d.resident_layers == 0) continue;
    const Bytes set = d.full_set_bytes();
    if (set == 0 || set > remaining) continue;
    target.push_back(m);
    remaining -= set;
  }
  return target;
}

bool DemandWeightedPlacement::may_acquire(std::size_t model,
                                          const PlacementContext& ctx) const {
  const auto target = target_set(ctx);
  return std::find(target.begin(), target.end(), model) != target.end();
}

bool DemandWeightedPlacement::retain_idle(std::size_t model,
                                          const PlacementContext& ctx) const {
  // Same judgment at detach time: a model still in the target set keeps
  // its bytes warm, one that fell out of it is evicted on the spot.
  return may_acquire(model, ctx);
}

std::vector<std::size_t> DemandWeightedPlacement::evict_victims(
    std::size_t model, Bytes bytes_needed, const PlacementContext& ctx) const {
  const auto target = target_set(ctx);
  if (std::find(target.begin(), target.end(), model) == target.end()) {
    return {};
  }
  return coldest_idle_victims(bytes_needed, ctx, target);
}

bool EvictIdleOnPressure::may_acquire(std::size_t,
                                      const PlacementContext&) const {
  return true;
}

bool EvictIdleOnPressure::retain_idle(std::size_t,
                                      const PlacementContext&) const {
  return true;
}

std::vector<std::size_t> EvictIdleOnPressure::evict_victims(
    std::size_t model, Bytes bytes_needed, const PlacementContext& ctx) const {
  // Never evict the asker's own idle pin out from under it — it would
  // ride that pin warm instead of re-pinning.
  return coldest_idle_victims(bytes_needed, ctx, {model});
}

// --- Offload policies -------------------------------------------------------

const char* to_string(OffloadTarget target) {
  switch (target) {
    case OffloadTarget::kLocal: return "local";
    case OffloadTarget::kFat: return "fat";
  }
  return "?";
}

OffloadTarget NoOffload::place_chunk(const Request&,
                                     const OffloadContext&) const {
  return OffloadTarget::kLocal;
}

PrefillToFat::PrefillToFat(std::size_t min_prompt_tokens)
    : min_prompt_tokens_(min_prompt_tokens) {}

OffloadTarget PrefillToFat::place_chunk(const Request& r,
                                        const OffloadContext&) const {
  // Per-request judgment: every chunk of a long prompt goes fat, so the
  // whole prefill (encoder included) runs on one backend and only the
  // finished KV crosses the link.
  return r.input_tokens >= min_prompt_tokens_ ? OffloadTarget::kFat
                                              : OffloadTarget::kLocal;
}

ThresholdOffload::ThresholdOffload(std::size_t local_queue_threshold)
    : local_queue_threshold_(local_queue_threshold) {
  if (local_queue_threshold_ == 0) {
    throw std::invalid_argument(
        "ThresholdOffload: local_queue_threshold must be > 0");
  }
}

OffloadTarget ThresholdOffload::place_chunk(const Request&,
                                            const OffloadContext& ctx) const {
  // Spill only under local pressure, and only while spilling actually
  // shortens the wait (the fat stream is the shorter queue).
  const bool pressured = ctx.local_queued >= local_queue_threshold_;
  const bool fat_shorter = ctx.fat_queued < ctx.local_queued;
  return pressured && fat_shorter ? OffloadTarget::kFat : OffloadTarget::kLocal;
}

double StaticQuality::keep_fraction(const Request&,
                                    const QualityContext& ctx) const {
  return ctx.base_keep;
}

SloPressureQuality::SloPressureQuality(double step, double relax_margin)
    : step_(step), relax_margin_(relax_margin) {
  if (!(step_ > 0.0) || step_ > 1.0) {
    throw std::invalid_argument("SloPressureQuality: step must be in (0, 1]");
  }
  if (!(relax_margin_ >= 0.0)) {
    throw std::invalid_argument(
        "SloPressureQuality: relax_margin must be >= 0");
  }
}

double SloPressureQuality::keep_fraction(const Request& r,
                                         const QualityContext& ctx) const {
  if (ctx.deadline == 0) return ctx.current_keep;
  if (ctx.estimated_finish > ctx.deadline) {
    // Already projected late: shed quality, not the request.
    return ctx.current_keep - step_;
  }
  // Relax only once the projection beats the deadline by a margin of the
  // request's own SLO window; the dead band in between holds the current
  // fraction, so a constant load cannot oscillate.
  const Cycle window = ctx.deadline > r.arrival ? ctx.deadline - r.arrival : 0;
  const double slack = static_cast<double>(ctx.deadline) -
                       static_cast<double>(ctx.estimated_finish);
  if (slack >= relax_margin_ * static_cast<double>(window)) {
    return ctx.current_keep + step_;
  }
  return ctx.current_keep;
}

QueueDepthQuality::QueueDepthQuality(std::size_t low_depth,
                                     std::size_t high_depth)
    : low_depth_(low_depth), high_depth_(high_depth) {
  if (low_depth_ >= high_depth_) {
    throw std::invalid_argument(
        "QueueDepthQuality: low_depth must be < high_depth");
  }
}

double QueueDepthQuality::keep_fraction(const Request&,
                                        const QualityContext& ctx) const {
  if (ctx.queue_depth <= low_depth_) return ctx.max_keep;
  if (ctx.queue_depth >= high_depth_) return ctx.min_keep;
  const double t = static_cast<double>(ctx.queue_depth - low_depth_) /
                   static_cast<double>(high_depth_ - low_depth_);
  return ctx.max_keep + t * (ctx.min_keep - ctx.max_keep);
}

}  // namespace edgemm::serve
