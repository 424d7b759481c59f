// Pluggable scheduling-policy interfaces of the serving engine.
//
// The engine is a policy-driven orchestrator: WHAT to admit is decided
// by a SchedulerPolicy, HOW a request's prefill is cut into CC-lane jobs
// by a PrefillPlanner, WHICH prefilled requests join the next decode
// step (and in what order) by a BatchPolicy, WHICH models' weights
// deserve the shared residency budget by a PlacementPolicy, WHERE
// each prefill chunk executes in a heterogeneous EdgeMM+GPU pair by an
// OffloadPolicy, and at WHAT quality (FFN keep fraction) each request
// is served by a QualityPolicy. Concrete policies live in admission.hpp
// (scheduler side) and below; new ones only need to implement one of
// these interfaces and be handed to EngineConfig.
#ifndef EDGEMM_SERVE_POLICY_HPP
#define EDGEMM_SERVE_POLICY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Which serving stages this engine executes (disaggregated clusters).
/// kFull is the single-chip default; the split phases are how a
/// ClusterEngine turns one chip into a dedicated prefill or decode tier:
/// a kPrefillOnly engine retires each request when its prefill ends (the
/// finished KV is the product, streamed to a decode chip), a kDecodeOnly
/// engine treats each request's arrival as "its KV just landed" and goes
/// straight to the decode batch. Lives here (not engine_config.hpp) so
/// OffloadContext can carry the judged chunk's phase.
enum class EnginePhase : std::uint8_t {
  kFull,         ///< prefill + decode on this chip (the single-chip engine)
  kPrefillOnly,  ///< encoder + prefill only; retires at prefill end
  kDecodeOnly,   ///< decode only; prefill is assumed done elsewhere
};

const char* to_string(EnginePhase phase);

/// Outcome of one admission judgment.
enum class AdmissionVerdict : std::uint8_t {
  kAdmit,  ///< pop the request and start its prefill now
  kDefer,  ///< leave it queued; it is re-judged at the next pump
  kReject, ///< drop it (recorded as rejected, never served)
};

const char* to_string(AdmissionVerdict verdict);

/// Engine-state snapshot handed to SchedulerPolicy::admit. All estimates
/// are maintained online by the engine (measured CC-lane throughput and
/// decode-step duration EWMAs) — deterministic, but estimates, not
/// guarantees.
struct AdmissionContext {
  Cycle now = 0;
  std::size_t inflight = 0;        ///< admitted but unfinished requests
  std::size_t active_batch = 0;    ///< requests in the current decode batch
  std::size_t queue_depth = 0;     ///< queued requests, candidate included
  /// Estimated cycles until the candidate's first prefill chunk could
  /// dispatch (CC-lane backlog over measured lane throughput).
  Cycle estimated_queue_delay = 0;
  /// Estimated unloaded service time for the candidate: prefill traffic
  /// over measured CC throughput plus output_tokens decode steps.
  Cycle estimated_service = 0;
};

/// Admission and decode-batch sizing. Implementations must be
/// deterministic pure functions of their arguments and construction
/// parameters. Contract: a kDefer verdict with zero in-flight requests
/// is escalated to kAdmit by the engine — a policy cannot starve an
/// otherwise idle chip.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// @return Stable human-readable policy name (bench/docs labels).
  virtual const char* name() const = 0;

  /// Judges the queue head.
  /// @param r    The candidate request (always the arrival-ordered head).
  /// @param ctx  Engine-state snapshot with online backlog/service
  ///             estimates (see AdmissionContext).
  /// @return kAdmit to start its prefill now, kDefer to re-judge at the
  ///         next pump, kReject to drop it permanently.
  virtual AdmissionVerdict admit(const Request& r,
                                 const AdmissionContext& ctx) const = 0;

  /// Sizes the next decode join.
  /// @param active  Requests already decoding in the current batch.
  /// @param ready   Prefilled requests waiting to join.
  /// @return How many of `ready` may join at this step boundary (the
  ///         engine may join fewer when the KV budget defers some).
  virtual std::size_t decode_join_count(std::size_t active,
                                        std::size_t ready) const = 0;
};

/// Splits one request's prefill (vision encoder + LLM prefill) into
/// successive CC-lane jobs. Returning more than one chunk bounds
/// head-of-line blocking: another request's chunk can dispatch between
/// two of ours, so the worst-case CC-lane queueing delay drops from a
/// whole prefill to one chunk.
class PrefillPlanner {
 public:
  virtual ~PrefillPlanner() = default;

  /// @return Stable human-readable planner name (bench/docs labels).
  virtual const char* name() const = 0;

  /// Cuts one request's prefill into CC-lane jobs.
  /// @param r  The admitted request.
  /// @return Chunk sizes in prefill tokens. Must be non-empty,
  ///         all-positive and sum to r.input_tokens (the engine
  ///         validates and throws std::logic_error otherwise). The
  ///         first chunk additionally carries the encoder + projector
  ///         ops.
  virtual std::vector<std::size_t> plan(const Request& r) const = 0;

  /// @return true when the engine should route this planner's chunks
  ///         through the WeightResidencyTracker: the first chunk that
  ///         fetches a layer group pins it (budget permitting) and
  ///         later chunks skip that group's weight DMA. Pins are
  ///         refcounted per MODEL — concurrent same-model requests ride
  ///         one pin and the budget is charged once. Requires
  ///         EngineConfig::weight_residency_bytes > 0 to take effect.
  ///         Default: false (every chunk re-fetches).
  virtual bool chains_weight_residency() const { return false; }

  /// @return true when chained chunks should additionally prefer
  ///         lane-affinity dispatch (PhaseScheduler affinity chaining):
  ///         a pinned request's chunks run back-to-back, shortening pin
  ///         hold time at the cost of some head-of-line blocking for
  ///         co-tenants. Only consulted when residency is active.
  virtual bool prefers_lane_affinity() const { return false; }
};

/// The PR-1 behavior: the whole prefill as one CC-lane job.
class MonolithicPrefill final : public PrefillPlanner {
 public:
  const char* name() const override { return "monolithic"; }
  std::vector<std::size_t> plan(const Request& r) const override;
};

/// Equal chunks of at most `max_chunk_tokens` (last chunk takes the
/// remainder). Honest trade-off: every chunk re-fetches the full layer
/// weights (see ResidentChunkedPrefill for the pinned variant).
class ChunkedPrefill : public PrefillPlanner {
 public:
  /// Throws std::invalid_argument for a zero chunk size.
  explicit ChunkedPrefill(std::size_t max_chunk_tokens);
  std::size_t max_chunk_tokens() const { return max_chunk_tokens_; }
  const char* name() const override { return "chunked"; }
  std::vector<std::size_t> plan(const Request& r) const override;

 private:
  std::size_t max_chunk_tokens_;
};

/// Weight-resident chunk chaining: the same chunk slicing as
/// ChunkedPrefill, but the engine pins layer-group weights on-chip
/// (WeightResidencyTracker, budget =
/// EngineConfig::weight_residency_bytes) when the first chunk fetches
/// them, so subsequent chunks pay only activation + KV traffic for the
/// pinned layers. Pins are shared per model (refcounted) by default:
/// concurrent requests of the same model charge the budget once and the
/// later ones skip the pinned layers' weight DMA on ALL their chunks. A
/// pin that would overflow the budget falls back to re-fetching (never
/// stalls); the bytes are evicted when the last attached request's
/// prefill retires. With a zero residency budget this planner is
/// byte-for-byte identical to ChunkedPrefill.
class ResidentChunkedPrefill final : public ChunkedPrefill {
 public:
  /// @param max_chunk_tokens     Chunk size (throws std::invalid_argument
  ///                             when zero, as ChunkedPrefill).
  /// @param chain_lane_affinity  Also enable PhaseScheduler affinity
  ///                             chaining on the CC lane (see
  ///                             prefers_lane_affinity).
  explicit ResidentChunkedPrefill(std::size_t max_chunk_tokens,
                                  bool chain_lane_affinity = false);
  const char* name() const override { return "resident-chunked"; }
  bool chains_weight_residency() const override { return true; }
  bool prefers_lane_affinity() const override { return chain_lane_affinity_; }

 private:
  bool chain_lane_affinity_;
};

/// Orders the decode-ready list before each decode step: the engine
/// joins requests front-first, so the policy decides who enters the
/// batch when slots (or KV capacity) are scarce. `ready` holds indices
/// into `records`, arriving in prefill-completion (FIFO) order; the
/// policy may reorder but not add or drop entries.
class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;

  /// @return Stable human-readable policy name (bench/docs labels).
  virtual const char* name() const = 0;

  /// Reorders the decode-ready list in place before a join.
  /// @param ready    Indices into `records`, in prefill-completion
  ///                 (FIFO) order; may be permuted but not resized.
  /// @param records  The engine's per-request records (read-only).
  virtual void order_joiners(std::vector<std::size_t>& ready,
                             const std::vector<RequestRecord>& records) const = 0;
};

/// Prefill-completion order (the PR-1 behavior).
class FifoBatch final : public BatchPolicy {
 public:
  const char* name() const override { return "fifo"; }
  void order_joiners(std::vector<std::size_t>& ready,
                     const std::vector<RequestRecord>& records) const override;
};

/// Shortest-remaining-first: fewest remaining output tokens joins first
/// (frees decode slots and KV reservations sooner); ties keep FIFO
/// order.
class ShortestRemainingFirst final : public BatchPolicy {
 public:
  const char* name() const override { return "shortest-remaining-first"; }
  void order_joiners(std::vector<std::size_t>& ready,
                     const std::vector<RequestRecord>& records) const override;
};

/// Per-model demand signals the engine maintains anyway, snapshotted for
/// PlacementPolicy judgments. All deterministic; the estimates are the
/// same per-model EWMAs AdmissionContext is built from.
struct ModelDemand {
  std::size_t queued = 0;    ///< requests of this model waiting in the queue
  std::size_t inflight = 0;  ///< admitted but unfinished requests
  /// Requests currently attached to this model's weight pin (riders
  /// included); 0 for an idle kept-warm pin and for no pin at all.
  std::size_t pin_refcount = 0;
  std::size_t resident_layers = 0;  ///< layer groups on chip (idle included)
  bool idle_resident = false;       ///< resident with refcount 0 (evictable)
  Bytes pinned_bytes = 0;           ///< bytes this model holds of the budget
  Bytes layer_group_bytes = 0;      ///< pin granularity of this model
  std::size_t total_layers = 0;     ///< LLM layers (full set = total x group)
  double cc_bytes_per_cycle_est = 0.0;  ///< per-model CC throughput EWMA
  double decode_step_cycles_est = 0.0;  ///< per-model decode-step EWMA

  /// Live requests that could want this model's weights near compute.
  std::size_t live_demand() const { return queued + inflight; }
  /// Bytes of the model's FULL layer-group set (the pin's fill target).
  Bytes full_set_bytes() const {
    return layer_group_bytes * static_cast<Bytes>(total_layers);
  }
};

/// Engine snapshot handed to every PlacementPolicy judgment: the shared
/// residency budget plus one ModelDemand per served model (indexed like
/// the engine's model list).
struct PlacementContext {
  Bytes capacity = 0;           ///< the WeightResidencyTracker budget
  Bytes pinned_bytes = 0;       ///< held right now (live + idle pins)
  Bytes idle_pinned_bytes = 0;  ///< reclaimable without touching live pins
  std::vector<ModelDemand> models;
};

/// Decides which models' layer-group pins to hold, acquire or evict
/// against the shared residency budget in multi-model serving. The
/// engine consults it at three seams: before charging the budget with a
/// FRESH pin (may_acquire — riders on an existing pin are always
/// allowed, sharing is free), when a pin's LAST rider detaches
/// (retain_idle — keep the bytes warm for the model's next request, or
/// evict now), and when an allowed acquisition does not fit the
/// remaining budget (evict_victims — which idle pins to reclaim).
/// Implementations must be deterministic pure functions of their
/// construction parameters and arguments. Only consulted with weight
/// residency active; KeepCurrentPlacement reproduces the placement-
/// oblivious engine (first-come pins, eviction at refcount zero).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// @return Stable human-readable policy name (bench/docs labels).
  virtual const char* name() const = 0;

  /// May `model` charge the budget with a fresh pin now?
  /// @param model  Index into ctx.models of the model asking to pin.
  /// @param ctx    Demand + budget snapshot.
  /// @return false to deny (the request keeps re-fetching; counted as
  ///         placement_denials), true to let the attach proceed.
  virtual bool may_acquire(std::size_t model,
                           const PlacementContext& ctx) const = 0;

  /// Keep `model`'s bytes resident (an idle, warm pin) when its last
  /// attached request detaches? false = evict immediately (the PR 4
  /// behavior).
  virtual bool retain_idle(std::size_t model,
                           const PlacementContext& ctx) const = 0;

  /// Idle models whose pins should be evicted so `model` can fit
  /// `bytes_needed` more bytes, in eviction order. Only idle_resident
  /// models are evictable — the engine ignores any other entry — and
  /// eviction stops as soon as the freed bytes cover the need.
  virtual std::vector<std::size_t> evict_victims(
      std::size_t model, Bytes bytes_needed,
      const PlacementContext& ctx) const = 0;
};

/// The placement-oblivious baseline (default): every model may pin
/// first-come-first-served, nothing is kept warm, nothing is evicted.
/// Identical to an engine with no placement seam (tested).
class KeepCurrentPlacement final : public PlacementPolicy {
 public:
  const char* name() const override { return "keep-current"; }
  bool may_acquire(std::size_t model,
                   const PlacementContext& ctx) const override;
  bool retain_idle(std::size_t model,
                   const PlacementContext& ctx) const override;
  std::vector<std::size_t> evict_victims(
      std::size_t model, Bytes bytes_needed,
      const PlacementContext& ctx) const override;
};

/// Demand-weighted resident set: ranks models by live demand
/// (queued + inflight; ties to the lower index) and greedily grants
/// whole layer-group sets from the top until the budget runs out
/// (zero-demand models only stay ranked while already resident — keeping
/// them warm is free until a demanded model wants the bytes). A model
/// outside the target set may not acquire and is not kept warm; an
/// in-set model under budget pressure evicts idle out-of-set pins
/// (coldest first).
class DemandWeightedPlacement final : public PlacementPolicy {
 public:
  const char* name() const override { return "demand-weighted"; }
  bool may_acquire(std::size_t model,
                   const PlacementContext& ctx) const override;
  bool retain_idle(std::size_t model,
                   const PlacementContext& ctx) const override;
  std::vector<std::size_t> evict_victims(
      std::size_t model, Bytes bytes_needed,
      const PlacementContext& ctx) const override;

  /// The models the budget should hold, in grant order (exposed for
  /// tests and observability; deterministic).
  std::vector<std::size_t> target_set(const PlacementContext& ctx) const;
};

/// Optimistic keep-warm: everyone may pin and every pin is kept warm at
/// idle; idle pins are evicted (coldest demand first, ties to the lower
/// index) only when a fresh acquisition actually needs the room. The
/// greedy middle ground: maximal reuse while the budget is slack,
/// demand-ordered reclamation under pressure.
class EvictIdleOnPressure final : public PlacementPolicy {
 public:
  const char* name() const override { return "evict-idle"; }
  bool may_acquire(std::size_t model,
                   const PlacementContext& ctx) const override;
  bool retain_idle(std::size_t model,
                   const PlacementContext& ctx) const override;
  std::vector<std::size_t> evict_victims(
      std::size_t model, Bytes bytes_needed,
      const PlacementContext& ctx) const override;
};

// --- Offload policies (the fifth seam) --------------------------------------

/// Where one prefill chunk executes in a heterogeneous composition.
enum class OffloadTarget : std::uint8_t {
  kLocal,  ///< the EdgeMM chip's CC lane (the default substrate)
  kFat,    ///< the fat backend (GpuBackend) paired with this engine
};

const char* to_string(OffloadTarget target);

/// Engine-state snapshot handed to OffloadPolicy::place_chunk. Queue
/// depths and throughput EWMAs are maintained online by the engine —
/// deterministic, but estimates, not guarantees.
struct OffloadContext {
  EnginePhase phase = EnginePhase::kFull;  ///< the engine's stage split
  std::size_t input_tokens = 0;  ///< the request's whole prompt length
  std::size_t crops = 0;         ///< vision crops (chunk 0 runs the encoder)
  std::size_t chunk = 0;         ///< index of the judged chunk
  std::size_t chunk_count = 0;   ///< total chunks in the request's plan
  std::size_t chunk_tokens = 0;  ///< prefill tokens of the judged chunk
  std::size_t model = 0;         ///< index into the engine's model list
  std::size_t local_queued = 0;  ///< jobs waiting on the EdgeMM CC lane
  std::size_t fat_queued = 0;    ///< jobs waiting on the fat backend's stream
  /// Measured CC-lane throughput EWMA (bytes/cycle, EdgeMM cost model).
  double local_bytes_per_cycle_est = 0.0;
  /// Measured fat-backend throughput EWMA (bytes/cycle, its cost model).
  double fat_bytes_per_cycle_est = 0.0;
};

/// Decides, per prefill chunk, which backend of a heterogeneous
/// EdgeMM+GPU pair executes it. Judged at chunk-submission time (the
/// PrefillPlanner's chunk granularity is the split granularity — a
/// finer planner gives the policy finer request splits for free);
/// decode is never judged, it always stays on the EdgeMM MC lane (the
/// paper's latency-sensitive phase). Implementations must be
/// deterministic pure functions of their arguments and construction
/// parameters. Without a fat backend configured the engine never
/// consults the policy.
class OffloadPolicy {
 public:
  virtual ~OffloadPolicy() = default;

  /// @return Stable human-readable policy name (bench/docs labels).
  virtual const char* name() const = 0;

  /// Places one prefill chunk.
  /// @param r    The request the chunk belongs to.
  /// @param ctx  Engine-state snapshot (see OffloadContext).
  /// @return kLocal to run on the EdgeMM CC lane, kFat for the paired
  ///         fat backend (its KV is shipped back over the return link
  ///         when the prefill finishes).
  virtual OffloadTarget place_chunk(const Request& r,
                                    const OffloadContext& ctx) const = 0;
};

/// Everything local (default): byte-identical to an engine with no fat
/// backend at all, even when one is configured.
class NoOffload final : public OffloadPolicy {
 public:
  const char* name() const override { return "no-offload"; }
  OffloadTarget place_chunk(const Request& r,
                            const OffloadContext& ctx) const override;
};

/// Long prefills to the fat backend: a request whose prompt reaches
/// `min_prompt_tokens` runs its WHOLE prefill (vision encoder included —
/// chunk 0 carries it) on the GPU, decode stays on EdgeMM and the KV is
/// shipped back over the ledgered return link. 0 routes every prefill.
/// The EdgeLLM/Hessian-aware split: heavy compute-bound prefill on the
/// fat backend, latency-sensitive decode on the edge chip.
class PrefillToFat final : public OffloadPolicy {
 public:
  explicit PrefillToFat(std::size_t min_prompt_tokens = 512);
  std::size_t min_prompt_tokens() const { return min_prompt_tokens_; }
  const char* name() const override { return "prefill-to-fat"; }
  OffloadTarget place_chunk(const Request& r,
                            const OffloadContext& ctx) const override;

 private:
  std::size_t min_prompt_tokens_;
};

/// Pressure-relief valve at chunk granularity: a chunk spills to the fat
/// backend only while the local CC lane has at least
/// `local_queue_threshold` jobs queued AND the fat stream is shorter
/// than the local one. One request's prefill can straddle both backends
/// chunk-by-chunk (the PrefillPlanner seam provides the split points);
/// any fat chunk makes the request's KV return over the link.
class ThresholdOffload final : public OffloadPolicy {
 public:
  /// Throws std::invalid_argument for a zero threshold (it would spill
  /// every chunk even from an idle lane — use PrefillToFat(0) for that).
  explicit ThresholdOffload(std::size_t local_queue_threshold);
  std::size_t local_queue_threshold() const { return local_queue_threshold_; }
  const char* name() const override { return "threshold-offload"; }
  OffloadTarget place_chunk(const Request& r,
                            const OffloadContext& ctx) const override;

 private:
  std::size_t local_queue_threshold_;
};

// --- Quality policies (the sixth seam) --------------------------------------

/// Engine-state snapshot handed to QualityPolicy::keep_fraction. The
/// pressure signals (queue depth, deadline slack against the per-model
/// service EWMAs, decode batch occupancy, recent SLO misses) are
/// maintained online by the engine — deterministic, but estimates, not
/// guarantees. All byte-derived estimates are in full-precision-
/// equivalent units so a degraded co-tenant cannot skew them.
struct QualityContext {
  Cycle now = 0;
  std::size_t queue_depth = 0;   ///< queued requests waiting for admission
  std::size_t inflight = 0;      ///< admitted but unfinished requests
  std::size_t active_batch = 0;  ///< requests in the current decode batch
  Cycle deadline = 0;            ///< the request's absolute deadline (0 = none)
  /// Estimated absolute completion: now + the CC backlog's delay + the
  /// request's remaining decode, from the engine's full-precision-
  /// equivalent throughput EWMAs. The backlog already holds the
  /// request's unsubmitted prefill chunks, so they count once; at
  /// chunk 0 this equals the admission estimate (queue delay +
  /// service).
  Cycle estimated_finish = 0;
  std::size_t slo_misses = 0;    ///< finished requests that missed deadlines
  double base_keep = 1.0;        ///< the static per-model keep fraction
  double current_keep = 1.0;     ///< fraction currently served to the request
  double min_keep = 0.25;        ///< lower edge of the configured band
  double max_keep = 1.0;         ///< upper edge of the configured band
};

/// Decides, per request, what FFN keep fraction it is served at — the
/// paper's activation-aware pruning knob turned into an online,
/// load-adaptive control. Judged once per prefill chunk, at its
/// submission: chunk 0's judgment is the admission judgment (a
/// decode-only tier, which has no chunks, is judged once at
/// admission). The last judgment sticks for decode. The
/// engine clamps the returned value into
/// [min(min_keep, base_keep), max(max_keep, base_keep)] so the static
/// fraction is always reachable. Serving below base_keep is a
/// "downgrade" (priced by the task-proxy accuracy model into the
/// quality ledger); already-pinned resident layers are never pruned —
/// pinned bytes stay ledger-exact, only streamed bytes shrink.
/// Implementations must be deterministic pure functions of their
/// arguments and construction parameters.
class QualityPolicy {
 public:
  virtual ~QualityPolicy() = default;

  /// @return Stable human-readable policy name (bench/docs labels).
  virtual const char* name() const = 0;

  /// Judges one request's keep fraction.
  /// @param r    The judged request.
  /// @param ctx  Engine-state snapshot (see QualityContext).
  /// @return The raw keep fraction (the engine clamps it into the
  ///         effective band); must be finite.
  virtual double keep_fraction(const Request& r,
                               const QualityContext& ctx) const = 0;
};

/// Always the static per-model fraction (default): byte-identical to an
/// engine with no quality seam at all — every request serves at the
/// keep fraction derived at construction (task proxy or global knob).
class StaticQuality final : public QualityPolicy {
 public:
  const char* name() const override { return "static-quality"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override;
};

/// Deadline-pressure controller with recovery hysteresis: tightens the
/// keep fraction by `step` whenever the estimated finish already misses
/// the deadline, relaxes by `step` only once the estimated finish beats
/// the deadline by at least `relax_margin` of the request's SLO window
/// (deadline − arrival), and holds inside the dead band between the two
/// thresholds — so a constant load cannot make it oscillate. Requests
/// without a deadline hold their current fraction. Monotone: at a fixed
/// current fraction, more pressure (a later estimated finish) never
/// raises the returned fraction.
class SloPressureQuality final : public QualityPolicy {
 public:
  /// @param step          Fraction removed/restored per judgment;
  ///                      throws std::invalid_argument outside (0, 1].
  /// @param relax_margin  Slack (as a fraction of the SLO window)
  ///                      required before relaxing; throws for a
  ///                      negative value.
  explicit SloPressureQuality(double step = 0.125, double relax_margin = 0.25);

  double step() const { return step_; }
  double relax_margin() const { return relax_margin_; }

  const char* name() const override { return "slo-pressure"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override;

 private:
  double step_;
  double relax_margin_;
};

/// Load-proportional degradation: serves max_keep at or below
/// `low_depth` queued requests, min_keep at or above `high_depth`, and
/// interpolates linearly between. Memoryless (ignores current_keep) and
/// monotone non-increasing in queue depth.
class QueueDepthQuality final : public QualityPolicy {
 public:
  /// Throws std::invalid_argument unless low_depth < high_depth.
  explicit QueueDepthQuality(std::size_t low_depth = 2,
                             std::size_t high_depth = 8);

  std::size_t low_depth() const { return low_depth_; }
  std::size_t high_depth() const { return high_depth_; }

  const char* name() const override { return "queue-depth-quality"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override;

 private:
  std::size_t low_depth_;
  std::size_t high_depth_;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_POLICY_HPP
