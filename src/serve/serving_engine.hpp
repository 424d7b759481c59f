// Policy-driven request-level serving engine with continuous batching
// (the serving generalization of the Fig. 9 streaming pipeline).
//
// Requests arrive over simulated time and wait in an arrival-ordered
// queue. The engine itself only orchestrates; the decisions are made by
// the EngineConfig's policies:
//   - a SchedulerPolicy judges the queue head (admit / defer / reject,
//     e.g. SLO-aware rejection of requests that cannot meet their
//     deadline given the estimated backlog);
//   - a PrefillPlanner cuts each admitted request's encoder + prefill
//     into one or more CC-lane jobs (chunked prefill bounds CC-lane
//     head-of-line blocking);
//   - a BatchPolicy orders the prefilled requests joining the decode
//     batch at each step boundary, subject to the KvPageAllocator's
//     KV budget (joins that would overflow are deferred);
//   - a PlacementPolicy decides which models' weight pins to hold,
//     acquire or evict against the shared residency budget (multi-model
//     zoos: keep-warm idle pins, demand-weighted resident sets), with a
//     per-pin fill barrier keeping rider timing honest.
// A request that finishes prefill joins the decode batch at the next
// step boundary — it does not wait for the batch to drain (continuous
// batching). A later chat turn whose short prompt suffix is cheaper as
// CIM compute than as a CC job skips the CC lane: its suffix tokens
// join a decode step as extra rows (its plan's PrefillRoute). The §IV-B
// BandwidthManager rebalances the CC:MC DMA budget split every throttle
// interval from the bytes actually pending on each side, and
// per-request completion callbacks record tail latency.
#ifndef EDGEMM_SERVE_SERVING_ENGINE_HPP
#define EDGEMM_SERVE_SERVING_ENGINE_HPP

#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "baselines/gpu_backend.hpp"
#include "core/bandwidth_manager.hpp"
#include "core/chip.hpp"
#include "core/config.hpp"
#include "core/phase_scheduler.hpp"
#include "mem/memory_path.hpp"
#include "model/mllm_config.hpp"
#include "serve/conversation_cache.hpp"
#include "serve/engine_config.hpp"
#include "serve/kv_pages.hpp"
#include "serve/kv_tracker.hpp"
#include "serve/request.hpp"
#include "serve/trace_summary.hpp"
#include "serve/request_queue.hpp"
#include "serve/residency_tracker.hpp"

namespace edgemm::serve {

/// Aggregate outcome of one trace replay: the TraceSummary of its
/// records plus the engine's own counters and ledgers.
struct ServingResult : TraceSummary {
  double dram_utilization = 0.0;
  double mean_decode_batch = 0.0;  ///< average in-flight requests per step
  std::size_t decode_steps = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t rebalances = 0;
  // --- Policy-seam observability -----------------------------------------
  std::size_t prefill_jobs = 0;   ///< CC-lane jobs (prefill chunks) dispatched
  /// Worst job queueing delay on the CC lane — the head-of-line blocking
  /// chunked prefill bounds.
  double max_cc_queue_delay_ms = 0.0;
  std::size_t kv_deferrals = 0;   ///< decode joins deferred for KV capacity
  // --- Weight-resident chunk chaining --------------------------------------
  /// Weight bytes the CC-lane prefill jobs actually DMAed (KV streams
  /// excluded). ChunkedPrefill multiplies this by ~the chunk count;
  /// residency claws it back toward the MonolithicPrefill floor.
  Bytes cc_weight_fetch_bytes = 0;
  /// Weight bytes residency zeroed (ops that rode a pinned layer group).
  Bytes cc_weight_bytes_saved = 0;
  std::size_t weight_pins = 0;           ///< budget-charging pin acquisitions
  std::size_t weight_pin_fallbacks = 0;  ///< failed acquisitions (re-fetch)
  /// Attaches that rode another request's live pin of the same model
  /// instead of charging the budget again.
  std::size_t weight_shared_attaches = 0;
  Bytes peak_pinned_bytes = 0;           ///< residency high-water mark
  // --- Residency-aware model placement + fill barrier ----------------------
  /// Attaches that revived an idle kept-warm pin (a placement policy
  /// retained the model's bytes past its last rider): the whole prefill
  /// rides with no fill fetch and no barrier.
  std::size_t weight_warm_attaches = 0;
  /// Idle pins the placement policy evicted to make room for a hotter
  /// model's acquisition (or dropped at detach by retain_idle = false
  /// never counts — only evict_victims pressure evictions do).
  std::size_t placement_evictions = 0;
  /// Requests whose fresh-pin acquisition the placement policy denied
  /// at least once (the request keeps re-fetching; riders are never
  /// denied; retries of the same request are not re-counted).
  std::size_t placement_denials = 0;
  /// Weight bytes riders re-fetched because they dispatched before the
  /// pin owner's fill chunk retired (the fill barrier; a subset of
  /// cc_weight_fetch_bytes).
  Bytes rider_refetch_bytes = 0;
  // --- Paged KV cache (paged_kv; all zero in whole-footprint mode) --------
  std::size_t kv_pages_allocated = 0;  ///< cumulative page allocations
  /// == kv_pages_allocated once the trace drains (exact conservation).
  std::size_t kv_pages_freed = 0;
  /// Joins that rode an existing shared-prefix run instead of
  /// allocating it again (kv_prefix_sharing).
  std::size_t kv_shared_attaches = 0;
  std::size_t kv_shared_pages_saved = 0;  ///< pages those attaches skipped
  /// Partial boundary pages copied privately at join — the CoW fork of
  /// the page where the shared prefix ends and private tokens begin.
  std::size_t kv_cow_forks = 0;
  std::size_t kv_pages_swapped_out = 0;  ///< pages evicted to DRAM
  std::size_t kv_pages_swapped_in = 0;   ///< pages refilled from DRAM
  /// DRAM re-fetch bytes the swap tier charged at refill.
  Bytes kv_swap_refetch_bytes = 0;
  /// Requests preempted wholesale to DRAM mid-decode (swap-outs).
  std::size_t kv_swap_preemptions = 0;
  /// High-water mark of the CIM KV budget actually reserved — whole-
  /// footprint reservations (the default) or resident pages (paged). The
  /// §9 equal-budget comparison: paged mode either batches MORE requests
  /// or peaks LOWER here.
  Bytes peak_kv_reserved_bytes = 0;
  /// Largest decode batch any step ran — the sustained-concurrency
  /// headline paged KV raises at equal budget.
  std::size_t peak_decode_batch = 0;
  // --- Heterogeneous offload (fat_backend; all zero without one) -----------
  /// Requests that ran at least one prefill chunk on the fat backend.
  std::size_t offloaded_requests = 0;
  std::size_t offloaded_chunks = 0;  ///< prefill chunks the fat backend ran
  /// Bytes the fat backend streamed through its GDDR for those chunks
  /// (its own cost model: weights re-streamed per launch).
  Bytes fat_bytes_moved = 0;
  std::size_t fat_kernel_launches = 0;  ///< GPU kernel launches issued
  /// Fraction of the makespan the fat backend's prefill stream was busy.
  double fat_busy_fraction = 0.0;
  // --- KV return link (offloaded prefills ship KV back to EdgeMM) ----------
  std::size_t kv_return_transfers = 0;
  Bytes kv_return_bytes_sent = 0;
  Bytes kv_return_bytes_landed = 0;
  /// Probed at makespan end; conservation gate: sent == landed + in_flight.
  Bytes kv_return_bytes_in_flight = 0;
  double kv_return_max_queue_ms = 0.0;  ///< worst wait behind the wire
  // --- Swap-refill DMA (paged_kv; 0 in whole-footprint mode) ---------------
  /// Swap-in re-fetch bytes injected as MC-lane DMA ops: every refill —
  /// at step start, or of a swapped shared-prefix run a joiner refills —
  /// rides the next submitted decode step, so this equals
  /// kv_swap_refetch_bytes once the trace drains (asserted in run()).
  Bytes kv_swap_dma_bytes = 0;
  // --- Quality ledger (QualityPolicy; static defaults leave it clean) ------
  /// Judgments that took a request below its static per-model fraction.
  std::size_t quality_downgrades = 0;
  /// Judgments that brought a degraded request back to (or above) it.
  /// Conservation at drain: downgrades == restores + requests that
  /// finished still degraded.
  std::size_t quality_restores = 0;
  /// Tokens generated while their request was degraded (served below
  /// its static fraction).
  std::size_t tokens_at_degraded_quality = 0;
  /// Task-proxy answer-agreement priced at each completed request's
  /// served fraction (quality_accuracy_proxy): mean and worst case.
  /// Exactly 1.0 when nothing is pruned.
  double accuracy_proxy_mean = 1.0;
  double accuracy_proxy_min = 1.0;

  // --- Conversation cache (requests with a prefix_id; ConversationCache) --
  /// Admitted plans whose final route is local and skips the vision
  /// encoder + projector (their conversation's image is in DRAM), and
  /// those that prefill only the prompt suffix over its prefix KV. Once
  /// every request is served locally (at full keep by a planner whose
  /// chunk 0 covers the prefix, for the second): requests - distinct
  /// conversations.
  std::size_t encoder_cache_hits = 0;
  std::size_t prefix_cache_hits = 0;
  /// Later turns whose suffix ran as extra rows of an MC-lane decode step
  /// (the kMcSuffix route), never in prefill_jobs; each is also an
  /// encoder and a prefix hit.
  std::size_t mc_suffix_prefills = 0;

  /// Exact, including the floating-point metrics: identical replays
  /// produce identical bits.
  bool operator==(const ServingResult&) const = default;
};

/// Drives the heterogeneous chip through a request trace.
///
/// One-shot by design: each engine owns a fresh chip whose DRAM/DMA
/// statistics, policy estimators and records are one replay's state, so
/// run() throws std::logic_error on a second call instead of replaying
/// on a warmed chip. Use replay_trace() below when you only need the
/// outcome — it makes the one-replay contract a compile-time affordance
/// (no engine instance survives to misuse).
class ServingEngine {
 public:
  using CompletionCallback = std::function<void(const RequestRecord&)>;

  /// Throws std::invalid_argument for an empty model list or an invalid
  /// EngineConfig composition.
  ServingEngine(const core::ChipConfig& config,
                std::vector<model::MllmConfig> models, EngineConfig engine_config);

  /// Fires inside the simulation whenever a request retires.
  void set_completion_callback(CompletionCallback callback);

  /// Replays `requests` to completion and returns aggregate metrics.
  /// Throws std::invalid_argument for an empty trace, duplicate ids,
  /// zero token counts, an out-of-range model index, prefix_tokens above
  /// input_tokens, two requests of one (model, prefix_id) conversation
  /// with different crops or prefix_tokens (a conversation has one image
  /// and one shared prefix), or a request whose KV cache alone exceeds
  /// the configured KV capacity; std::logic_error on a second call.
  ServingResult run(std::vector<Request> requests);

  /// Per-request lifecycle records, in the order requests were passed.
  const std::vector<RequestRecord>& records() const { return records_; }

  const core::ChipTimingModel& chip() const { return chip_; }

  /// The KV ledger; nullptr without a KV budget. Whole-footprint mode
  /// runs it at 1-byte pages (one page per KV byte), paged_kv at
  /// kv_page_bytes.
  const KvPageAllocator* kv_pages() const {
    return pages_ ? &*pages_ : nullptr;
  }

  /// Weight-residency ledger; nullptr when EngineConfig left it disabled
  /// (zero budget, or a planner without chains_weight_residency()).
  const WeightResidencyTracker* residency_tracker() const {
    return residency_ ? &*residency_ : nullptr;
  }

  /// Decode keep fraction the engine uses for `model_index` (1.0, or the
  /// task-proxy derivation per model).
  double keep_fraction(std::size_t model_index) const {
    return per_model_.at(model_index).keep_fraction;
  }

 private:
  /// One prefill chunk of a plan: its tokens, its op list (moved out at
  /// submission) and what price_chunk charged for it.
  struct PrefillChunk {
    std::size_t tokens = 0;
    std::vector<core::GemmWork> ops;
    Bytes bytes = 0;
    /// Full-precision-equivalent CC bytes: what the chunk would stream
    /// at keep fraction 1 with the same residency. Feeds the per-model
    /// throughput estimators so a degraded co-tenant's shrunken chunks
    /// never skew admission estimates (== bytes whenever the chunk is
    /// built undegraded).
    Bytes full_bytes = 0;
    /// Weight bytes the chunk's ops stream, and the pinned ones they
    /// skip (KV-stream ops carry context, not weights: in neither).
    Bytes weight_fetch_bytes = 0;
    Bytes weight_resident_bytes = 0;
  };

  /// Where a plan's prefill runs: chunk by chunk on the CC lane (each
  /// later chunk may still offload), chunk 0 on the fat backend, or as
  /// extra rows of one MC-lane decode step (a later chat turn's short
  /// suffix; the plan then lives until that step retires).
  enum class PrefillRoute { kCc, kFat, kMcSuffix };

  /// One admitted request's remaining prefill jobs (built once, consumed
  /// chunk by chunk; also cached for deferred queue heads so repeated
  /// admission judgments don't rebuild op lists). When a weight pin is
  /// attached, jobs from first_resident_chunk on are re-priced with the
  /// pinned layer groups' weight ops marked resident.
  struct PrefillPlan {
    std::vector<PrefillChunk> chunks;
    Bytes total_bytes = 0;
    Bytes total_full_bytes = 0;
    /// Set at admission: from then on each chunk's bytes sit in the CC
    /// backlog until it retires or is offloaded, and price_chunk moves
    /// the backlog with every re-pricing.
    bool in_backlog = false;
    /// The prefill ffn_keep the jobs were last built at (1.0 = full
    /// shapes); a quality re-judgment rebuilds unsubmitted jobs when the
    /// effective prefill keep moves.
    double built_keep = 1.0;
    std::size_t next = 0;
    Cycle chunk_started = 0;
    std::size_t resident_layers = 0;      ///< layer groups pinned (0 = none)
    std::size_t first_resident_chunk = 0; ///< chunks >= this ride the pin
    /// This request holds one refcount on its model's pin and MUST
    /// detach exactly once when its plan is dropped (see drop_plan).
    bool pin_attached = false;
    /// This request's fresh attach created the pin: its fill_chunk fetch
    /// is what lands the bytes on chip (mark_filled at its retirement).
    /// Riders of the pin re-fetch until then under the fill barrier.
    bool pin_owner = false;
    std::size_t fill_chunk = 0;           ///< valid when pin_owner
    /// Already counted toward placement_denials: a request re-asks at
    /// every chunk, but each denied REQUEST is counted once.
    bool placement_denied = false;
    // --- Heterogeneous offload -------------------------------------------
    std::size_t offloaded_chunks = 0;  ///< chunks the fat backend ran
    std::size_t offload_tokens = 0;    ///< their prefill tokens (KV to ship)
    bool current_fat = false;          ///< the in-flight chunk is on fat
    // --- Route ------------------------------------------------------------
    /// Decided when the plan is built (route_of) and again, as kFat, when
    /// chunk 0 is judged fat at admission: then the route is final.
    PrefillRoute route = PrefillRoute::kCc;
    /// From the ConversationCache when the plan is built; cleared, and the
    /// plan rebuilt in full, on the kFat route. The chunks cover
    /// input_tokens - prefix_skip tokens from offset prefix_skip.
    ConversationCache::Reuse reuse;
  };

  /// Everything the engine keeps per served model (parallel to models_).
  struct ModelState {
    double keep_fraction = 1.0;  ///< decode keep fraction
    /// Bytes of one LLM layer group on the CC lane — the granularity
    /// weight pins are carved at.
    Bytes layer_weight_bytes = 0;
    /// Per-token decode traffic, from the closed form
    /// model::decode_step_traffic at the MC lane's weight element size.
    /// One decode step of a batch with contexts c_i costs
    /// shared + sum_i (request + kv_slope * c_i): `shared` is the weight
    /// fetch amortized across the whole batch (Fig. 9(c)), the other two
    /// terms are per-request (activations + private KV stream).
    double decode_shared_bytes = 0.0;
    double decode_request_bytes = 0.0;
    double decode_kv_slope = 0.0;
    /// Demand counts feeding PlacementContext: `queued` tracks the
    /// arrival queue, `inflight` the admitted-but-unfinished requests.
    std::size_t queued = 0;
    std::size_t inflight = 0;
    /// Online estimators feeding AdmissionContext, per model so a heavy
    /// co-tenant's measurements never inflate a light model's
    /// estimated_service into spurious SLO rejections (EWMA over
    /// measured chunk throughput / decode-step duration; seeded
    /// analytically; a model's estimator only folds in chunks and decode
    /// steps that model took part in).
    double cc_bytes_per_cycle_est = 0.0;
    double decode_step_cycles_est = 0.0;
    /// Scratch of rebalance() and on_decode_step_done(), kept here so
    /// neither allocates per call.
    std::size_t max_remaining = 0;
    std::size_t step_tokens = 0;
  };

  /// Per-request KV state (parallel to records_; only used when pages_
  /// is live). The allocator owns the page counts; this caches the
  /// token->page math and the recency the engine needs at step
  /// boundaries (paged mode only, apart from `joined`).
  struct KvPagingState {
    std::size_t tokens_per_page = 1;
    KvPrefixKey prefix = 0;        ///< 0 = no shared run (or sharing off)
    std::size_t shared_pages = 0;  ///< full prefix pages shared with the group
    /// Holds KV (resident or swapped) — set at join, or at admission on
    /// a decode-only tier (the KV hand-off), cleared at release.
    bool joined = false;
    /// start_decode_step's join class: the request's shared-prefix run
    /// was held when the step's joins began (riders try first).
    bool rides_held_prefix = false;
    Cycle last_touch = 0;          ///< join / page-append / refill cycle
  };

  void on_arrival(std::size_t index);
  /// Admits queue heads while the SchedulerPolicy allows, then kicks the
  /// MC lane once if it queued an MC-lane suffix for decode.
  void pump_admission();
  /// Reserves `index`'s KV at decode join — or finds the reservation a
  /// decode-only tier already made at admission (the KV hand-off).
  /// False = deferred (stays decode-ready / queued).
  bool kv_join_reserve(std::size_t index);
  /// Paged mode, step start: refills preempted requests from DRAM in
  /// strict preemption order (oldest first), re-joining them to active_.
  void refill_swapped();
  /// Paged mode, step start after joins: grows every active request's
  /// page table to cover the token this step generates, preempting
  /// victims (or the grower itself, with no victim left) when the budget
  /// is full.
  void grow_page_tables();
  /// Swaps out ONE victim among active_ but `grower_pos` (adjusted if the
  /// victim sat before it): the one with resident private pages and the
  /// least (last_touch, request id), as page-table growth is the cold
  /// signal. False when no active holds an evictable private page.
  bool preempt_victim(std::size_t& grower_pos);
  void preempt_to_dram(std::size_t active_pos);
  AdmissionContext admission_context(std::size_t index);
  /// Cycles of `index`'s own work left on this tier, from its model's
  /// full-precision-equivalent estimators: its prefill plan while the
  /// plan is outside the CC backlog, plus its remaining decode steps.
  /// The estimated_service of admission_context and, added to the
  /// backlog delay, judge_quality's estimated finish.
  double remaining_service(std::size_t index);
  PrefillPlan& plan_for(std::size_t index);
  /// Asks the planner for the tokens `plan` prefills (all but the reused
  /// prefix) and (re)builds and prices every chunk. The plan must be
  /// outside the CC backlog and unpinned.
  void plan_chunks(std::size_t index, PrefillPlan& plan);
  /// A freshly built `plan`'s route: kMcSuffix for a full engine's
  /// encoder-free, prefix-reusing single chunk whose weight-bearing ops,
  /// as CIM compute over the step's already fetched weights, take the
  /// front MC cluster fewer cycles than the chunk's CC DRAM time; else kCc.
  PrefillRoute route_of(const PrefillPlan& plan) const;
  void drop_plan(std::size_t index);
  /// Builds one chunk's op list. `ride_pin` = false re-fetches the
  /// plan's pinned layer groups too (the fill-barrier refetch of a rider
  /// dispatched before the pin's fill landed). `ffn_keep` < 1 emits the
  /// quality seam's pre-pruned FFN shapes for the unpinned layers (the
  /// plan's resident_layers always keep full shapes, so pin and barrier
  /// byte math stays exact).
  std::vector<core::GemmWork> build_chunk_ops(const Request& r,
                                              const PrefillPlan& plan,
                                              std::size_t chunk, bool ride_pin,
                                              double ffn_keep) const;
  /// The ffn_keep prefill chunks of `index` stream at: its served
  /// fraction when degraded (below the static per-model fraction), else
  /// 1.0 — the static engine never pruned prefill, only decode.
  double prefill_keep(std::size_t index) const;
  /// Consults the QualityPolicy for `index` and returns the judged keep
  /// fraction clamped into the effective band (the configured band
  /// widened to include the static fraction).
  double judge_quality(std::size_t index);
  /// Adopts a judged fraction: ledgers the downgrade/restore transition
  /// and re-prices the plan's unsubmitted jobs when the effective
  /// prefill keep moved.
  void apply_quality(std::size_t index, double served);
  /// The one place a prefill chunk is priced: (re)builds `chunk`'s ops
  /// at the plan's built keep (`ride_pin` as in build_chunk_ops), stores
  /// its actual, full-precision-equivalent and weight bytes, updates the
  /// plan totals and, while the plan is in the CC backlog, moves both
  /// backlog accumulators by the chunk's delta.
  void price_chunk(std::size_t index, PrefillPlan& plan, std::size_t chunk,
                   bool ride_pin);
  /// Memoized task-proxy agreement at (model, keep) — the quality
  /// ledger's accuracy pricing.
  double accuracy_for(std::size_t model, double keep);
  PlacementContext placement_context() const;
  /// Consults the OffloadPolicy for the next chunk of `index`'s plan;
  /// always kLocal without a fat backend (the policy is never even called).
  OffloadTarget judge_offload(std::size_t index);
  bool maybe_pin_weights(std::size_t index, std::size_t next_chunk);
  void submit_next_chunk(std::size_t index);
  void on_chunk_done(std::size_t index);
  void on_prefill_done(std::size_t index);
  /// Retires a finished request (prefill-only tier at prefill end, else
  /// at its last token): SLO ledger, counters, KV release, callback.
  void retire(std::size_t index);
  /// The one guarded MC-lane kick: starts a decode step unless one is
  /// already pending.
  void kick_decode();
  /// Submits the next decode step; no step may be pending.
  void start_decode_step();
  void on_decode_step_done();
  void schedule_rebalance(Cycle interval);
  void rebalance();

  core::ChipConfig config_;
  std::vector<model::MllmConfig> models_;
  EngineConfig engine_config_;
  /// The EdgeMM chip, its CC/MC lane dispatcher and the §IV-B bandwidth
  /// manager, constructed in this order (replays depend on it).
  core::ChipTimingModel chip_;
  core::PhaseScheduler scheduler_;
  core::BandwidthManager manager_;
  /// The paired fat backend (GpuBackend on chip_'s simulator); engaged
  /// only when EngineConfig::fat_backend is set.
  std::optional<baselines::GpuBackend> fat_;
  /// Ledgered return wire for offloaded prefills' KV (ChipLink pricing,
  /// conservation-exact); engaged with fat_.
  std::optional<mem::ChipLink> kv_return_link_;
  /// The one KV ledger (see kv_pages()); engaged with a KV budget.
  std::optional<KvPageAllocator> pages_;
  /// pages_ runs page-granular (paged_kv) rather than whole-footprint.
  bool paged_ = false;
  std::optional<WeightResidencyTracker> residency_;

  RequestQueue queue_;
  std::vector<RequestRecord> records_;
  std::unordered_map<RequestId, std::size_t> index_;
  std::unordered_map<std::size_t, PrefillPlan> plans_;  ///< by record index
  /// Projected vision tokens and shared-prefix KV in DRAM, outside the
  /// CIM KV budget.
  ConversationCache conversations_;
  std::vector<std::size_t> decode_ready_;   ///< prefilled, awaiting a slot
  std::vector<std::size_t> active_;         ///< current decode batch
  /// Preempted-to-DRAM requests in preemption order (paged mode); they
  /// sit out decode steps until refill_swapped restores their pages.
  std::vector<std::size_t> kv_swapped_;
  std::vector<KvPagingState> kv_paging_;    ///< by record index
  std::vector<ModelState> per_model_;
  /// on_decode_step_done's survivor list, swapped with active_ each step.
  std::vector<std::size_t> still_active_;

  CompletionCallback on_complete_;
  bool ran_ = false;
  /// A decode step is queued or running: set at submission, cleared by
  /// its done callback just before it starts the next. The MC lane holds
  /// at most one step.
  bool decode_step_pending_ = false;
  std::size_t total_ = 0;
  std::size_t completed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t inflight_ = 0;
  /// The replay's result, whose engine-owned counters and ledgers are
  /// incremented in place; run() fills in the rest and returns it.
  ServingResult result_;
  /// The CC backlog: bytes of admitted chunks that have neither retired
  /// nor left for the fat backend. Moved only by admission, price_chunk
  /// and those two exits; drains to exactly 0 (asserted in run()).
  Bytes cc_pending_bytes_ = 0;
  /// Full-precision-equivalent twin of cc_pending_bytes_, which the queue-
  /// delay and service estimates divide by the (full-equivalent)
  /// estimators so a degraded co-tenant cannot skew admission math; the
  /// rebalance reads the actual bytes.
  Bytes cc_pending_full_bytes_ = 0;
  /// accuracy_for memo: (model index, quantized keep) -> agreement.
  std::unordered_map<std::uint64_t, double> accuracy_memo_;
  std::size_t batch_occupancy_sum_ = 0;
  Cycle step_started_ = 0;
};

/// Result + records of a one-shot replay (replay_trace below).
struct ReplayOutcome {
  ServingResult result;
  std::vector<RequestRecord> records;
};

/// Constructs an engine on a fresh chip, replays `requests`, and returns
/// the outcome. The engine never escapes, so the one-replay-per-chip
/// contract cannot be violated at runtime.
ReplayOutcome replay_trace(const core::ChipConfig& config,
                           std::vector<model::MllmConfig> models,
                           EngineConfig engine_config,
                           std::vector<Request> requests,
                           ServingEngine::CompletionCallback on_complete = {});

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_SERVING_ENGINE_HPP
