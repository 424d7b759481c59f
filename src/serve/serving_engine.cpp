#include "serve/serving_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "core/timing.hpp"
#include "model/workload.hpp"

namespace edgemm::serve {

using core::GemmWork;
using core::Lane;

namespace {

/// Folds one measurement into an online throughput/step-duration
/// estimator (EWMA).
void fold(double& estimate, double observed) {
  constexpr double kGain = 0.25;
  estimate = (1.0 - kGain) * estimate + kGain * observed;
}

/// Validates before the chip is built: an invalid composition throws
/// without paying for the clusters.
EngineConfig validated(EngineConfig config) {
  config.validate();
  return config;
}

}  // namespace

ServingEngine::ServingEngine(const core::ChipConfig& config,
                             std::vector<model::MllmConfig> models,
                             EngineConfig engine_config)
    : config_(config),
      models_(std::move(models)),
      engine_config_(validated(std::move(engine_config))),
      chip_(config_, core::ChipComposition::kHeterogeneous,
            engine_config_.replay_mode()),
      scheduler_(chip_),
      manager_(config_, core::BandwidthPolicy{}) {
  if (models_.empty()) {
    throw std::invalid_argument("ServingEngine: no models to serve");
  }
  if (engine_config_.paged_kv()) {
    // A page smaller than one token's K+V would charge the budget less
    // than the KV it holds.
    for (const model::MllmConfig& m : models_) {
      if (engine_config_.kv_page_bytes() < model::kv_bytes_per_token(m)) {
        throw std::invalid_argument(
            "ServingEngine: kv_page_bytes is smaller than one token's KV of "
            "a served model");
      }
    }
  }
  if (engine_config_.kv_capacity() > 0) {
    // Whole-footprint mode reserves byte-granular footprints: a 1-byte
    // page, so a join charges exactly kv_footprint_bytes.
    paged_ = engine_config_.paged_kv();
    pages_.emplace(engine_config_.kv_capacity(),
                   paged_ ? engine_config_.kv_page_bytes() : 1);
  }
  if (engine_config_.weight_residency() > 0) {
    // EngineConfig::validate() already guaranteed a residency-capable
    // planner; here the budget meets the chip: it must stay within the
    // modeled oversubscription of the physical CC scratchpad.
    if (engine_config_.weight_residency() >
        chip_weight_residency_capacity(config_,
                                       kMaxWeightResidencyOversubscription)) {
      throw std::invalid_argument(
          "ServingEngine: weight_residency_bytes exceeds "
          "kMaxWeightResidencyOversubscription x the chip's CC TCDM "
          "(size budgets with chip_weight_residency_capacity)");
    }
    residency_.emplace(engine_config_.weight_residency());
    if (engine_config_.prefill_planner().prefers_lane_affinity()) {
      scheduler_.set_affinity_chaining(Lane::kCcStage, true);
    }
  }

  // Per-model state: the decode keep fraction (the §IV-A task-proxy
  // derivation when enabled), the pin granularity, and the closed-form
  // decode traffic that sizes the MC side of the interval rebalance
  // without building op lists per tick. The policy estimators seed
  // analytically and converge onto the model's own measurements.
  const double cc_seed = std::max(config_.dram.bytes_per_cycle * 0.5, 1e-6);
  per_model_.reserve(models_.size());
  for (const model::MllmConfig& m : models_) {
    ModelState& s = per_model_.emplace_back();
    s.keep_fraction =
        engine_config_.task_proxy_pruning()
            ? derive_keep_fraction(m, *engine_config_.task_proxy_pruning())
            : 1.0;
    s.layer_weight_bytes = llm_layer_group_bytes(m, config_);
    const model::DecodeStepTraffic traffic =
        model::decode_step_traffic(m, s.keep_fraction, config_.mc_elem_bytes);
    s.decode_shared_bytes = static_cast<double>(traffic.shared);
    s.decode_request_bytes = static_cast<double>(traffic.per_request);
    s.decode_kv_slope = static_cast<double>(traffic.kv_slope);
    s.cc_bytes_per_cycle_est = cc_seed;
    const double step_bytes = s.decode_shared_bytes + s.decode_request_bytes +
                              s.decode_kv_slope * 512.0;
    s.decode_step_cycles_est = std::max(1.0, step_bytes / s.cc_bytes_per_cycle_est);
  }

  // Heterogeneous pair: the fat backend shares the chip's simulator (one
  // clock) and its KV return wire is a ledgered ChipLink.
  if (engine_config_.fat_backend()) {
    fat_.emplace(chip_.simulator(), *engine_config_.fat_backend(),
                 config_.clock_hz);
    kv_return_link_.emplace(config_.chip_link_bytes_per_cycle,
                            config_.chip_link_latency);
  }
}

void ServingEngine::set_completion_callback(CompletionCallback callback) {
  on_complete_ = std::move(callback);
}

ServingResult ServingEngine::run(std::vector<Request> requests) {
  if (ran_) {
    throw std::logic_error("ServingEngine::run: engine instances are one-shot");
  }
  ran_ = true;
  if (requests.empty()) {
    throw std::invalid_argument("ServingEngine::run: empty trace");
  }
  records_.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.input_tokens == 0 || r.output_tokens == 0 || r.crops == 0) {
      throw std::invalid_argument("ServingEngine::run: zero-length request");
    }
    if (r.model >= models_.size()) {
      throw std::invalid_argument("ServingEngine::run: model index out of range");
    }
    if (r.prefix_tokens > r.input_tokens) {
      throw std::invalid_argument(
          "ServingEngine::run: prefix_tokens exceeds input_tokens");
    }
    if (paged_ && r.prefix_id > kMaxKvPrefixId) {
      // A wider id would spill into kv_prefix_key's model word and share
      // another model's prefix pages.
      throw std::invalid_argument(
          "ServingEngine::run: prefix_id exceeds kMaxKvPrefixId");
    }
    if (pages_) {
      const std::size_t footprint =
          paged_ ? kv_page_footprint(r, models_[r.model],
                                     engine_config_.kv_page_bytes(),
                                     engine_config_.kv_prefix_sharing())
                 : kv_footprint_bytes(r, models_[r.model]);
      if (footprint > pages_->total_pages()) {
        throw std::invalid_argument(
            "ServingEngine::run: request KV footprint exceeds the KV budget "
            "(it could never reach its last token)");
      }
    }
    if (!index_.emplace(r.id, records_.size()).second) {
      throw std::invalid_argument("ServingEngine::run: duplicate request id");
    }
    conversations_.add(r);
    records_.push_back(RequestRecord{r});
  }
  total_ = records_.size();
  if (pages_) kv_paging_.assign(total_, KvPagingState{});

  sim::Simulator& sim = chip_.simulator();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    sim.schedule_at(records_[i].request.arrival, [this, i] { on_arrival(i); });
  }
  // PMC throttles are always armed (§IV-B); start from the default equal
  // partition and let the interval rebalancer shift it.
  manager_.apply_equal_sharing(chip_);
  if (engine_config_.manage_bandwidth()) {
    schedule_rebalance(config_.dma.throttle_interval);
  }
  sim.run();
  EDGEMM_ASSERT_MSG(completed_ + rejected_ == total_,
                    "ServingEngine: trace replay left unfinished requests");
  // Every admitted chunk's bytes left the CC backlog exactly once, at
  // retirement or offload, at the price they were last charged.
  EDGEMM_ASSERT_MSG(cc_pending_bytes_ == 0 && cc_pending_full_bytes_ == 0,
                    "ServingEngine: CC backlog bytes left past the replay");

  // --- Aggregate metrics ---------------------------------------------------
  // The engine's own counters already sit in result_; fill in the trace
  // summary and the fields the chip, allocator and trackers own.
  ServingResult& result = result_;
  static_cast<TraceSummary&>(result) =
      summarize_trace(records_, config_.clock_hz);
  result.dram_utilization = chip_.dram().utilization();
  result.mean_decode_batch =
      result.decode_steps > 0
          ? static_cast<double>(batch_occupancy_sum_) /
                static_cast<double>(result.decode_steps)
          : 0.0;
  result.prefill_jobs = scheduler_.dispatched(Lane::kCcStage);
  result.max_cc_queue_delay_ms = cycles_to_ms(
      scheduler_.lane_stats(Lane::kCcStage).max_queue_wait, config_.clock_hz);
  if (pages_) {
    // Every page allocated over the replay was freed: none resident, none
    // stranded in DRAM, no preempted request still awaiting refill.
    EDGEMM_ASSERT_MSG(pages_->holders() == 0 && pages_->resident_pages() == 0 &&
                          pages_->swapped_pages() == 0 && kv_swapped_.empty(),
                      "ServingEngine: KV pages leaked past the replay");
    // Every byte the allocator re-fetched from DRAM rode a decode step as
    // MC-lane DMA: nothing is left pending and the two ledgers agree.
    EDGEMM_ASSERT_MSG(
        result.kv_swap_dma_bytes == pages_->swap_refetch_bytes(),
        "ServingEngine: swap refills left unpriced past the replay");
    result.kv_deferrals = pages_->deferrals();
    result.peak_kv_reserved_bytes = pages_->peak_resident_bytes();
  }
  if (paged_) {
    result.kv_pages_allocated = pages_->pages_allocated();
    result.kv_pages_freed = pages_->pages_freed();
    result.kv_shared_attaches = pages_->shared_attaches();
    result.kv_shared_pages_saved = pages_->shared_pages_saved();
    result.kv_pages_swapped_out = pages_->pages_swapped_out();
    result.kv_pages_swapped_in = pages_->pages_swapped_in();
    result.kv_swap_refetch_bytes = pages_->swap_refetch_bytes();
    result.kv_swap_preemptions = pages_->preemptions();
  }
  if (residency_) {
    // Pins kept warm by the placement policy outlive their last rider:
    // flush them, then assert no live attach leaked past the replay.
    result.placement_evictions = residency_->idle_evictions();
    residency_->evict_all_idle();
    EDGEMM_ASSERT_MSG(residency_->holders() == 0 && residency_->pinned() == 0,
                      "ServingEngine: weight pins leaked past the replay");
    result.weight_pins = residency_->pins();
    result.weight_pin_fallbacks = residency_->fallbacks();
    result.weight_shared_attaches = residency_->shared_attaches();
    result.weight_warm_attaches = residency_->warm_attaches();
    result.peak_pinned_bytes = residency_->peak_pinned();
  }
  if (fat_) {
    result.fat_bytes_moved = fat_->bytes_moved();
    result.fat_kernel_launches = fat_->kernel_launches();
    result.fat_busy_fraction =
        result.makespan > 0
            ? static_cast<double>(fat_->busy_cycles()) /
                  static_cast<double>(result.makespan)
            : 0.0;
  }
  if (kv_return_link_) {
    // Every return transfer schedules its landing event, so the drained
    // simulator's clock sits at or past the last arrival: in_flight must
    // probe to zero and sent == landed + in_flight holds exactly.
    const Cycle probe_at = chip_.simulator().now();
    result.kv_return_transfers = kv_return_link_->transfers().size();
    result.kv_return_bytes_sent = kv_return_link_->bytes_sent_by(probe_at);
    result.kv_return_bytes_landed = kv_return_link_->bytes_landed_by(probe_at);
    result.kv_return_bytes_in_flight =
        kv_return_link_->bytes_in_flight_at(probe_at);
    result.kv_return_max_queue_ms =
        cycles_to_ms(kv_return_link_->max_queue_wait(), config_.clock_hz);
  }
  // Quality ledger: the accuracy proxy of each completed request at the
  // fraction it finished at (memoized per (model, fraction)).
  {
    double acc_sum = 0.0;
    double acc_min = 1.0;
    std::size_t done_count = 0;
    for (const RequestRecord& rec : records_) {
      if (!rec.done) continue;
      const double acc =
          accuracy_for(rec.request.model, rec.keep_fraction_served);
      acc_sum += acc;
      acc_min = std::min(acc_min, acc);
      ++done_count;
    }
    result.accuracy_proxy_mean =
        done_count > 0 ? acc_sum / static_cast<double>(done_count) : 1.0;
    result.accuracy_proxy_min = done_count > 0 ? acc_min : 1.0;
  }
  return result;
}

OffloadTarget ServingEngine::judge_offload(std::size_t index) {
  if (!fat_) return OffloadTarget::kLocal;  // nowhere to offload to
  OffloadContext ctx;
  ctx.local_queued = scheduler_.queued(Lane::kCcStage);
  ctx.fat_queued = fat_->queued();
  return engine_config_.offload_policy().place_chunk(records_[index].request,
                                                     ctx);
}

void ServingEngine::on_arrival(std::size_t index) {
  queue_.push(records_[index].request);
  ++per_model_[records_[index].request.model].queued;
  result_.peak_queue_depth =
      std::max(result_.peak_queue_depth, queue_.size());
  pump_admission();
}

ServingEngine::PrefillPlan& ServingEngine::plan_for(std::size_t index) {
  const auto it = plans_.find(index);
  if (it != plans_.end()) return it->second;

  const Request& r = records_[index].request;
  PrefillPlan& plan = plans_.emplace(index, PrefillPlan{}).first->second;
  plan.built_keep = prefill_keep(index);
  // Admission is FIFO, so every earlier turn of the conversation is
  // already resolved; the suffix attends over the prefix KV as a later
  // chunk attends over earlier chunks'.
  plan.reuse = conversations_.reuse(r);
  plan_chunks(index, plan);
  plan.route = route_of(plan);
  return plan;
}

ServingEngine::PrefillRoute ServingEngine::route_of(
    const PrefillPlan& plan) const {
  // Everything this reads is fixed by admission order, so both tiers
  // route the same plans.
  if (engine_config_.phase() != EnginePhase::kFull ||
      !plan.reuse.encoder_cached || plan.reuse.prefix_skip == 0 ||
      plan.chunks.size() != 1) {
    return PrefillRoute::kCc;
  }
  // The decode step already fetches the model's INT8 weights once for
  // its batch, so the suffix's rows cost the MC lane only CIM compute;
  // on the CC lane the same chunk streams all of its bytes from DRAM.
  const core::ChipTimingModel::ClusterSet& mc =
      scheduler_.lane_clusters(Lane::kMcDecode);
  double mc_cycles = 0.0;
  for (GemmWork op : plan.chunks.front().ops) {
    if (op.weight_elem_bytes_override != 0) continue;  // KV streams
    op.weights_resident = true;
    mc_cycles += static_cast<double>(mc.front()->compute_cycles(
        core::ChipTimingModel::partition(op, mc.size()).front()));
  }
  const double cc_dram_cycles =
      static_cast<double>(plan.total_bytes) / config_.dram.bytes_per_cycle;
  return mc_cycles < cc_dram_cycles ? PrefillRoute::kMcSuffix
                                    : PrefillRoute::kCc;
}

void ServingEngine::plan_chunks(std::size_t index, PrefillPlan& plan) {
  // Only a plan that nothing else accounts for yet may be (re)built.
  EDGEMM_ASSERT(!plan.in_backlog && !plan.pin_attached && plan.next == 0);
  plan.chunks.clear();
  plan.total_bytes = 0;
  plan.total_full_bytes = 0;
  Request suffix = records_[index].request;
  suffix.input_tokens -= plan.reuse.prefix_skip;
  const std::vector<std::size_t> chunk_tokens =
      engine_config_.prefill_planner().plan(suffix);
  std::size_t planned = 0;
  for (const std::size_t tokens : chunk_tokens) planned += tokens;
  if (chunk_tokens.empty() || planned != suffix.input_tokens ||
      std::find(chunk_tokens.begin(), chunk_tokens.end(), 0u) !=
          chunk_tokens.end()) {
    throw std::logic_error(
        "ServingEngine: PrefillPlanner returned an invalid plan (chunks must "
        "be positive and sum to input_tokens)");
  }
  plan.chunks.reserve(chunk_tokens.size());
  for (const std::size_t tokens : chunk_tokens) {
    plan.chunks.emplace_back().tokens = tokens;
    price_chunk(index, plan, plan.chunks.size() - 1, /*ride_pin=*/true);
  }
}

void ServingEngine::price_chunk(std::size_t index, PrefillPlan& plan,
                                std::size_t chunk, bool ride_pin) {
  EDGEMM_ASSERT(chunk + 1 >= plan.next);  // never a chunk that already left
  const Request& r = records_[index].request;
  PrefillChunk& job = plan.chunks[chunk];
  job.ops = build_chunk_ops(r, plan, chunk, ride_pin, plan.built_keep);
  // The CC lane's clusters are homogeneous: the front one's cost tables
  // price the whole job.
  const core::ClusterTimingModel& cc =
      *scheduler_.lane_clusters(Lane::kCcStage).front();
  const Bytes bytes = core::estimated_traffic_bytes(cc, job.ops);
  const Bytes full =
      plan.built_keep < 1.0
          ? core::estimated_traffic_bytes(
                cc, build_chunk_ops(r, plan, chunk, ride_pin, 1.0))
          : bytes;
  plan.total_bytes = plan.total_bytes - job.bytes + bytes;
  plan.total_full_bytes = plan.total_full_bytes - job.full_bytes + full;
  if (plan.in_backlog) {
    cc_pending_bytes_ = cc_pending_bytes_ - job.bytes + bytes;
    cc_pending_full_bytes_ = cc_pending_full_bytes_ - job.full_bytes + full;
  }
  job.bytes = bytes;
  job.full_bytes = full;
  job.weight_fetch_bytes = 0;
  job.weight_resident_bytes = 0;
  for (const GemmWork& op : job.ops) {
    if (op.weight_elem_bytes_override != 0) continue;
    const Bytes weights =
        static_cast<Bytes>(op.k) * op.n * config_.cc_elem_bytes;
    if (op.weights_resident) {
      job.weight_resident_bytes += weights;
    } else {
      job.weight_fetch_bytes += weights;
    }
  }
}

double ServingEngine::prefill_keep(std::size_t index) const {
  // The static engine never pruned prefill (only decode), so prefill
  // shapes only shrink when a request is actively DEGRADED below its
  // static fraction — a fraction at or above it streams full weights.
  const RequestRecord& rec = records_[index];
  const double base = per_model_[rec.request.model].keep_fraction;
  return rec.keep_fraction_served < base ? rec.keep_fraction_served : 1.0;
}

double ServingEngine::judge_quality(std::size_t index) {
  const RequestRecord& rec = records_[index];
  const Request& r = rec.request;
  const double base = per_model_[r.model].keep_fraction;
  const double cc_est = per_model_[r.model].cc_bytes_per_cycle_est;
  QualityContext ctx;
  ctx.now = chip_.simulator().now();
  ctx.queue_depth = queue_.size();
  ctx.deadline = r.deadline;
  ctx.base_keep = base;
  ctx.current_keep = rec.keep_fraction_served;
  ctx.min_keep = engine_config_.quality_min_keep();
  ctx.max_keep = engine_config_.quality_max_keep();
  // Estimated finish: the CC backlog ahead (an admitted plan's own
  // chunks included) plus the request's remaining service, in full-
  // precision-equivalent bytes so the signal is about load, not about
  // how degraded the backlog already is.
  const double remaining =
      static_cast<double>(cc_pending_full_bytes_) / cc_est +
      remaining_service(index);
  ctx.estimated_finish = ctx.now + static_cast<Cycle>(remaining);
  const double raw = engine_config_.quality().keep_fraction(r, ctx);
  if (!std::isfinite(raw)) {
    throw std::logic_error(
        "ServingEngine: QualityPolicy returned a non-finite keep fraction");
  }
  // The effective band is the configured one widened to include the
  // static fraction, so StaticQuality always passes through unclamped.
  const double lo = std::min(ctx.min_keep, base);
  const double hi = std::max(ctx.max_keep, base);
  return std::clamp(raw, lo, hi);
}

void ServingEngine::apply_quality(std::size_t index, double served) {
  RequestRecord& rec = records_[index];
  const double base = per_model_[rec.request.model].keep_fraction;
  const bool was_degraded = rec.keep_fraction_served < base;
  const bool now_degraded = served < base;
  if (!was_degraded && now_degraded) ++result_.quality_downgrades;
  if (was_degraded && !now_degraded) ++result_.quality_restores;
  rec.keep_fraction_served = served;
  const auto it = plans_.find(index);
  if (it == plans_.end()) return;  // decode-only tier: no prefill to reshape
  PrefillPlan& plan = it->second;
  const double want = prefill_keep(index);
  if (plan.built_keep == want) return;
  plan.built_keep = want;
  // Reshape only the unsubmitted tail; in-flight and retired chunks
  // already streamed at their judged fraction.
  for (std::size_t c = plan.next; c < plan.chunks.size(); ++c) {
    price_chunk(index, plan, c, /*ride_pin=*/true);
  }
}

double ServingEngine::accuracy_for(std::size_t model, double keep) {
  if (keep >= 1.0) return 1.0;  // nothing pruned, agreement exact
  const std::uint64_t key =
      (static_cast<std::uint64_t>(model) << 32) ^
      static_cast<std::uint64_t>(std::llround(keep * 1048576.0));
  const auto it = accuracy_memo_.find(key);
  if (it != accuracy_memo_.end()) return it->second;
  const TaskProxyPruningOptions options =
      engine_config_.task_proxy_pruning() ? *engine_config_.task_proxy_pruning()
                                          : TaskProxyPruningOptions{};
  const double acc = quality_accuracy_proxy(models_[model], keep, options);
  accuracy_memo_.emplace(key, acc);
  return acc;
}

std::vector<GemmWork> ServingEngine::build_chunk_ops(
    const Request& r, const PrefillPlan& plan, std::size_t chunk,
    bool ride_pin, double ffn_keep) const {
  const model::MllmConfig& m = models_[r.model];
  std::size_t start = plan.reuse.prefix_skip;
  for (std::size_t c = 0; c < chunk; ++c) start += plan.chunks[c].tokens;
  // The first chunk carries the encoder + projector ops in front of its
  // prefill slice (and always fetches — it is what fills the pin), unless
  // the conversation's image is already encoded in DRAM.
  std::vector<GemmWork> ops = chunk == 0 && !plan.reuse.encoder_cached
                                  ? model::build_encoder_ops(m, r.crops)
                                  : std::vector<GemmWork>{};
  // !ride_pin builds a barrier re-fetch: a rider dispatched before the
  // pin's fill landed streams the whole pin's weights itself.
  const std::size_t resident =
      ride_pin && chunk >= plan.first_resident_chunk ? plan.resident_layers
                                                     : 0;
  // Pinned layer groups keep full FFN shapes whatever the quality seam
  // judged (full_keep_layers): the pin holds — and its fill/barrier
  // byte math assumes — the FULL weights, so a degraded request's
  // pruning only shrinks the layers it actually streams.
  const auto body = model::build_prefill_chunk(
      m, start, plan.chunks[chunk].tokens, r.input_tokens, resident, ffn_keep,
      /*full_keep_layers=*/plan.resident_layers);
  ops.insert(ops.end(), body.begin(), body.end());
  return model::aggregate_ops(ops);
}

PlacementContext ServingEngine::placement_context() const {
  PlacementContext ctx;
  ctx.capacity = residency_->capacity();
  ctx.models.reserve(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelDemand d;
    d.queued = per_model_[m].queued;
    d.inflight = per_model_[m].inflight;
    d.resident_layers = residency_->resident_layers(m);
    d.idle_resident = d.resident_layers > 0 && residency_->refcount(m) == 0;
    d.pinned_bytes =
        static_cast<Bytes>(d.resident_layers) * per_model_[m].layer_weight_bytes;
    d.layer_group_bytes = per_model_[m].layer_weight_bytes;
    d.total_layers = models_[m].llm.layers;
    ctx.models.push_back(d);
  }
  return ctx;
}

bool ServingEngine::maybe_pin_weights(std::size_t index,
                                      std::size_t next_chunk) {
  if (!residency_) return false;
  PrefillPlan& plan = plans_.at(index);
  if (plan.pin_attached) return false;  // already riding a pin
  const Request& r = records_[index].request;
  // Pins are keyed by model and refcounted. A fresh pin is filled by
  // next_chunk's fetch, so only the chunks after it ride (no tail, no
  // pin); an existing pin, live or kept warm, rides from next_chunk on.
  const bool rides_existing = residency_->resident_layers(r.model) > 0;
  const std::size_t first_resident =
      rides_existing ? next_chunk : next_chunk + 1;
  if (first_resident >= plan.chunks.size()) return false;
  const std::size_t total_layers = models_[r.model].llm.layers;
  if (!rides_existing) {
    // Residency-aware placement guards every budget-charging attach
    // (riders are never guarded: sharing resident bytes is free). A
    // denied model keeps re-fetching; an allowed one under budget
    // pressure may first reclaim idle kept-warm pins of colder models.
    const PlacementContext ctx = placement_context();
    if (!engine_config_.placement().may_acquire(r.model, ctx)) {
      // One count per denied REQUEST, not per retry: the late-pin seam
      // re-asks at every remaining chunk.
      if (!plan.placement_denied) {
        plan.placement_denied = true;
        ++result_.placement_denials;
      }
      return false;
    }
    const Bytes want =
        static_cast<Bytes>(total_layers) * per_model_[r.model].layer_weight_bytes;
    if (residency_->available() < want) {
      const Bytes needed = want - residency_->available();
      for (const std::size_t victim :
           engine_config_.placement().evict_victims(r.model, needed, ctx)) {
        // Only idle pins are evictable; live riders are never torn down.
        if (victim < models_.size() && victim != r.model &&
            ctx.models[victim].idle_resident) {
          residency_->evict_idle(victim);
        }
      }
    }
  }
  const auto attach = residency_->attach_layers(
      r.model, per_model_[r.model].layer_weight_bytes, total_layers);
  if (attach.layers == 0) return false;  // budget contended: keep re-fetching
  plan.pin_attached = true;
  plan.pin_owner = !attach.shared;
  if (plan.pin_owner) plan.fill_chunk = next_chunk;
  plan.resident_layers = attach.layers;
  plan.first_resident_chunk = first_resident;
  records_[index].weight_pinned_layers = attach.layers;
  // Re-price the unsubmitted tail, whose pinned layer groups drop their
  // weight stream. A degraded request re-prices the fill chunk too: its
  // pinned layers must stream the full weights that land in the pin.
  const std::size_t rebuild_from =
      plan.built_keep < 1.0 ? next_chunk : first_resident;
  for (std::size_t c = rebuild_from; c < plan.chunks.size(); ++c) {
    price_chunk(index, plan, c, /*ride_pin=*/true);
  }
  return true;
}

void ServingEngine::drop_plan(std::size_t index) {
  // The single exit point for prefill plans, so an attached pin can never
  // outlive its request.
  const auto it = plans_.find(index);
  if (it == plans_.end()) return;
  if (it->second.pin_attached) {
    const std::size_t model = records_[index].request.model;
    bool keep_resident = false;
    if (residency_->refcount(model) == 1) {
      // Last rider detaching: the placement policy keeps the bytes as an
      // idle warm pin (evict_victims reclaims it later) or lets them go.
      keep_resident =
          engine_config_.placement().retain_idle(model, placement_context());
    }
    residency_->detach(model, keep_resident);
  }
  plans_.erase(it);
}

AdmissionContext ServingEngine::admission_context(std::size_t index) {
  const Request& r = records_[index].request;
  // The candidate is judged against ITS model's estimators: a heavy
  // co-tenant's slow decode steps never inflate a light model's
  // estimated_service (the multi-model-zoo SLO fix).
  const double cc_est = per_model_[r.model].cc_bytes_per_cycle_est;
  AdmissionContext ctx;
  ctx.now = chip_.simulator().now();
  ctx.inflight = inflight_;
  // Backlog and service are priced in FULL-precision-equivalent bytes —
  // the estimator's unit (see the on_chunk_done fold): a degraded
  // backlog must not look like a faster lane to the admission judgment.
  // Identical to the actual-bytes ledger when nothing is degraded.
  ctx.estimated_queue_delay =
      static_cast<Cycle>(static_cast<double>(cc_pending_full_bytes_) / cc_est);
  ctx.estimated_service = static_cast<Cycle>(remaining_service(index));
  return ctx;
}

double ServingEngine::remaining_service(std::size_t index) {
  const RequestRecord& rec = records_[index];
  const Request& r = rec.request;
  // A phase-split engine only does the work its tier owns, so only that
  // share is charged: a decode chip never plans (or pays for) a
  // prefill, a prefill chip retires at prefill end. A plan already in
  // the CC backlog is charged there, not here.
  double prefill_cycles = 0.0;
  if (engine_config_.phase() != EnginePhase::kDecodeOnly) {
    // An MC-lane suffix adds rows to a decode step, not a CC job.
    const PrefillPlan& plan = plan_for(index);
    if (!plan.in_backlog && plan.route != PrefillRoute::kMcSuffix) {
      prefill_cycles = static_cast<double>(plan.total_full_bytes) /
                       per_model_[r.model].cc_bytes_per_cycle_est;
    }
  }
  double decode_cycles = 0.0;
  if (engine_config_.phase() != EnginePhase::kPrefillOnly) {
    decode_cycles =
        static_cast<double>(r.output_tokens - rec.tokens_generated) *
        per_model_[r.model].decode_step_cycles_est;
  }
  return prefill_cycles + decode_cycles;
}

void ServingEngine::pump_admission() {
  sim::Simulator& sim = chip_.simulator();
  bool suffix_queued = false;
  while (queue_.ready(sim.now())) {
    const std::size_t index = index_.at(queue_.front().id);
    AdmissionVerdict verdict = engine_config_.scheduler().admit(
        records_[index].request, admission_context(index));
    // KV hand-off contract: a decode tier's request arrives with its KV
    // already across the chip link, so the tier never rejects; it defers
    // until the hand-off reservation below fits.
    if (engine_config_.phase() == EnginePhase::kDecodeOnly &&
        verdict == AdmissionVerdict::kReject) {
      verdict = AdmissionVerdict::kAdmit;
    }
    // Progress guarantee: a policy may not starve an idle chip.
    if (verdict == AdmissionVerdict::kDefer && inflight_ == 0) {
      verdict = AdmissionVerdict::kAdmit;
    }
    if (verdict == AdmissionVerdict::kDefer) break;
    if (verdict == AdmissionVerdict::kAdmit &&
        engine_config_.phase() == EnginePhase::kDecodeOnly && pages_) {
      // Hand-off reservation: the migrated KV's bytes are charged the
      // moment the decode tier accepts the request, so the decode batch
      // can never turn it away later. If it does not fit yet, the whole
      // admission defers until a retirement frees KV.
      if (!kv_join_reserve(index)) {
        if (inflight_ > 0) break;
        // An idle decode chip holds no KV (only admitted requests hold
        // any here), and per-request footprints were validated against
        // the budget — an empty ledger must fit one request.
        EDGEMM_ASSERT_MSG(
            false, "ServingEngine: hand-off reservation failed on an idle chip");
      }
    }
    const Request r = queue_.pop();
    --per_model_[r.model].queued;
    RequestRecord& rec = records_[index];
    if (verdict == AdmissionVerdict::kReject) {
      rec.rejected = true;
      ++rejected_;
      drop_plan(index);
      continue;
    }

    ++inflight_;
    ++per_model_[r.model].inflight;
    rec.admitted = sim.now();
    rec.prune_keep_fraction = per_model_[r.model].keep_fraction;
    // The request enters at its static fraction. Its one admission-time
    // quality judgment is chunk 0's (submit_next_chunk), made once the
    // plan is in the CC backlog; a decode tier, which has no chunks, is
    // judged here.
    rec.keep_fraction_served = per_model_[r.model].keep_fraction;
    if (engine_config_.phase() == EnginePhase::kDecodeOnly) {
      apply_quality(index, judge_quality(index));
      // Disaggregated decode tier: the KV cache arrived finished from a
      // prefill chip (the request's arrival IS the KV landing), so the
      // request joins the decode batch with no CC-lane work at all.
      rec.prefill_start = sim.now();
      on_prefill_done(index);
      continue;
    }
    PrefillPlan& plan = plan_for(index);
    // Chunk 0's backend is judged HERE so pinning can be skipped for a
    // fat start: EdgeMM weight residency means nothing to a backend
    // that re-streams weights per launch. Without a fat backend the
    // judgment is kLocal without consulting the policy.
    if (judge_offload(index) == OffloadTarget::kFat) {
      // The fat backend never saw the conversation's encoded image or
      // prefix KV: an offloaded start encodes and prefills the whole
      // prompt itself. Unpinned and outside the backlog, so the plan is
      // simply rebuilt.
      plan.route = PrefillRoute::kFat;
      if (plan.reuse != ConversationCache::Reuse{}) {
        plan.reuse = {};
        plan_chunks(index, plan);
      }
    }
    // The route is final: count what the plan reuses.
    if (plan.reuse.encoder_cached) ++result_.encoder_cache_hits;
    if (plan.reuse.prefix_skip > 0) ++result_.prefix_cache_hits;
    if (plan.route == PrefillRoute::kMcSuffix) {
      // The suffix rides the MC decode batch (start_decode_step): it
      // never enters the CC backlog or pins, and like a decode tier's
      // request it is judged once, here.
      apply_quality(index, judge_quality(index));
      ++result_.mc_suffix_prefills;
      decode_ready_.push_back(index);
      suffix_queued = true;
      continue;
    }
    rec.prefill_chunks = plan.chunks.size();
    if (plan.route == PrefillRoute::kCc) {
      // Weight-resident chunk chaining: attach to the model's shared pin
      // (its weights are already on chip — every chunk rides), or pin the
      // layer groups fresh before chunk 0 fetches them so chunks 1.. skip
      // their weight DMA. A failed pin just re-fetches.
      maybe_pin_weights(index, /*next_chunk=*/0);
    }
    // The plan enters the CC backlog; from here on its chunks leave it
    // only at retirement or offload, and price_chunk moves it.
    cc_pending_bytes_ += plan.total_bytes;
    cc_pending_full_bytes_ += plan.total_full_bytes;
    plan.in_backlog = true;
    submit_next_chunk(index);
  }
  // A suffix admitted onto the MC lane has no CC job to wait for.
  if (suffix_queued) kick_decode();
}

void ServingEngine::submit_next_chunk(std::size_t index) {
  PrefillPlan& plan = plans_.at(index);
  // Per-chunk quality judgment: the chunk streams at the current
  // fraction (chunk 0's is the admission judgment).
  apply_quality(index, judge_quality(index));
  const std::size_t chunk = plan.next++;
  const bool first = chunk == 0;
  // Backend judgment: chunk 0 follows its route, later chunks are judged
  // fresh (chunk boundaries are the offload split points). A pinned
  // request stays local: its fill fetch must land on the EdgeMM chip.
  bool to_fat = false;
  if (fat_) {
    to_fat = first ? plan.route == PrefillRoute::kFat
                   : judge_offload(index) == OffloadTarget::kFat;
    if (plan.pin_attached) to_fat = false;
  }
  // Late pin: budget freed, or a same-model pin appearing, since
  // admission (which tried chunk 0) can still cover the remaining chunks.
  // A request that offloaded any chunk never pins: it may leave again,
  // and its TCDM bytes are budget co-tenants want.
  if (chunk > 0 && residency_ && !plan.pin_attached && !to_fat &&
      plan.offloaded_chunks == 0) {
    maybe_pin_weights(index, chunk);
  }
  // Fill barrier: a rider chunk dispatched before the owner's fill fetch
  // retired re-fetches the whole pin (this chunk only). Owners are exempt:
  // their later chunks are ordered behind the fill chunk.
  if (plan.pin_attached && !plan.pin_owner &&
      chunk >= plan.first_resident_chunk &&
      !residency_->filled(records_[index].request.model) &&
      plan.chunks[chunk].weight_resident_bytes > 0) {
    // The re-fetch is exactly the pinned weight bytes this chunk skips.
    result_.rider_refetch_bytes += plan.chunks[chunk].weight_resident_bytes;
    price_chunk(index, plan, chunk, /*ride_pin=*/false);
  }
  PrefillChunk& job = plan.chunks[chunk];
  auto started = [this, index, first] {
    const Cycle now = chip_.simulator().now();
    plans_.at(index).chunk_started = now;
    if (first) records_[index].prefill_start = now;
  };
  if (to_fat) {
    EDGEMM_ASSERT(!(first && plan.reuse.encoder_cached));
    // Offloaded chunk: it leaves the CC backlog and runs FIFO on the fat
    // backend, whose own cost model prices it (weights re-streamed per
    // launch).
    cc_pending_bytes_ -= job.bytes;
    cc_pending_full_bytes_ -= job.full_bytes;
    plan.current_fat = true;
    ++plan.offloaded_chunks;
    plan.offload_tokens += job.tokens;
    ++result_.offloaded_chunks;
    if (plan.offloaded_chunks == 1) ++result_.offloaded_requests;
    records_[index].offloaded_chunks = plan.offloaded_chunks;
    fat_->submit(std::move(job.ops), [this, index] { on_chunk_done(index); },
                 started);
    return;
  }
  if (first) {
    // A local chunk 0 publishes its conversation's encoding and, when it
    // covers the whole prefix at full keep, the prefix KV for every
    // later turn (offloaded ones never do; a prefix split across chunks
    // would finish after the next chunk 0).
    conversations_.publish(records_[index].request, job.tokens,
                           plan.built_keep);
  }
  // Weight-traffic ledger: resident bytes are the DMA residency avoided.
  result_.cc_weight_fetch_bytes += job.weight_fetch_bytes;
  result_.cc_weight_bytes_saved += job.weight_resident_bytes;
  // Only a pinned request gets an affinity key, and one per request, not
  // per shared pin, so chaining never serializes a model's riders (inert
  // unless the planner chains the lane; +1 keeps id 0 distinct).
  const std::uint64_t affinity =
      plan.pin_attached ? records_[index].request.id + 1 : 0;
  scheduler_.submit(Lane::kCcStage, std::move(job.ops),
                [this, index] { on_chunk_done(index); }, started, affinity);
}

void ServingEngine::on_chunk_done(std::size_t index) {
  PrefillPlan& plan = plans_.at(index);
  const std::size_t chunk = plan.next - 1;
  const Cycle now = chip_.simulator().now();
  const Bytes full = plan.chunks[chunk].full_bytes;
  const bool was_fat = plan.current_fat;
  plan.current_fat = false;
  // A fat chunk's bytes already left the CC backlog at submission.
  if (!was_fat) {
    cc_pending_bytes_ -= plan.chunks[chunk].bytes;
    cc_pending_full_bytes_ -= full;
  }
  // The owner's fill fetch just retired: the pinned bytes are genuinely
  // on chip now, so riders stop re-fetching (fill barrier lifts).
  if (plan.pin_attached && plan.pin_owner && chunk == plan.fill_chunk) {
    residency_->mark_filled(records_[index].request.model);
  }
  // The conversation's prefix KV just landed in DRAM: MC-lane suffixes
  // that waited for it (the only decode-ready requests that still hold
  // a plan) may join.
  if (chunk == 0 && conversations_.retire(records_[index].request) &&
      std::any_of(decode_ready_.begin(), decode_ready_.end(),
                  [this](std::size_t i) { return plans_.contains(i); })) {
    kick_decode();
  }
  // Fold a local chunk's measured throughput into its model's CC
  // estimator (a fat chunk ran on another cost model and folds nowhere).
  // Full-precision-equivalent bytes over the measured cycles: actual
  // bytes would teach the estimator that a degraded chunk's lane got
  // permanently faster. Every consumer divides full-equivalent bytes by
  // it, so the signal stays about the lane, not the degradation.
  if (!was_fat && now > plan.chunk_started && full > 0) {
    fold(per_model_[records_[index].request.model].cc_bytes_per_cycle_est,
         static_cast<double>(full) /
             static_cast<double>(now - plan.chunk_started));
  }
  if (plan.next < plan.chunks.size()) {
    // The next chunk queues behind other requests' jobs: the interleaving
    // that bounds CC-lane head-of-line blocking.
    submit_next_chunk(index);
    return;
  }
  // The prefill retired: detach from the pin (shared bytes stay until the
  // model's last rider detaches).
  const std::size_t return_tokens = plan.offload_tokens;
  drop_plan(index);
  if (return_tokens > 0 && kv_return_link_) {
    // Offloaded prefill: ship the fat backend's KV back over the return
    // wire; the prefill is done when the bytes land.
    const Bytes kv_bytes =
        static_cast<Bytes>(return_tokens) *
        model::kv_bytes_per_token(models_[records_[index].request.model]);
    const Cycle arrival = kv_return_link_->transfer(kv_bytes, now);
    chip_.simulator().schedule_at(arrival,
                                   [this, index] { on_prefill_done(index); });
    return;
  }
  on_prefill_done(index);
}

void ServingEngine::on_prefill_done(std::size_t index) {
  records_[index].prefill_end = chip_.simulator().now();
  if (engine_config_.phase() == EnginePhase::kPrefillOnly) {
    // Disaggregated prefill tier: this chip's job ends here — the KV
    // cache ships to a decode chip, so the request retires with its
    // finish at prefill end and zero tokens generated locally.
    retire(index);
    pump_admission();  // the retired prefill freed admission slots
    return;
  }
  decode_ready_.push_back(index);
  // Continuous batching: if a step is pending, this request joins at the
  // next step boundary; only an idle lane needs a kick.
  kick_decode();
}

bool ServingEngine::kv_join_reserve(std::size_t index) {
  const Request& r = records_[index].request;
  KvPagingState& st = kv_paging_[index];
  if (st.joined) return true;  // hand-off reservation made at admission
  if (!paged_) {
    // Whole footprint: (input + output) tokens reserved up front, never
    // grown or swapped.
    st.joined = pages_->try_join(r.id, kv_footprint_bytes(r, models_[r.model]));
    return st.joined;
  }
  const Bytes page_bytes = engine_config_.kv_page_bytes();
  st.tokens_per_page = kv_tokens_per_page(models_[r.model], page_bytes);
  st.shared_pages =
      engine_config_.kv_prefix_sharing()
          ? kv_shared_prefix_pages(r, models_[r.model], page_bytes)
          : 0;
  st.prefix = st.shared_pages > 0 ? kv_prefix_key(r.model, r.prefix_id) : 0;
  // Only the PROMPT's pages are reserved at join — the tail grows one
  // page per generated-token page boundary (grow_page_tables). This is
  // where paged mode's concurrency headroom comes from: a whole-footprint
  // join charges (input + output) tokens up front.
  const std::size_t private_tokens =
      r.input_tokens - st.shared_pages * st.tokens_per_page;
  const std::size_t private_pages =
      (private_tokens + st.tokens_per_page - 1) / st.tokens_per_page;
  if (!pages_->try_join(r.id, private_pages, st.prefix, st.shared_pages)) {
    return false;
  }
  // The prefix's partial boundary page cannot be shared — the request's
  // first divergent token writes into it — so it was copied into the
  // private table above: a CoW fork.
  if (st.shared_pages > 0 && r.prefix_tokens % st.tokens_per_page != 0) {
    ++result_.kv_cow_forks;
  }
  st.joined = true;
  st.last_touch = chip_.simulator().now();
  return true;
}

void ServingEngine::retire(std::size_t index) {
  RequestRecord& rec = records_[index];
  rec.finish = chip_.simulator().now();
  rec.done = true;
  ++completed_;
  --inflight_;
  --per_model_[rec.request.model].inflight;
  // Release before the callback: it sees the request's KV already freed.
  if (pages_ && kv_paging_[index].joined) {
    pages_->release(rec.request.id);
    kv_paging_[index].joined = false;
  }
  if (on_complete_) on_complete_(rec);
}

void ServingEngine::refill_swapped() {
  // Strictly FIFO in preemption order: a preempted request must not be
  // overtaken by a later, smaller one — swap is preempt-AND-REFILL, not
  // a second deferral queue.
  while (!kv_swapped_.empty()) {
    const std::size_t index = kv_swapped_.front();
    if (!pages_->try_swap_in(records_[index].request.id)) break;
    kv_paging_[index].last_touch = chip_.simulator().now();
    active_.push_back(index);
    kv_swapped_.erase(kv_swapped_.begin());
  }
}

void ServingEngine::preempt_to_dram(std::size_t active_pos) {
  const std::size_t index = active_[active_pos];
  pages_->swap_out(records_[index].request.id);
  active_.erase(active_.begin() +
                static_cast<std::ptrdiff_t>(active_pos));
  kv_swapped_.push_back(index);
}

bool ServingEngine::preempt_victim(std::size_t& grower_pos) {
  std::size_t victim_pos = active_.size();
  Cycle victim_touch = 0;
  RequestId victim_id = 0;
  for (std::size_t j = 0; j < active_.size(); ++j) {
    if (j == grower_pos) continue;
    const RequestId id = records_[active_[j]].request.id;
    // A prefix-only table has nothing private to evict.
    if (pages_->resident_pages_of(id) == 0) continue;
    const Cycle touch = kv_paging_[active_[j]].last_touch;
    if (victim_pos == active_.size() || touch < victim_touch ||
        (touch == victim_touch && id < victim_id)) {
      victim_pos = j;
      victim_touch = touch;
      victim_id = id;
    }
  }
  if (victim_pos == active_.size()) return false;
  preempt_to_dram(victim_pos);
  if (victim_pos < grower_pos) --grower_pos;
  return true;
}

void ServingEngine::grow_page_tables() {
  const Cycle now = chip_.simulator().now();
  std::size_t i = 0;
  while (i < active_.size()) {
    const std::size_t index = active_[i];
    const Request& r = records_[index].request;
    KvPagingState& st = kv_paging_[index];
    // Pages the table must cover INCLUDING the token this step writes.
    const std::size_t private_tokens = r.input_tokens +
                                       records_[index].tokens_generated + 1 -
                                       st.shared_pages * st.tokens_per_page;
    const std::size_t needed =
        (private_tokens + st.tokens_per_page - 1) / st.tokens_per_page;
    bool grown = true;
    while (pages_->resident_pages_of(r.id) < needed) {
      if (pages_->try_append(r.id)) {
        st.last_touch = now;
        continue;
      }
      if (!preempt_victim(i)) {
        grown = false;
        break;
      }
    }
    if (!grown) {
      // Budget full and no victim left: preempt the grower itself — it
      // sits this step out in DRAM and refills at a later boundary.
      preempt_to_dram(i);
      continue;  // i now addresses the next active entry
    }
    ++i;
  }
}

void ServingEngine::kick_decode() {
  if (!decode_step_pending_) start_decode_step();
}

void ServingEngine::start_decode_step() {
  EDGEMM_ASSERT_MSG(!decode_step_pending_,
                    "ServingEngine: a second decode step on the MC lane");
  // Preempt-and-refill: restore swapped-out requests before admitting
  // new joiners — they were already mid-decode when evicted.
  if (paged_) refill_swapped();
  if (!decode_ready_.empty()) {
    engine_config_.batch_policy().order_joiners(decode_ready_, records_);
  }
  const std::size_t join = engine_config_.scheduler().decode_join_count(
      active_.size(), decode_ready_.size());
  // Under prefix sharing a rider of a held prefix run costs only its
  // private pages: riders try first (pass 0, which records each joiner's
  // class), then the rest (pass 1), each class in the policy's order.
  const bool riders_first = paged_ && engine_config_.kv_prefix_sharing();
  std::size_t joined = 0;
  for (int pass = riders_first ? 0 : 1; pass < 2; ++pass) {
    for (auto it = decode_ready_.begin();
         it != decode_ready_.end() && joined < join;) {
      const std::size_t index = *it;
      if (riders_first) {
        const Request& r = records_[index].request;
        KvPagingState& st = kv_paging_[index];
        if (pass == 0) {
          st.rides_held_prefix =
              r.prefix_id != 0 &&
              pages_->shared_refcount(kv_prefix_key(r.model, r.prefix_id)) > 0;
        }
        if (st.rides_held_prefix != (pass == 0)) {
          ++it;
          continue;
        }
      }
      // Deferred join: stays decode-ready, retries next step boundary.
      // An MC-lane suffix (the only decode-ready request that still holds
      // a plan) also waits until the chunk 0 that computes its prefix KV
      // has retired.
      if ((plans_.contains(index) &&
           !conversations_.prefix_ready(records_[index].request)) ||
          (pages_ && !kv_join_reserve(index))) {
        ++it;
        continue;
      }
      active_.push_back(index);
      it = decode_ready_.erase(it);
      ++joined;
    }
  }
  // Every active request writes one token this step — extend page tables
  // first (may preempt victims to DRAM when the budget is full).
  if (paged_) grow_page_tables();
  if (active_.empty()) return;  // MC lane drains until new prefills land

  // One continuous-batching step: per served model, batch the weight-
  // bearing ops across that model's active requests and stream each
  // request's own KV cache. A joined MC-lane suffix feeds its suffix
  // tokens as rows; the step is its prefill.
  const Cycle now = chip_.simulator().now();
  std::vector<GemmWork> step;
  std::vector<model::DecodeSlot> slots;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    slots.clear();
    // The batched weight fetch serves the whole per-model batch at once,
    // so it prunes to the LEAST degraded active request's fraction (the
    // max): a degraded co-batcher cannot starve an undegraded one of
    // rows it needs. Equal to the model's keep_fraction under StaticQuality.
    double frac = 0.0;
    for (const std::size_t index : active_) {
      RequestRecord& rec = records_[index];
      if (rec.request.model != m) continue;
      std::size_t rows = 1;
      const auto suffix =
          rec.tokens_generated == 0 ? plans_.find(index) : plans_.end();
      if (suffix != plans_.end()) {
        EDGEMM_ASSERT(suffix->second.route == PrefillRoute::kMcSuffix);
        rows = suffix->second.chunks.front().tokens;
        rec.prefill_start = now;
      }
      slots.push_back({rec.request.input_tokens + rec.tokens_generated, rows});
      frac = std::max(frac, rec.keep_fraction_served);
    }
    if (slots.empty()) continue;
    const auto ops = model::build_decode_step(models_[m], slots, frac);
    step.insert(step.end(), ops.begin(), ops.end());
  }
  if (paged_) {
    // Every byte re-fetched since the last submitted step rides this one
    // as a KV-stream-priced DMA op (element override 2: ≈ the refilled
    // bytes through the MC lane), so swap thrashing costs decode
    // bandwidth and a step that never ran drops nothing.
    const Bytes swap_dma =
        pages_->swap_refetch_bytes() - result_.kv_swap_dma_bytes;
    if (swap_dma > 0) {
      step.push_back(GemmWork{
          1, std::max<std::size_t>(static_cast<std::size_t>(swap_dma / 4), 1),
          1, Phase::kDecode, false, 2, false});
      result_.kv_swap_dma_bytes += swap_dma;
    }
  }
  step = model::aggregate_ops(step);

  ++result_.decode_steps;
  batch_occupancy_sum_ += active_.size();
  result_.peak_decode_batch =
      std::max(result_.peak_decode_batch, active_.size());
  step_started_ = now;
  decode_step_pending_ = true;
  scheduler_.submit(Lane::kMcDecode, std::move(step),
                    [this] { on_decode_step_done(); });
}

void ServingEngine::on_decode_step_done() {
  const Cycle now = chip_.simulator().now();
  if (now > step_started_) {
    // Fold the measured step duration into every model that took part in
    // the step (active_ still holds its batch), each by its token share:
    // charging every present model the full duration would double-count
    // its co-tenants' work. A model that sat the step out is untouched.
    for (ModelState& state : per_model_) state.step_tokens = 0;
    for (const std::size_t index : active_) {
      ++per_model_[records_[index].request.model].step_tokens;
    }
    const double observed = static_cast<double>(now - step_started_);
    const double total_tokens = static_cast<double>(active_.size());
    for (ModelState& state : per_model_) {
      if (state.step_tokens == 0) continue;
      fold(state.decode_step_cycles_est,
           observed * static_cast<double>(state.step_tokens) / total_tokens);
    }
  }
  still_active_.clear();
  for (const std::size_t index : active_) {
    RequestRecord& rec = records_[index];
    if (rec.tokens_generated == 0 && plans_.contains(index)) {
      // The step that carried the suffix's rows was its prefill.
      rec.prefill_end = now;
      drop_plan(index);
    }
    ++rec.tokens_generated;
    if (rec.keep_fraction_served < per_model_[rec.request.model].keep_fraction) {
      ++result_.tokens_at_degraded_quality;
    }
    if (rec.tokens_generated == 1) rec.first_token = now;
    if (rec.tokens_generated >= rec.request.output_tokens) {
      retire(index);
    } else {
      still_active_.push_back(index);
    }
  }
  active_.swap(still_active_);
  pump_admission();  // retired requests freed admission slots
  decode_step_pending_ = false;
  start_decode_step();  // survivors + any newly prefilled joiners
}

void ServingEngine::schedule_rebalance(Cycle interval) {
  chip_.simulator().schedule(interval, [this, interval] {
    if (completed_ + rejected_ >= total_) return;  // drained: stop ticking
    rebalance();
    schedule_rebalance(interval);
  });
}

void ServingEngine::rebalance() {
  // Size Bc:Bm from the bytes pending on each side (the dynamic Fig. 9(c)
  // byte ratio): admitted prefill work against remaining decode traffic,
  // whose weight fetch is charged once per step until the model's
  // longest request drains.
  double mc_bytes = 0.0;
  for (ModelState& state : per_model_) state.max_remaining = 0;
  auto add_remaining = [&](std::size_t index) {
    const RequestRecord& rec = records_[index];
    const std::size_t remaining =
        rec.request.output_tokens - rec.tokens_generated;
    const std::size_t context =
        rec.request.input_tokens + rec.tokens_generated;
    ModelState& state = per_model_[rec.request.model];
    state.max_remaining = std::max(state.max_remaining, remaining);
    mc_bytes += static_cast<double>(remaining) *
                (state.decode_request_bytes +
                 state.decode_kv_slope * static_cast<double>(context));
  };
  for (const std::size_t index : active_) add_remaining(index);
  for (const std::size_t index : decode_ready_) add_remaining(index);
  for (const ModelState& state : per_model_) {
    mc_bytes += state.decode_shared_bytes * static_cast<double>(state.max_remaining);
  }

  // The ratio only sizes the CC cap, 1/(1+ratio) of the interval bytes:
  // the MC clusters stay unthrottled and take every byte the CC side
  // leaves, so decode keeps at least ratio/(1+ratio) of DRAM when both
  // sides saturate and the whole channel when the CC side idles.
  std::size_t ratio = 1;
  if (cc_pending_bytes_ == 0) {
    // No upstream work: the tightest CC cap.
    ratio = manager_.policy().max_mc_ratio;
  } else if (mc_bytes > 0.0) {
    ratio = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            mc_bytes / static_cast<double>(cc_pending_bytes_) + 0.5),
        1,
        manager_.policy().max_mc_ratio);
  }
  manager_.apply_cc_cap(chip_, ratio);
  ++result_.rebalances;
}

ReplayOutcome replay_trace(const core::ChipConfig& config,
                           std::vector<model::MllmConfig> models,
                           EngineConfig engine_config,
                           std::vector<Request> requests,
                           ServingEngine::CompletionCallback on_complete) {
  ServingEngine engine(config, std::move(models), std::move(engine_config));
  if (on_complete) engine.set_completion_callback(std::move(on_complete));
  ReplayOutcome outcome;
  outcome.result = engine.run(std::move(requests));
  outcome.records = engine.records();
  return outcome;
}

}  // namespace edgemm::serve
