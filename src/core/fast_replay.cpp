#include "core/fast_replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace edgemm::core {

namespace {

// Half a byte of slack absorbs float rounding in crossing detection; the
// quantities compared are whole bytes.
constexpr double kByteEps = 0.5;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

/// Replays a batch's ops as the serial block pipeline run_ops executes,
/// with the DRAM channel serving at `cpb` cycles per byte, in ABSOLUTE
/// time from `t0`. The detailed engine's per-block recurrence is
///   serve_j = max(serve_{j-1}, issue_j + head) + b_j * cpb
///   land_j  = serve_j + tail
///   comp_j  = max(comp_{j-1}, land_j) + c_j
/// with issue_j the compute-start of block j-2 (the double-buffer slot
/// freeing). Within an op the blocks are uniform, so the recurrence
/// advances at the steady period
///   P = max(c_blk, b_blk*cpb, (head + tail + b_blk*cpb) / 2)
/// (compute-bound, channel-bound, or latency-starved — two compute
/// spans cover one pipe refill) after an exactly-priced first block.
/// head/tail are latencies: they delay landings but consume no channel
/// time, so a continuously-busy channel pays them once per drain, not
/// per block.
/// The PMC budget (`inv_rb` cycles per byte, 0 = unlimited) follows the
/// detailed DmaEngine's interval grid: usage resets at every multiple
/// of the throttle interval T (the grid is absolute — dma.cpp keys it
/// on now / T), an interval admits one allowance A = T / inv_rb at full
/// channel speed, and deferred bytes FLOOD at the following boundaries.
/// An op's cumulative grant curve is therefore a step function — short
/// bursts pass inside the current interval's remaining allowance, a
/// memory-heavy op in a compute-heavy chain waits for the next boundary
/// even though the stream's average demand fits the budget. Returns the
/// channel finish of the last byte (dma_end), the datapath drain (done)
/// and the final interval's charge (usage) for cross-batch carry.
FastMemoryModel::ChainTimes FastMemoryModel::replay_chain(
    const std::vector<OpCost>& ops, double cpb, double flood_cpb,
    double sync_cpb, double inv_rb, double t0, double usage0) const {
  const double tail = static_cast<double>(dram_.config().latency);
  const double T = static_cast<double>(config_.dma.throttle_interval);
  const double A = inv_rb > 0.0 ? T / inv_rb : 0.0;  // bytes per interval
  double chan = t0;        // channel service end
  double comp = t0;        // datapath drain
  double cs_last = t0;     // compute-start of the most recent block
  double cs_prev = t0;     // compute-start of the block before that
  double usage = usage0;   // bytes charged to the interval holding u_time
  double u_time = t0;
  double deferred = 0.0;   // bytes served by boundary floods
  for (const OpCost& op : ops) {
    if (op.bytes <= 0.0) {
      // Fully resident op: blocks go straight to the ready queue.
      comp = std::max(comp, cs_prev) + op.compute;
      const double new_last = comp - op.compute_last;
      cs_prev = op.n_blocks >= 2.0
                    ? std::max(new_last - op.compute_per_block, cs_last)
                    : cs_last;
      cs_last = new_last;
      continue;
    }
    // First block: its transfer was issued when the double-buffer slot
    // freed (cs_prev); the channel serves it after the lead burst's
    // crossbar traversal, or as soon as it drains the queue ahead.
    const double serve1 = std::max(chan, cs_prev + op.head);
    double avail = 0.0;
    if (A > 0.0) {
      if (std::floor(serve1 / T) > std::floor(u_time / T)) usage = 0.0;
      avail = std::max(A - usage, 0.0);
    }
    // Budget grant of the op's first c bytes: what fits the current
    // interval's remaining allowance passes at channel speed, the rest
    // floods at the following absolute boundaries. The final, partial
    // flood still takes channel time — at the flood-contended rate,
    // since sibling clusters' deferred bursts release at the very same
    // boundary.
    const auto grant = [&](double c) {
      if (c <= avail + kByteEps) return serve1;
      const double k = std::ceil((c - avail) / A);
      const double rem = c - avail - (k - 1.0) * A;
      return (std::floor(serve1 / T) + k) * T + rem * flood_cpb;
    };
    // The first block gates compute start, so unlike the bulk (whose
    // contention the realized stretch and the boundary floods already
    // price) it pays the lockstep-sibling burst collision directly.
    double land1 = serve1 + op.first_block * sync_cpb;
    const double b_blk = op.per_block * cpb;
    const double period = std::max(
        {op.compute_per_block, b_blk, 0.5 * (op.head + tail + b_blk)});
    double land_n = land1 + (op.n_blocks - 1.0) * period;
    double land_n1 = land1 + std::max(op.n_blocks - 2.0, 0.0) * period;
    double g_n = 0.0;
    if (A > 0.0) {
      // Gate the first block, the second-to-last and the last behind
      // their cumulative byte grants.
      land1 = std::max(land1, grant(op.first_block));
      g_n = grant(op.bytes);
      land_n = std::max({land_n, land1 + (op.n_blocks - 1.0) * period, g_n});
      land_n1 = std::max(
          {land_n1, land1 + std::max(op.n_blocks - 2.0, 0.0) * period,
           grant(op.bytes - op.last_block)});
    }
    land1 += tail;
    land_n += tail;
    land_n1 += tail;
    const double comp_end = std::max(std::max(comp, land1) + op.compute,
                                     land_n + op.compute_last);
    const double new_last = comp_end - op.compute_last;
    const double new_prev =
        op.n_blocks >= 2.0
            ? std::max(new_last - op.compute_per_block, land_n1)
            : cs_last;
    // Channel side: continuous service from the first block, gated by the
    // budget grant of the last byte, or by the last block's issue
    // (compute-start of block n-2 = new_prev - P).
    double chan_end = std::max(serve1 + op.bytes * cpb, g_n);
    if (op.n_blocks >= 2.0) {
      chan_end = std::max(chan_end,
                          new_prev - period + op.head + op.last_block * cpb);
    }
    if (A > 0.0) {
      // PMC charge left in chan_end's interval, seeding the next op.
      if (std::floor(chan_end / T) <= std::floor(serve1 / T)) {
        usage += op.bytes;  // all within the current interval
      } else if (op.bytes > avail + kByteEps && g_n >= chan_end) {
        // Flood-terminated: the final boundary's charge is exact.
        const double k = std::ceil((op.bytes - avail) / A);
        usage = op.bytes - avail - (k - 1.0) * A;
        deferred += op.bytes - avail;
      } else {
        // Compute/channel-paced across boundaries: estimate the final
        // interval's charge from the op's average issue rate.
        usage = std::min(
            {A, op.bytes, op.bytes * std::fmod(chan_end, T) /
                              std::max(chan_end - serve1, 1.0)});
      }
      u_time = chan_end;
    }
    chan = chan_end;
    comp = comp_end;
    cs_prev = new_prev;
    cs_last = new_last;
  }
  return ChainTimes{chan, comp, usage, deferred};
}

const char* to_string(ReplayMode mode) {
  switch (mode) {
    case ReplayMode::kDetailed: return "detailed";
    case ReplayMode::kFast: return "fast";
  }
  return "?";
}

FastMemoryModel::FastMemoryModel(sim::Simulator& sim, mem::DramController& dram,
                                 const ChipConfig& config)
    : sim_(sim), dram_(dram), config_(config) {
  const std::size_t clusters =
      config.groups * (config.cc_clusters_per_group + config.mc_clusters_per_group);
  lanes_.reserve(clusters);
  rate_entries_.reserve(clusters);
}

std::size_t FastMemoryModel::register_cluster(ClusterTimingModel& cluster) {
  lanes_.push_back(Lane{&cluster, nullptr, {}, 0});
  return lanes_.size() - 1;
}

void FastMemoryModel::submit(ClusterTimingModel& cluster,
                             const std::vector<GemmWork>& ops,
                             sim::Action done) {
  EDGEMM_ASSERT(!ops.empty());
  const std::size_t li = cluster.fast_lane_;
  EDGEMM_ASSERT(cluster.fast_ == this && lanes_[li].cluster == &cluster);
  auto stream = std::make_unique<Stream>();
  stream->cluster = &cluster;
  stream->lane = li;
  stream->done = std::move(done);

  // Mirror run_ops' block split exactly: n blocks of bytes/n each, total
  // effective compute max(op_compute, n) (every block computes >= 1
  // cycle), last-block compute ceil(op_compute / n).
  const Bytes block_limit = cluster.block_bytes();
  stream->ops.reserve(ops.size());
  for (const GemmWork& work : ops) {
    const Bytes bytes = cluster.weight_bytes(work) + cluster.activation_bytes(work);
    const Cycle compute = cluster.compute_cycles(work);
    const auto n_blocks =
        bytes == 0 ? std::size_t{1}
                   : static_cast<std::size_t>((bytes + block_limit - 1) / block_limit);
    const Cycle effective = std::max<Cycle>(compute, n_blocks);
    stream->stat_bytes += bytes;
    stream->stat_compute += effective;
    stream->stat_flops += work.flops();
    OpCost cost;
    cost.bytes = static_cast<double>(bytes);
    cost.first_block = static_cast<double>(bytes / n_blocks);
    cost.per_block = cost.bytes / static_cast<double>(n_blocks);
    cost.last_block =
        cost.bytes - (static_cast<double>(n_blocks) - 1.0) * cost.per_block;
    cost.n_blocks = static_cast<double>(n_blocks);
    if (bytes > 0) {
      // Lead burst's path to the channel: its occupancy of each crossbar
      // hop plus the hop latencies (subsequent bursts pipeline behind).
      const double lead = std::min(static_cast<double>(config_.dma.burst_bytes),
                                   cost.per_block);
      cost.head = static_cast<double>(config_.group_xbar_latency) +
                  std::ceil(lead / config_.group_xbar_bytes_per_cycle) +
                  static_cast<double>(config_.system_xbar_latency) +
                  std::ceil(lead / config_.system_xbar_bytes_per_cycle);
    }
    cost.compute = static_cast<double>(effective);
    cost.compute_last = static_cast<double>((effective + n_blocks - 1) / n_blocks);
    cost.compute_per_block =
        static_cast<double>(effective) / static_cast<double>(n_blocks);
    stream->ops.push_back(cost);
  }
  stream->total_bytes = static_cast<double>(stream->stat_bytes);

  Lane& lane = lanes_[li];
  ++lane.outstanding;
  advance_to(static_cast<double>(sim_.now()));
  if (lane.active) {
    lane.pending.push_back(std::move(stream));
    return;  // rates unchanged until the active stream retires
  }
  activate(lane, std::move(stream));
  settle();
}

bool FastMemoryModel::idle(const ClusterTimingModel& cluster) const {
  return lanes_[cluster.fast_lane_].outstanding == 0;
}

void FastMemoryModel::budgets_changed() {
  if (lanes_.empty() || budget_recompute_pending_) return;
  budget_recompute_pending_ = true;
  // Coalesce: a BandwidthManager rebalance re-budgets every cluster in
  // one event; re-price once after the last set_budget call.
  sim_.schedule(0, [this] {
    budget_recompute_pending_ = false;
    recompute();
  });
}

void FastMemoryModel::activate(Lane& lane, std::unique_ptr<Stream> stream,
                               double not_before) {
  EDGEMM_ASSERT(!lane.active);
  stream->started_at = std::max(last_advance_, not_before);
  if (stream->total_bytes <= kByteEps) {
    // Pure-compute batch (resident weights, no activations): no DMA time.
    stream->dma_done_at = last_advance_;
  } else {
    // Seed the PMC interval usage from the lane carry: the charge
    // persists only while the predecessor's final interval is still the
    // current one (the detailed DmaEngine lazily resets usage when the
    // absolute interval index rolls). Pricing itself is delegated to
    // reprice() so a mid-flight budget change re-derives it identically.
    stream->cpb_iso = 1.0 / dram_.config().bytes_per_cycle;
    const double T = static_cast<double>(config_.dma.throttle_interval);
    if (lane.bucket_time >= 0.0 &&
        std::floor(stream->started_at / T) == std::floor(lane.bucket_time / T)) {
      stream->usage0 = lane.bucket_usage;
    }
    reprice(*stream);
  }
  lane.active = std::move(stream);
}

void FastMemoryModel::reprice(Stream& s) {
  // Price the isolated chain with the budget in force NOW. The bandwidth
  // manager rebalances every interval, so a stream activated under a
  // tight partition must not stay priced tight for its whole life: the
  // interval charge it started on is byte-denominated (budget
  // independent), so just re-run the chain replay under the new
  // allowance. The isolated channel-service span is >= D * cpb_iso
  // wherever compute or the PMC throttles the loads, making D / dma_iso
  // the batch's average channel demand.
  const double rb = budget_rate(*s.cluster);
  if (rb == s.priced_rb) return;
  s.priced_rb = rb;
  if (std::isfinite(rb)) {
    const double cap = rb * static_cast<double>(config_.dma.throttle_interval);
    s.inv_rb = 1.0 / rb;
    s.tokens0 = std::max(cap - s.usage0, 0.0);
  } else {
    s.inv_rb = 0.0;
    s.tokens0 = 0.0;
  }
  const ChainTimes iso = replay_chain(s.ops, s.cpb_iso, s.cpb_iso, s.cpb_iso,
                                      s.inv_rb, s.started_at, s.usage0);
  s.dma_iso = iso.dma_end - s.started_at;
  s.demand_rate = s.total_bytes / s.dma_iso;
  s.defers = iso.deferred > kByteEps;
}

void FastMemoryModel::advance_to(double now) {
  const double dt = now - last_advance_;
  if (dt <= 0.0) {
    last_advance_ = std::max(last_advance_, now);
    return;
  }
  for (Lane& lane : lanes_) {
    Stream* s = lane.active.get();
    if (s == nullptr || s->dma_done_at >= 0.0 || s->rate <= 0.0) continue;
    // Contention the stream's boundary floods and lockstep fetches saw
    // over this window (the factors are piecewise constant between
    // recomputes, like the rates).
    if (s->defers) {
      s->flood_acc += s->flood_now * dt;
      s->slip_acc += s->slip_now * dt;
    }
    s->sync_acc += s->sync_now * dt;
    // A bandwidth rebalance moves the PMC budgets every interval; the
    // retire replay prices the whole chain at ONE rate, so integrate the
    // budget the stream actually lived under rather than trusting the
    // final snapshot.
    const double rb = budget_rate(*s->cluster);
    if (std::isfinite(rb)) s->rb_acc += rb * dt;
    const double add = s->rate * dt;
    // Rates are constant across [last_advance_, now], so crossings within
    // the step are exact interpolations.
    if (s->served_bytes + add >= s->total_bytes - kByteEps) {
      s->dma_done_at = last_advance_ +
                       std::max(0.0, s->total_bytes - s->served_bytes) / s->rate;
      s->served_bytes = s->total_bytes;
    } else {
      s->served_bytes += add;
    }
  }
  last_advance_ = now;
}

void FastMemoryModel::settle() {
  for (Lane& lane : lanes_) {
    while (lane.active && lane.active->dma_done_at >= 0.0) {
      auto finished = std::move(lane.active);
      lane.active = nullptr;
      retire(lane, std::move(finished));
    }
  }
  compute_rates();
  schedule_next();
}

void FastMemoryModel::retire(Lane& lane, std::unique_ptr<Stream> stream) {
  // Price completion by replaying the serial op chain at the CONTENDED
  // memory rate: the realized DMA span over the isolated one measures
  // how much channel contention plus throttling stretched the memory
  // side (1.0 when the stream ran at its full demand), and scaling
  // cpb_iso by that stretch re-prices only the memory terms — the chain
  // replay then layers the compute constraints exactly once. Using the
  // realized cycles-per-byte directly would double-count back-pressure:
  // demand_rate already slowed the integration wherever compute
  // throttled the loads.
  double cpb = 0.0;
  double flood_cpb = 0.0;
  double sync_cpb = 0.0;
  double inv_rb = stream->inv_rb;
  if (stream->total_bytes > kByteEps) {
    const double span = stream->dma_done_at - stream->started_at;
    const double stretch = std::max(span / stream->dma_iso, 1.0);
    cpb = stream->cpb_iso * stretch;
    flood_cpb = cpb;
    sync_cpb = cpb;
    if (inv_rb > 0.0 && span > 0.0 && stream->rb_acc > 0.0) {
      // The budget the stream lived under, not the final snapshot (a
      // managed rebalance moves it every interval).
      inv_rb = span / stream->rb_acc;
    }
    if (inv_rb > 0.0 && span > 0.0) {
      // Boundary floods are grid-synchronized: the clusters deferring
      // alongside this one release at the same instants, so the final
      // partial flood is served at 1/n of the channel. Capped at the
      // channel/budget rate ratio — beyond that the channel, not the
      // PMC, is the binding constraint and the stretch already holds it.
      const double bw_over_rb = dram_.config().bytes_per_cycle * inv_rb;
      const double f = std::clamp(stream->flood_acc / span, 1.0,
                                  std::max(bw_over_rb, 1.0));
      flood_cpb = std::max(cpb, stream->cpb_iso * f);
    }
    if (span > 0.0) {
      // Lockstep siblings — the co-partitions of the same run_on call —
      // fetch their blocks at the same instants, so a compute-gating
      // first-block fetch runs on the channel LEFT OVER by everyone
      // else even when the streams' average demand leaves it idle. Only
      // the latency-gated terms pay this: the bulk's contention is
      // already priced by the realized stretch, and for a throttled
      // stream a mid-interval collision just reorders service before
      // the boundary the chain waits on anyway.
      sync_cpb = std::max(
          sync_cpb, stream->cpb_iso * stream->sync_acc / span);
    }
  }
  ChainTimes times =
      replay_chain(stream->ops, cpb, flood_cpb, sync_cpb, inv_rb,
                   stream->started_at, stream->usage0);
  // Grid-slip excess: when the allowance grid is oversubscribed (the
  // deferring streams' budgets plus the other budgeted traffic exceed
  // the channel; unthrottled streams never count, see compute_rates),
  // every boundary under-delivers and the deficit cascades through the
  // deferred-burst queue. The fluid water-filling prices the average
  // slowdown, but the detailed tier's burst-granular FIFO arbitration
  // runs slower than the fluid share; the excess fraction is calibrated
  // against the detailed tier on the rider-vs-decode shapes of the
  // serving_trace §3 resident/chained rows, whose fast-tier drift §7
  // gates. Chained continuation batches (usage carried from the lane
  // bucket) skip the charge — their flood tail is an artificial batch
  // boundary, not a real end-of-stream drain.
  if (stream->defers && stream->slip_acc > 0.0 && stream->usage0 <= 0.0) {
    constexpr double kGridSlipExcess = 0.35;
    times.dma_end += kGridSlipExcess * stream->slip_acc;
    times.done += kGridSlipExcess * stream->slip_acc;
  }
  const double t_done = times.done;
  if (inv_rb > 0.0) {
    // Carry the PMC interval charge to the next batch on this lane; a
    // pure-compute or unthrottled stream leaves the carry untouched (it
    // never moved the DMA's usage counter).
    lane.bucket_usage = times.usage;
    lane.bucket_time = times.dma_end;
  }
  auto when = static_cast<Cycle>(std::ceil(t_done));
  if (when < sim_.now()) when = sim_.now();

  if (stream->stat_bytes > 0) {
    // Feed the DRAM ledger the channel time these bursts would have
    // occupied, so utilization() stays meaningful on the fast tier.
    const auto busy = static_cast<Cycle>(std::llround(
        static_cast<double>(stream->stat_bytes) / dram_.config().bytes_per_cycle));
    dram_.channel().record_external_service(stream->stat_bytes, busy);
  }
  ++streams_completed_;

  // Completion is fixed once the DMA crossing is known — deliberately not
  // token-guarded like the recompute tick.
  sim_.schedule_at(when, [this, li = stream->lane, cluster = stream->cluster,
                          bytes = stream->stat_bytes, compute = stream->stat_compute,
                          flops = stream->stat_flops,
                          done = std::move(stream->done)]() mutable {
    ClusterStats& stats = cluster->stats_;
    stats.dma_bytes += bytes;
    stats.compute_cycles += compute;
    stats.flops += flops;
    stats.busy_until = std::max(stats.busy_until, sim_.now());
    EDGEMM_ASSERT(lanes_[li].outstanding > 0);
    --lanes_[li].outstanding;
    if (done) done();
  });

  // The next batch's DMA starts as the finished one's last block lands
  // (the detailed engine's double buffer frees exactly then) — which is
  // the flood-corrected dma_end, not the fluid crossing.
  if (!lane.pending.empty()) {
    auto next = lane.pending.take_front();
    activate(lane, std::move(next), times.dma_end);
  }
}

void FastMemoryModel::compute_rates() {
  using Entry = RateEntry;
  const double bw = dram_.config().bytes_per_cycle;
  std::vector<Entry>& entries = rate_entries_;
  entries.clear();
  double flooding = 0.0;
  for (Lane& lane : lanes_) {
    Stream* s = lane.active.get();
    if (s == nullptr || s->dma_done_at >= 0.0) continue;
    // A stream's standalone demand: the isolated chain's average channel
    // occupancy (fill, back-pressure and budget stalls), re-derived here
    // whenever a rebalance moved this cluster's budget mid-flight. The
    // live re-cap below honors the banked bucket — a batch smaller than
    // the interval allowance is never throttled.
    reprice(*s);
    double demand = s->demand_rate;
    const double rb = budget_rate(*s->cluster);
    if (std::isfinite(rb) && s->total_bytes - s->tokens0 > kByteEps) {
      demand = std::min(
          demand, rb * s->total_bytes / (s->total_bytes - s->tokens0));
    }
    if (s->defers) flooding += 1.0;
    entries.push_back(Entry{s, std::max(demand, 1e-9)});
  }
  // Max-min fair split of the channel: ascending demand, stable in lane
  // (registration) order so float accumulation is run-to-run identical.
  // An insertion sort: stable, at most one entry per cluster, and unlike
  // std::stable_sort it needs no temporary buffer.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Entry e = entries[i];
    std::size_t j = i;
    for (; j > 0 && e.demand < entries[j - 1].demand; --j) entries[j] = entries[j - 1];
    entries[j] = e;
  }
  double remaining = bw;
  std::size_t left = entries.size();
  for (Entry& e : entries) {
    const double share = remaining / static_cast<double>(left);
    e.stream->rate = std::min(e.demand, share);
    remaining -= e.stream->rate;
    --left;
  }
  // Transient contention factors for the completion replays. Both are
  // synchronized bursts the average-demand water-filling cannot see:
  // boundary floods release on the shared absolute grid, and lockstep
  // siblings — the co-partitions of one run_on call, recognizable by an
  // identical activation instant and byte total — fetch their blocks at
  // the same instants. Each burst is served from the channel LEFT OVER
  // by the other streams' fluid service; in the saturated memory-bound
  // limit the sibling factor degenerates to exactly the realized/iso
  // stretch, so taking the max of the two never double-counts.
  const double floor_bw = 1e-3 * bw;
  double total_rate = 0.0;
  double smooth_rate = 0.0;  // fluid service of the non-deferring streams
  double budgeted_smooth_rate = 0.0;  // ... of those under a finite budget
  double defer_rb = 0.0;  // summed allowances of the deferring streams
  for (const Entry& e : entries) {
    total_rate += e.stream->rate;
    const double rb = budget_rate(*e.stream->cluster);
    if (e.stream->defers) {
      if (std::isfinite(rb)) defer_rb += rb;
    } else {
      smooth_rate += e.stream->rate;
      if (std::isfinite(rb)) budgeted_smooth_rate += e.stream->rate;
    }
  }
  const double flood_factor =
      flooding * bw / std::max(bw - smooth_rate, floor_bw);
  // Grid slip: when the ACTIVE deferring clusters' summed allowances
  // (plus the budgeted smooth traffic) oversubscribe the channel, each
  // interval under-delivers and every deferred queue falls behind its
  // boundary by the excess — a drift the fluid share cannot see (each
  // stream's average demand still fits its budget) and the per-flood
  // factor only prices within one interval. Charged continuously
  // (cycles per cycle) to avoid quantizing into whole-boundary jumps.
  // Only budgeted traffic claims a place on the allowance grid. An
  // unthrottled stream is elastic: the water-filling hands it exactly
  // what the others leave, so its rate tops the channel up to bw, and
  // summing it would count every deferring stream's unused allowance
  // as oversubscription. §7's bandwidth-managed rows and
  // FastReplay.UnthrottledNeighbourAddsNoGridSlip check this against
  // the detailed tier.
  const double slip_rate =
      std::max(defer_rb + budgeted_smooth_rate - bw, 0.0) / bw;
  for (const Entry& a : entries) {
    a.stream->flood_now = std::max(flood_factor, 1.0);
    a.stream->slip_now = slip_rate;
    double n = 0.0;
    for (const Entry& b : entries) {
      if (b.stream->started_at == a.stream->started_at &&
          b.stream->total_bytes == a.stream->total_bytes) {
        n += 1.0;
      }
    }
    n = std::max(n, 1.0);
    const double bg = std::max(total_rate - n * a.stream->rate, 0.0);
    a.stream->sync_now = std::max(n * bw / std::max(bw - bg, floor_bw), 1.0);
  }
}

double FastMemoryModel::budget_rate(const ClusterTimingModel& cluster) const {
  const Bytes budget = cluster.budget();
  if (budget == mem::DmaEngine::kUnlimited) return kInf;
  // The PMC charges a burst before it blocks: floor(B / burst) + 1 bursts
  // land per interval, overshooting the nominal budget by up to one.
  const Bytes burst = config_.dma.burst_bytes;
  const double per_interval =
      static_cast<double>(budget / burst + 1) * static_cast<double>(burst);
  return per_interval / static_cast<double>(config_.dma.throttle_interval);
}

void FastMemoryModel::recompute() {
  advance_to(static_cast<double>(sim_.now()));
  settle();
}

void FastMemoryModel::schedule_next() {
  double t_next = kInf;
  for (Lane& lane : lanes_) {
    const Stream* s = lane.active.get();
    if (s == nullptr || s->dma_done_at >= 0.0 || s->rate <= 0.0) continue;
    t_next = std::min(
        t_next, last_advance_ + (s->total_bytes - s->served_bytes) / s->rate);
  }
  const std::uint64_t token = ++event_token_;  // invalidate stale ticks
  if (!std::isfinite(t_next)) return;
  auto when = static_cast<Cycle>(std::ceil(t_next));
  if (when < sim_.now()) when = sim_.now();
  sim_.schedule_at(when, [this, token] {
    if (token != event_token_) return;
    recompute();
  });
}

}  // namespace edgemm::core
