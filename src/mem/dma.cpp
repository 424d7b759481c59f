#include "mem/dma.hpp"

#include <array>
#include <stdexcept>

#include "common/assert.hpp"

namespace edgemm::mem {

namespace {

void check_dma_config(const DmaConfig& config) {
  if (config.burst_bytes == 0) {
    throw std::invalid_argument("DmaEngine: burst_bytes must be > 0");
  }
  if (config.throttle_interval == 0) {
    throw std::invalid_argument("DmaEngine: throttle_interval must be > 0");
  }
}

}  // namespace

DmaEngine::DmaEngine(sim::Simulator& sim, DramController& dram, int port,
                     const DmaConfig& config, std::string_view /*label*/)
    : DmaEngine(sim, std::array{MemoryPath::Hop{&dram.channel(), port}}, config) {}

DmaEngine::DmaEngine(sim::Simulator& sim, std::span<const MemoryPath::Hop> route,
                     const DmaConfig& config)
    : sim_(sim), path_(route), config_(config) {
  check_dma_config(config);
  if (path_.empty()) {
    throw std::invalid_argument("DmaEngine: memory path must have hops");
  }
}

void DmaEngine::transfer(Bytes bytes, Done done) {
  ++inflight_;
  if (bytes == 0) {
    instant_.push_back(std::move(done));
    sim_.schedule(0, [this] { complete(instant_); });
    return;
  }
  total_bytes_ += bytes;
  pending_.push_back(std::move(done));
  Bytes remaining = bytes;
  while (remaining > 0) {
    const Bytes chunk = remaining > config_.burst_bytes ? config_.burst_bytes : remaining;
    remaining -= chunk;
    issue_or_defer(Burst{chunk, remaining == 0});
  }
}

void DmaEngine::complete(Fifo<Done>& queue) {
  EDGEMM_ASSERT(inflight_ > 0);
  --inflight_;
  Done done = queue.take_front();
  if (done) done();
}

Cycle DmaEngine::next_interval_boundary() const {
  const Cycle t = config_.throttle_interval;
  return ((sim_.now() / t) + 1) * t;
}

void DmaEngine::issue_or_defer(Burst burst) {
  // Lazily roll the PMC interval forward (no periodic event needed when idle).
  const Cycle t = config_.throttle_interval;
  const Cycle interval_index = sim_.now() / t;
  if (interval_index * t != interval_start_) {
    interval_start_ = interval_index * t;
    interval_usage_ = 0;
  }

  // §IV-B: once usage exceeds the budget, subsequent bursts are blocked
  // until the interval elapses. Keep strict FIFO: if bursts are already
  // deferred, new bursts queue behind them.
  if (!deferred_.empty() || interval_usage_ > budget_) {
    deferred_.push_back(burst);
    if (!wakeup_scheduled_) {
      wakeup_scheduled_ = true;
      const Cycle boundary = next_interval_boundary();
      throttle_stall_cycles_ += boundary - sim_.now();
      sim_.schedule_at(boundary, [this] {
        wakeup_scheduled_ = false;
        interval_start_ = sim_.now();
        interval_usage_ = 0;
        // Drain deferred bursts; issue_or_defer re-blocks once the fresh
        // budget is consumed again.
        draining_.swap(deferred_);
        for (const Burst& b : draining_) issue_or_defer(b);
        draining_.clear();
      });
    }
    return;
  }

  interval_usage_ += burst.bytes;
  issue(burst);
}

void DmaEngine::issue(Burst burst) {
  path_.request(burst.bytes, [this, last = burst.last] {
    if (last) complete(pending_);
  });
}

}  // namespace edgemm::mem
