#include "baselines/gpu_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace edgemm::baselines {

GpuBackend::GpuBackend(sim::Simulator& sim, GpuSpec spec, double clock_hz)
    : sim_(sim), spec_(std::move(spec)), clock_hz_(clock_hz) {
  spec_.validate();
  if (!(clock_hz_ > 0.0)) {
    throw std::invalid_argument("GpuBackend: clock_hz must be positive");
  }
}

double GpuBackend::job_seconds(std::span<const core::GemmWork> ops) const {
  double seconds = 0.0;
  for (const core::GemmWork& op : ops) {
    seconds += gpu_op_seconds(spec_, op);
  }
  return seconds;
}

Cycle GpuBackend::job_cycles(std::span<const core::GemmWork> ops) const {
  const double cycles = std::ceil(job_seconds(ops) * clock_hz_);
  return std::max<Cycle>(static_cast<Cycle>(cycles), 1);
}

Bytes GpuBackend::estimated_job_bytes(
    core::Lane lane, std::span<const core::GemmWork> ops) const {
  (void)lane;  // one GDDR fabric; both streams price traffic identically
  Bytes bytes = 0;
  for (const core::GemmWork& op : ops) {
    bytes += gpu_op_bytes(spec_, op);
  }
  return bytes;
}

void GpuBackend::submit(core::Lane lane, std::vector<core::GemmWork> ops,
                        std::function<void()> done,
                        std::function<void()> started,
                        std::uint64_t affinity) {
  (void)affinity;  // strict FIFO: no affinity-aware reordering
  if (ops.empty()) {
    throw std::invalid_argument("GpuBackend: cannot submit an empty op list");
  }
  Stream& s = stream(lane);
  s.queue.push_back(Job{std::move(ops), std::move(done), std::move(started),
                        sim_.now()});
  if (!s.busy) {
    dispatch_next(lane);
  }
}

void GpuBackend::dispatch_next(core::Lane lane) {
  Stream& s = stream(lane);
  if (s.queue.empty()) {
    s.busy = false;
    return;
  }
  Job job = s.queue.take_front();
  s.busy = true;
  ++s.dispatched;
  s.max_queue_wait = std::max(s.max_queue_wait, sim_.now() - job.submitted);
  const Cycle duration = job_cycles(job.ops);
  s.busy_cycles += duration;
  bytes_moved_ += estimated_job_bytes(lane, job.ops);
  kernel_launches_ += job.ops.size();
  if (job.started) {
    job.started();
  }
  sim_.schedule(duration, [this, lane, done = std::move(job.done)]() {
    if (done) {
      done();
    }
    dispatch_next(lane);
  });
}

double GpuBackend::memory_utilization() const {
  const Cycle now = sim_.now();
  if (now == 0) {
    return 0.0;
  }
  const double elapsed_s = static_cast<double>(now) / clock_hz_;
  const double achieved = static_cast<double>(bytes_moved_) / elapsed_s;
  return std::min(1.0, achieved / spec_.memory_bandwidth);
}

}  // namespace edgemm::baselines
