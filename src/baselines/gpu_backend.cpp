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
    std::span<const core::GemmWork> ops) const {
  Bytes bytes = 0;
  for (const core::GemmWork& op : ops) {
    bytes += gpu_op_bytes(spec_, op);
  }
  return bytes;
}

void GpuBackend::submit(core::Lane lane, std::vector<core::GemmWork> ops,
                        std::function<void()> done,
                        std::function<void()> started) {
  if (ops.empty()) {
    throw std::invalid_argument("GpuBackend: cannot submit an empty op list");
  }
  Stream& s = stream(lane);
  s.queue.push_back(Job{std::move(ops), std::move(done), std::move(started)});
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
  const Cycle duration = job_cycles(job.ops);
  s.busy_cycles += duration;
  bytes_moved_ += estimated_job_bytes(job.ops);
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

}  // namespace edgemm::baselines
