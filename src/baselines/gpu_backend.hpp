// GpuBackend: the Table II roofline GPU as a schedulable execution
// target.
//
// The offline comparison (evaluate_gpu) prices a request by summing
// gpu_op_seconds over its phases; GpuBackend schedules exactly those
// sums as jobs on deterministic per-lane FIFO streams over the shared
// discrete-event simulator, so the same cost model that fills Table II
// also serves traffic under an OffloadPolicy. There is no TCDM and no
// weight residency: every kernel launch re-streams its full weight tile
// through the GPU's own GDDR, which is private to the GPU — the
// engine's bandwidth rebalancer never touches it.
#ifndef EDGEMM_BASELINES_GPU_BACKEND_HPP
#define EDGEMM_BASELINES_GPU_BACKEND_HPP

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "baselines/gpu_model.hpp"
#include "common/fifo.hpp"
#include "core/phase_scheduler.hpp"
#include "core/timing.hpp"
#include "sim/simulator.hpp"

namespace edgemm::baselines {

/// A GPU execution target with one independent FIFO stream per lane.
///
/// Jobs on a stream run strictly in submission order with no overlap
/// (one in flight per stream); streams of different lanes overlap
/// freely, mirroring a compute stream + copy/decode stream split. Job
/// duration is the sum of gpu_op_seconds over the job's ops, converted
/// to cycles of the shared clock (ceil — a job never retires early).
/// Determinism: identical submission sequences produce identical
/// dispatch and retirement times.
class GpuBackend {
 public:
  /// `sim` is the SHARED simulator of the heterogeneous composition
  /// (the EdgeMM chip's, when paired); `clock_hz` converts backend
  /// seconds into its cycles. Throws std::invalid_argument on an
  /// invalid spec or non-positive clock.
  GpuBackend(sim::Simulator& sim, GpuSpec spec, double clock_hz);

  /// Seconds one job of `ops` occupies its stream (Σ gpu_op_seconds,
  /// the exact sum evaluate_gpu uses per phase).
  double job_seconds(std::span<const core::GemmWork> ops) const;

  /// job_seconds converted to shared-clock cycles (ceil, min 1).
  Cycle job_cycles(std::span<const core::GemmWork> ops) const;

  /// Bytes `ops` stream through GDDR as one job (Σ gpu_op_bytes) — the
  /// numerator of the engine's fat-backend throughput EWMA.
  Bytes estimated_job_bytes(std::span<const core::GemmWork> ops) const;

  /// Enqueues `ops` as one FIFO job on `lane`'s stream; `started` fires
  /// at dispatch, `done` at retirement, both inside the simulation.
  /// Throws std::invalid_argument for an empty op list.
  void submit(core::Lane lane, std::vector<core::GemmWork> ops,
              std::function<void()> done, std::function<void()> started = {});

  /// True when no job is running or queued on `lane`.
  bool idle(core::Lane lane) const {
    const Stream& s = stream(lane);
    return !s.busy && s.queue.empty();
  }
  /// Jobs waiting behind the running one on `lane`.
  std::size_t queued(core::Lane lane) const {
    return stream(lane).queue.size();
  }
  /// Jobs dispatched to `lane` so far.
  std::size_t dispatched(core::Lane lane) const {
    return stream(lane).dispatched;
  }

  // --- Ledger (observability) --------------------------------------------
  /// Bytes streamed through GDDR by dispatched jobs (Σ gpu_op_bytes).
  Bytes bytes_moved() const { return bytes_moved_; }
  /// Kernel launches issued by dispatched jobs (one per op).
  std::size_t kernel_launches() const { return kernel_launches_; }
  /// Cycles `lane`'s stream spent occupied by dispatched jobs.
  Cycle busy_cycles(core::Lane lane) const { return stream(lane).busy_cycles; }

 private:
  struct Job {
    std::vector<core::GemmWork> ops;
    std::function<void()> done;
    std::function<void()> started;
  };
  struct Stream {
    Fifo<Job> queue;
    bool busy = false;
    std::size_t dispatched = 0;
    Cycle busy_cycles = 0;
  };

  Stream& stream(core::Lane lane) {
    return streams_[static_cast<std::size_t>(lane)];
  }
  const Stream& stream(core::Lane lane) const {
    return streams_[static_cast<std::size_t>(lane)];
  }
  void dispatch_next(core::Lane lane);

  sim::Simulator& sim_;
  GpuSpec spec_;
  double clock_hz_;
  std::array<Stream, 2> streams_;
  Bytes bytes_moved_ = 0;
  std::size_t kernel_launches_ = 0;
};

}  // namespace edgemm::baselines

#endif  // EDGEMM_BASELINES_GPU_BACKEND_HPP
