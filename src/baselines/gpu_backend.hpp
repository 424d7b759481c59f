// GpuBackend: the Table II roofline GPU as a schedulable execution
// target.
//
// The offline comparison (evaluate_gpu) prices a request by summing
// gpu_op_seconds over its phases; GpuBackend schedules exactly those
// sums as jobs on one deterministic FIFO stream over the shared
// discrete-event simulator, so the same cost model that fills Table II
// also serves traffic under an OffloadPolicy. There is no TCDM and no
// weight residency: every kernel launch re-streams its full weight tile
// through the GPU's own GDDR, which is private to the GPU — the
// engine's bandwidth rebalancer never touches it.
#ifndef EDGEMM_BASELINES_GPU_BACKEND_HPP
#define EDGEMM_BASELINES_GPU_BACKEND_HPP

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "baselines/gpu_model.hpp"
#include "common/fifo.hpp"
#include "core/timing.hpp"
#include "sim/simulator.hpp"

namespace edgemm::baselines {

/// A GPU execution target with one FIFO stream.
///
/// Jobs run strictly in submission order with no overlap (one in
/// flight). Job duration is the sum of gpu_op_seconds over the job's
/// ops, converted to cycles of the shared clock (ceil — a job never
/// retires early). Determinism: identical submission sequences produce
/// identical dispatch and retirement times.
class GpuBackend {
 public:
  /// `sim` is the SHARED simulator of the heterogeneous composition
  /// (the EdgeMM chip's, when paired); `clock_hz` converts backend
  /// seconds into its cycles. Throws std::invalid_argument on an
  /// invalid spec or non-positive clock.
  GpuBackend(sim::Simulator& sim, GpuSpec spec, double clock_hz);

  /// Seconds one job of `ops` occupies the stream (Σ gpu_op_seconds,
  /// the exact sum evaluate_gpu uses per phase).
  double job_seconds(std::span<const core::GemmWork> ops) const;

  /// job_seconds converted to shared-clock cycles (ceil, min 1).
  Cycle job_cycles(std::span<const core::GemmWork> ops) const;

  /// Enqueues `ops` as one FIFO job; `started` fires at dispatch, `done`
  /// at retirement, both inside the simulation. Throws
  /// std::invalid_argument for an empty op list.
  void submit(std::vector<core::GemmWork> ops, std::function<void()> done,
              std::function<void()> started = {});

  /// Jobs waiting behind the running one.
  std::size_t queued() const { return queue_.size(); }

  // --- Ledger (observability) --------------------------------------------
  /// Bytes streamed through GDDR by dispatched jobs (Σ gpu_op_bytes).
  Bytes bytes_moved() const { return bytes_moved_; }
  /// Kernel launches issued by dispatched jobs (one per op).
  std::size_t kernel_launches() const { return kernel_launches_; }
  /// Cycles the stream spent occupied by dispatched jobs.
  Cycle busy_cycles() const { return busy_cycles_; }

 private:
  struct Job {
    std::vector<core::GemmWork> ops;
    std::function<void()> done;
    std::function<void()> started;
  };

  /// Bytes `ops` stream through GDDR as one job (Σ gpu_op_bytes).
  Bytes estimated_job_bytes(std::span<const core::GemmWork> ops) const;
  void dispatch_next();

  sim::Simulator& sim_;
  GpuSpec spec_;
  double clock_hz_;
  Fifo<Job> queue_;
  bool busy_ = false;
  Cycle busy_cycles_ = 0;
  Bytes bytes_moved_ = 0;
  std::size_t kernel_launches_ = 0;
};

}  // namespace edgemm::baselines

#endif  // EDGEMM_BASELINES_GPU_BACKEND_HPP
