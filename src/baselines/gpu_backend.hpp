// GpuBackend: the Table II roofline GPU promoted to a schedulable
// core::ExecutionBackend.
//
// The offline comparison (evaluate_gpu) prices a request by summing
// gpu_op_seconds over its phases; GpuBackend schedules exactly those
// sums as jobs on deterministic per-lane FIFO streams over the shared
// discrete-event simulator, so the same cost model that fills Table II
// also serves traffic under an OffloadPolicy. There is no TCDM and no
// weight residency: every kernel launch re-streams its full weight tile
// through the GPU's own GDDR lane family, which is also why the
// engine's bandwidth-rebalancing hooks are no-ops here — the fabric is
// private to the backend and not partitionable from outside.
#ifndef EDGEMM_BASELINES_GPU_BACKEND_HPP
#define EDGEMM_BASELINES_GPU_BACKEND_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "baselines/gpu_model.hpp"
#include "common/fifo.hpp"
#include "core/execution_backend.hpp"
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
/// dispatch and retirement times; `affinity` is ignored (strict FIFO).
class GpuBackend final : public core::ExecutionBackend {
 public:
  /// `sim` is the SHARED simulator of the heterogeneous composition
  /// (the EdgeMM chip's, when paired); `clock_hz` converts backend
  /// seconds into its cycles. Throws std::invalid_argument on an
  /// invalid spec or non-positive clock.
  GpuBackend(sim::Simulator& sim, GpuSpec spec, double clock_hz);

  const GpuSpec& spec() const { return spec_; }

  /// Seconds one job of `ops` occupies its stream (Σ gpu_op_seconds,
  /// the exact sum evaluate_gpu uses per phase).
  double job_seconds(std::span<const core::GemmWork> ops) const;

  /// job_seconds converted to shared-clock cycles (ceil, min 1).
  Cycle job_cycles(std::span<const core::GemmWork> ops) const;

  // --- Ledger (observability) --------------------------------------------
  /// Bytes streamed through GDDR by dispatched jobs (Σ gpu_op_bytes).
  Bytes bytes_moved() const { return bytes_moved_; }
  /// Kernel launches issued by dispatched jobs (one per op).
  std::size_t kernel_launches() const { return kernel_launches_; }
  /// Cycles `lane`'s stream spent occupied by dispatched jobs.
  Cycle busy_cycles(core::Lane lane) const { return stream(lane).busy_cycles; }

  // --- ExecutionBackend ---------------------------------------------------
  const char* name() const override { return "gpu"; }
  sim::Simulator& simulator() override { return sim_; }
  double clock_hz() const override { return clock_hz_; }
  void submit(core::Lane lane, std::vector<core::GemmWork> ops,
              std::function<void()> done, std::function<void()> started = {},
              std::uint64_t affinity = 0) override;
  bool idle(core::Lane lane) const override {
    const Stream& s = stream(lane);
    return !s.busy && s.queue.empty();
  }
  std::size_t queued(core::Lane lane) const override {
    return stream(lane).queue.size();
  }
  std::size_t dispatched(core::Lane lane) const override {
    return stream(lane).dispatched;
  }
  Cycle max_queue_wait(core::Lane lane) const override {
    return stream(lane).max_queue_wait;
  }
  Bytes estimated_job_bytes(core::Lane lane,
                            std::span<const core::GemmWork> ops) const override;
  // apply_equal_sharing / apply_bandwidth_ratio: inherited no-ops — the
  // GDDR lane family is private and not partitionable from the engine.
  double memory_utilization() const override;

 private:
  struct Job {
    std::vector<core::GemmWork> ops;
    std::function<void()> done;
    std::function<void()> started;
    Cycle submitted = 0;
  };
  struct Stream {
    Fifo<Job> queue;
    bool busy = false;
    std::size_t dispatched = 0;
    Cycle max_queue_wait = 0;
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
