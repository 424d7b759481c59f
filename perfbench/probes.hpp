// Layer probes: small fixed amounts of work that time one layer's public
// functions from outside, so a host-time change can be pinned on a layer.
// Every probe does the same work on every call (no input depends on the
// workload seed) and returns a host-time rate.
#ifndef EDGEMM_PERFBENCH_PROBES_HPP
#define EDGEMM_PERFBENCH_PROBES_HPP

#include "core/config.hpp"
#include "core/fast_replay.hpp"

namespace edgemm::perfbench {

/// sim: events per host second of sim::Simulator::schedule/run, with 256
/// self-rescheduling actors keeping the heap at replay-like depth.
double probe_sim_events_per_s();

/// mem: DMA bursts per host second of mem::DmaEngine::transfer, four
/// engines contending for one DramController (a ResourceServer) at the
/// chip's burst size and throttle budget.
double probe_mem_bursts_per_s(const core::ChipConfig& chip);

/// core: host milliseconds per simulated millisecond of
/// ChipTimingModel::run_phase on one fixed SPHINX-Tiny prefill op list
/// (encoder plus a 128-token chunk), on the given replay tier.
double probe_core_host_ms_per_sim_ms(const core::ChipConfig& chip,
                                     core::ReplayMode mode);

/// pruning: host milliseconds of one serve::quality_accuracy_proxy
/// evaluation (DeepSeek-VL at keep 0.75), i.e. one evaluate_task_proxy run.
double probe_pruning_proxy_ms();

/// model: host microseconds per model::build_prefill_chunk call
/// (DeepSeek-VL, a 256-token chunk of a 900-token prompt at keep 0.75).
double probe_model_prefill_chunk_us();

/// serve: host nanoseconds per KvPageAllocator operation, cycling
/// try_join / try_append / swap_out / try_swap_in / release over
/// requests sharing prefix runs.
double probe_kv_op_ns();

}  // namespace edgemm::perfbench

#endif  // EDGEMM_PERFBENCH_PROBES_HPP
