// Layered benchmark of the EdgeMM serving simulator.
//
//   edgemm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Generates the workload's request trace from the seed, then replays it
// through the public serving API (ServingEngine constructor -> run) for
// about S seconds of host time, one fresh engine per replay, timing
// batches of engine constructions between replays. Every replay is
// checked as it finishes: each request completes or is rejected, the KV
// page ledger drains, and it is bit-identical to the first replay. The
// detailed-tier zoo's fast-tier twin must stay within 1 % of its makespan.
//
// --trace 0 reports the end-to-end metrics (host and simulated). --trace 1
// is the separate traced run: untraced replays, then one traced replay and
// the layer probes; it reports the per-layer metrics and writes every span
// as Chrome trace-event JSON to PATH. The last line of stdout is the
// result object; progress goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fast_replay.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"
#include "workloads.hpp"

namespace {

using namespace edgemm;
using perfbench::Metric;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;
/// setup_s comes from batches of kSetupsPerBatch back-to-back set-ups
/// (one set-up alone is tens of microseconds), timed for kSetupSliceSeconds
/// before every replay and from the last replay to the end of the window.
/// A batch takes well under a millisecond, so it sees one of the shared
/// host's two speed states, which switch every fraction of a second to
/// tens of seconds. The metric is the fastest batch: the fast state's
/// time. A median or a low percentile jumps between the states with the
/// share of the run the host spent in each (README.md).
constexpr double kSetupSliceSeconds = 0.5;
constexpr std::size_t kSetupsPerBatch = 10;
/// Host seconds the traced run keeps in its window for the layer probes.
constexpr double kProbeSeconds = 5.0;
/// Largest fast-tier twin makespan drift the zoo may show (percent).
constexpr double kMaxTwinDriftPct = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

/// Records host wall-clock spans relative to the program's start; a null
/// log records nothing (the untraced path).
class HostSpans {
 public:
  explicit HostSpans(Clock::time_point origin) : origin_(origin) {}

  void set_log(SpanLog* log) { log_ = log; }

  /// Runs `work` and returns its wall time in seconds, recording it as a
  /// span on thread track `tid` when a log is attached.
  double timed(const char* name, const char* layer, std::uint64_t tid,
               const std::function<void()>& work) {
    const auto t0 = Clock::now();
    work();
    const auto t1 = Clock::now();
    if (log_ != nullptr) {
      log_->add({name, layer, SpanLog::kHostPid, tid, us(origin_, t0), us(t0, t1), -1});
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }

 private:
  static double us(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  }

  Clock::time_point origin_;
  SpanLog* log_ = nullptr;
};

/// Counters only the engine's const accessors expose, read before the
/// engine goes away.
struct EngineCounters {
  Bytes dram_bytes = 0;
  std::uint64_t fast_streams = 0;
};

/// One replay: its wall time and its simulated outcome.
struct Replay {
  double replay_s = 0.0;
  serve::ServingResult result;
  std::vector<serve::RequestRecord> records;
  EngineCounters counters;
};

std::unique_ptr<serve::ServingEngine> construct(perfbench::Composition& c) {
  return std::make_unique<serve::ServingEngine>(c.chip, std::move(c.models),
                                                std::move(c.engine));
}

/// Appends set-up timings (seconds per set-up, one per batch) to
/// `samples` until `until`, at least one batch.
/// A set-up is the ServingEngine constructor alone: the trace is the
/// run's input, and each composition is built before the clock starts
/// and its engine destroyed after it stops.
void sample_setup(const std::string& workload, const std::vector<serve::Request>& requests,
                  Clock::time_point until, std::vector<double>& samples) {
  do {
    Clock::duration total{};
    for (std::size_t k = 0; k < kSetupsPerBatch; ++k) {
      perfbench::Composition c = perfbench::make_composition(workload, requests);
      const auto t0 = Clock::now();
      const std::unique_ptr<serve::ServingEngine> engine = construct(c);
      total += Clock::now() - t0;
    }
    samples.push_back(std::chrono::duration<double>(total).count() /
                      static_cast<double>(kSetupsPerBatch));
  } while (Clock::now() < until);
}

/// Constructs a fresh engine and replays `requests` on it.
Replay replay_once(const std::string& workload, const std::vector<serve::Request>& requests,
                   HostSpans& spans, std::uint64_t tid) {
  Replay out;
  perfbench::Composition c = perfbench::make_composition(workload, requests);
  std::unique_ptr<serve::ServingEngine> engine;
  spans.timed("ServingEngine constructor", "serve", tid, [&] { engine = construct(c); });
  std::vector<serve::Request> input = requests;
  out.replay_s = spans.timed("ServingEngine::run", "serve", tid,
                             [&] { out.result = engine->run(std::move(input)); });
  out.records = engine->records();
  out.counters.dram_bytes = engine->chip().dram().bytes_served();
  const core::FastMemoryModel* fast = engine->chip().fast_model();
  out.counters.fast_streams = fast != nullptr ? fast->streams_completed() : 0;
  return out;
}

double ms(Cycle cycles, double clock_hz) {
  return 1e3 * static_cast<double>(cycles) / clock_hz;
}

/// Simulated per-request latencies of the completed requests.
struct Latencies {
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> queue_ms;
};

Latencies latencies(const std::vector<serve::RequestRecord>& records, double clock_hz) {
  Latencies l;
  for (const serve::RequestRecord& r : records) {
    if (!r.done) continue;
    l.ttft_ms.push_back(ms(r.first_token - r.request.arrival, clock_hz));
    l.queue_ms.push_back(ms(r.queue_delay_cycles(), clock_hz));
    if (r.tokens_generated > 1) {
      l.tpot_ms.push_back(ms(r.finish - r.first_token, clock_hz) /
                          static_cast<double>(r.tokens_generated - 1));
    }
  }
  return l;
}

/// Per-request simulated spans (arrival -> prefill start -> prefill end
/// -> first token -> finish) on the simulated-time timeline, one track
/// per request.
void add_request_spans(SpanLog& log, const std::vector<serve::RequestRecord>& records,
                       double clock_hz) {
  const auto us = [&](Cycle c) { return 1e6 * static_cast<double>(c) / clock_hz; };
  for (const serve::RequestRecord& r : records) {
    const auto id = static_cast<std::int64_t>(r.request.id);
    const auto tid = static_cast<std::uint64_t>(r.request.id);
    if (!r.done) {
      log.add({"rejected", "serve", SpanLog::kSimPid, tid, us(r.request.arrival), 0.0, id});
      continue;
    }
    const Cycle marks[] = {r.request.arrival, r.prefill_start, r.prefill_end, r.first_token,
                           r.finish};
    const char* names[] = {"queued", "prefill", "await first token", "decode"};
    for (std::size_t k = 0; k < 4; ++k) {
      log.add({names[k], "request", SpanLog::kSimPid, tid, us(marks[k]),
               us(marks[k + 1]) - us(marks[k]), id});
    }
  }
}

/// The checks every replay gets as it finishes: each request completed or
/// was rejected, the KV page ledger drained, and the outcome is
/// bit-identical to the first replay's. Appends failures to `failures`.
void check_replay(std::size_t index, const Replay& replay, const Replay& first,
                  std::size_t attempted, std::vector<std::string>& failures) {
  const std::string label = "replay " + std::to_string(index);
  const serve::ServingResult& r = replay.result;
  if (r.completed + r.rejected != attempted) {
    failures.push_back(label + ": completed + rejected != attempted");
  }
  if (r.kv_pages_allocated != r.kv_pages_freed) {
    failures.push_back(label + ": KV pages allocated != freed");
  }
  bool same = serve::results_identical(r, first.result) &&
              replay.records.size() == first.records.size();
  for (std::size_t k = 0; same && k < first.records.size(); ++k) {
    same = serve::record_identical(replay.records[k], first.records[k]);
  }
  if (!same) failures.push_back(label + " differs from replay 0");
}

/// The fidelity gate of a detailed-tier workload: the same trace on the
/// fast tier stays within kMaxTwinDriftPct of the detailed makespan and
/// completes and rejects the same requests. Appends failures.
void check_fast_twin(const perfbench::WorkloadSpec& spec,
                     const std::vector<serve::Request>& requests, const Replay& first,
                     std::vector<std::string>& failures) {
  const serve::ServingResult& r0 = first.result;
  perfbench::Composition c = perfbench::make_composition(spec.name, requests);
  c.engine.replay_mode(core::ReplayMode::kFast);
  const serve::ReplayOutcome twin = serve::replay_trace(c.chip, c.models, c.engine, requests);
  const double drift_pct =
      100.0 * std::fabs(twin.result.makespan_ms - r0.makespan_ms) / r0.makespan_ms;
  std::fprintf(stderr, "fast-tier twin: makespan drift %.3f %%\n", drift_pct);
  if (drift_pct > kMaxTwinDriftPct || twin.result.completed != r0.completed ||
      twin.result.rejected != r0.rejected) {
    failures.push_back("fast-tier twin drifts from the detailed replay");
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const Replay& first, std::size_t attempted,
                                       double setup_s, double clock_hz) {
  const serve::ServingResult& r = first.result;
  const Latencies l = latencies(first.records, clock_hz);
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"sim_tokens_per_s", r.tokens_per_second, "1/s"},
      {"sim_makespan_s", r.makespan_ms / 1e3, "s"},
      {"tpot_p50_ms", perfbench::percentile(l.tpot_ms, 50.0), "ms"},
      {"served_share", 1.0 - perfbench::failed_share(attempted, r.completed), "share"},
      {"accuracy_proxy_mean", r.accuracy_proxy_mean, "share"},
  };
}

/// `replay_s` is the median untraced replay, `traced_replay_s` the wall
/// time of the one traced replay.
std::vector<Metric> per_layer_metrics(const Replay& first, std::size_t attempted,
                                      double replay_s, double traced_replay_s,
                                      const core::ChipConfig& chip, HostSpans& spans) {
  const serve::ServingResult& r = first.result;
  const Latencies l = latencies(first.records, chip.clock_hz);
  const double tail = perfbench::tail_percentile(r.completed);

  // Layer probes, each inside its own span (thread track 0).
  const auto probe = [&](const char* name, const char* layer, const std::function<double()>& f) {
    double value = 0.0;
    spans.timed(name, layer, 0, [&] { value = f(); });
    return value;
  };
  const double events = probe("probe sim::Simulator", "sim", perfbench::probe_sim_events_per_s);
  const double bursts = probe("probe mem::DmaEngine", "mem",
                              [&] { return perfbench::probe_mem_bursts_per_s(chip); });
  const double detailed = probe("probe ChipTimingModel (detailed)", "core", [&] {
    return perfbench::probe_core_host_ms_per_sim_ms(chip, core::ReplayMode::kDetailed);
  });
  const double fast = probe("probe ChipTimingModel (fast)", "core", [&] {
    return perfbench::probe_core_host_ms_per_sim_ms(chip, core::ReplayMode::kFast);
  });
  const double proxy =
      probe("probe quality_accuracy_proxy", "pruning", perfbench::probe_pruning_proxy_ms);
  const double chunk = probe("probe model::build_prefill_chunk", "model",
                             perfbench::probe_model_prefill_chunk_us);
  const double kv = probe("probe KvPageAllocator", "serve", perfbench::probe_kv_op_ns);

  return {
      // Host time, per layer.
      {"sim.events_per_s", events, "1/s"},
      {"mem.bursts_per_s", bursts, "1/s"},
      {"core.detailed_host_ms_per_sim_ms", detailed, "ms/ms"},
      {"core.fast_host_ms_per_sim_ms", fast, "ms/ms"},
      {"pruning.proxy_ms_per_eval", proxy, "ms"},
      {"model.prefill_chunk_build_us", chunk, "us"},
      {"serve.kv.op_ns", kv, "ns"},
      {"serve.host_us_per_rebalance",
       perfbench::ratio(1e6 * replay_s, static_cast<double>(r.rebalances)), "us"},
      {"serve.host_us_per_decode_step",
       perfbench::ratio(1e6 * replay_s, static_cast<double>(r.decode_steps)), "us"},
      {"replay_s", replay_s, "s"},
      {"bench.tracing_overhead_ms", 1e3 * (traced_replay_s - replay_s), "ms"},
      // Simulated: requests and latency tails.
      {"serve.completed", static_cast<double>(r.completed), "count"},
      {"serve.rejected", static_cast<double>(r.rejected), "count"},
      {"serve.failed_share", perfbench::failed_share(attempted, r.completed), "share"},
      {"serve.slo_attainment", r.slo_attainment, "share"},
      {"serve.tail_percentile", tail, "pct"},
      {"serve.ttft_p50_ms", perfbench::percentile(l.ttft_ms, 50.0), "ms"},
      {"serve.ttft_tail_ms", tail > 0.0 ? perfbench::percentile(l.ttft_ms, tail) : 0.0, "ms"},
      {"serve.tpot_tail_ms", tail > 0.0 ? perfbench::percentile(l.tpot_ms, tail) : 0.0, "ms"},
      {"serve.queue_delay_p50_ms", perfbench::percentile(l.queue_ms, 50.0), "ms"},
      {"serve.queue_delay_tail_ms", tail > 0.0 ? perfbench::percentile(l.queue_ms, tail) : 0.0,
       "ms"},
      {"serve.peak_queue_depth", static_cast<double>(r.peak_queue_depth), "count"},
      // Simulated: decode batching and KV paging.
      {"serve.mean_decode_batch", r.mean_decode_batch, "count"},
      {"serve.peak_decode_batch", static_cast<double>(r.peak_decode_batch), "count"},
      {"serve.decode_steps", static_cast<double>(r.decode_steps), "count"},
      {"serve.kv.pages_allocated", static_cast<double>(r.kv_pages_allocated), "count"},
      {"serve.kv.shared_pages_saved", static_cast<double>(r.kv_shared_pages_saved), "count"},
      {"serve.kv.pages_swapped_out", static_cast<double>(r.kv_pages_swapped_out), "count"},
      {"serve.kv.swap_refetch_mib", static_cast<double>(r.kv_swap_refetch_bytes) / kMiB, "MiB"},
      {"serve.kv.peak_reserved_mib", static_cast<double>(r.peak_kv_reserved_bytes) / kMiB,
       "MiB"},
      {"serve.kv.deferrals", static_cast<double>(r.kv_deferrals), "count"},
      // Simulated: weight residency and placement.
      {"serve.residency.weight_fetch_gib", static_cast<double>(r.cc_weight_fetch_bytes) / kGiB,
       "GiB"},
      {"serve.residency.weight_saved_gib", static_cast<double>(r.cc_weight_bytes_saved) / kGiB,
       "GiB"},
      {"serve.residency.rider_refetch_gib", static_cast<double>(r.rider_refetch_bytes) / kGiB,
       "GiB"},
      {"serve.residency.warm_attaches", static_cast<double>(r.weight_warm_attaches), "count"},
      {"serve.placement.evictions", static_cast<double>(r.placement_evictions), "count"},
      {"serve.placement.denials", static_cast<double>(r.placement_denials), "count"},
      // Simulated: quality seam.
      {"serve.quality.downgrades", static_cast<double>(r.quality_downgrades), "count"},
      {"serve.quality.restores", static_cast<double>(r.quality_restores), "count"},
      {"serve.quality.degraded_tokens", static_cast<double>(r.tokens_at_degraded_quality),
       "count"},
      {"serve.quality.accuracy_proxy_min", r.accuracy_proxy_min, "share"},
      // Simulated: lanes, timing tiers and DRAM.
      {"core.prefill_jobs", static_cast<double>(r.prefill_jobs), "count"},
      {"core.max_cc_queue_delay_ms", r.max_cc_queue_delay_ms, "ms"},
      {"core.rebalances", static_cast<double>(r.rebalances), "count"},
      {"core.fast_streams", static_cast<double>(first.counters.fast_streams), "count"},
      {"mem.dram_gib", static_cast<double>(first.counters.dram_bytes) / kGiB, "GiB"},
      {"mem.dram_utilization", r.dram_utilization, "share"},
  };
}

int run(const Args& args) {
  const Clock::time_point origin = Clock::now();
  const perfbench::WorkloadSpec& spec = perfbench::find_workload(args.workload);
  const core::ChipConfig chip = perfbench::bench_chip();
  SpanLog log;
  HostSpans spans(origin);

  // The workload's trace is the input of every replay; the traced replay
  // generates it again inside a span.
  const std::vector<serve::Request> requests = perfbench::generate_requests(spec.name, args.seed);
  const std::size_t n = requests.size();

  // Only the first replay is kept. Every replay is checked as it finishes
  // (against the first for bit-identity) and then dropped, so memory does
  // not grow with the number of replays.
  Replay first;
  std::size_t replay_count = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto finish = [&](Replay rep) {
    const std::size_t index = replay_count++;
    const std::size_t resolved = rep.result.completed + rep.result.rejected;
    attempted += n;
    failed += n > resolved ? n - resolved : 0;
    if (index == 0) first = std::move(rep);
    check_replay(index, index == 0 ? first : rep, first, n, failures);
  };

  // Untraced replays until the measuring window closes; a replay that
  // would overrun it is not started. There are always two replays, so the
  // bit-identity check has a pair: the traced run ends with one traced
  // replay (the tracing overhead is its excess over the untraced median)
  // and keeps room for it and the probes inside the window.
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline = origin + secs(args.seconds);
  const std::size_t untraced_min = args.trace ? 1 : 2;
  std::vector<double> replay_times;   // untraced replays
  std::vector<double> setup_samples;  // untraced run only
  const auto next_replay = [&] {
    if (!args.trace) {
      sample_setup(spec.name, requests, Clock::now() + secs(kSetupSliceSeconds), setup_samples);
    }
    Replay rep = replay_once(spec.name, requests, spans, replay_count + 1);
    replay_times.push_back(rep.replay_s);
    finish(std::move(rep));
  };
  while (replay_count < untraced_min) next_replay();
  const double replay_share = args.trace ? 2.0 : 1.0;  // the next one, plus the traced one
  const double reserve_s = args.trace ? kProbeSeconds : 0.0;
  while (Clock::now() + secs(replay_share * replay_times.back() + reserve_s) < deadline) {
    next_replay();
  }
  if (!args.trace) sample_setup(spec.name, requests, deadline, setup_samples);
  double traced_replay_s = 0.0;
  if (args.trace) {
    spans.set_log(&log);
    const std::uint64_t tid = replay_count + 1;
    std::vector<serve::Request> regenerated;
    spans.timed("generate_requests (stratified trace)", "serve", tid,
                [&] { regenerated = perfbench::generate_requests(spec.name, args.seed); });
    Replay rep = replay_once(spec.name, regenerated, spans, tid);
    traced_replay_s = rep.replay_s;
    finish(std::move(rep));
  }
  const double replay_s = perfbench::median(replay_times);
  std::fprintf(stderr, "%s seed %llu (held-out seed %llu): %zu requests, replays [s]:",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(spec.held_out_seed), n);
  for (const double t : replay_times) std::fprintf(stderr, " %.3f", t);
  if (args.trace) std::fprintf(stderr, ", traced %.3f", traced_replay_s);
  std::fprintf(stderr, "\n");
  const double setup_s =
      setup_samples.empty() ? 0.0 : *std::min_element(setup_samples.begin(), setup_samples.end());
  if (!setup_samples.empty()) {
    std::fprintf(stderr, "set-up [us]: fastest batch %.2f, p10 %.2f, median %.2f over %zu batches\n",
                 1e6 * setup_s, 1e6 * perfbench::percentile(setup_samples, 10.0),
                 1e6 * perfbench::median(setup_samples), setup_samples.size());
  }

  if (spec.fast_twin_gate) check_fast_twin(spec, requests, first, failures);
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer_metrics(first, n, replay_s, traced_replay_s, chip, spans);
    add_request_spans(log, first.records, chip.clock_hz);
    if (!args.trace_out.empty()) {
      const std::string body = log.json();
      std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
      bool written = f != nullptr;
      if (written) {
        written = std::fwrite(body.data(), 1, body.size(), f) == body.size();
        written = std::fclose(f) == 0 && written;
      }
      if (!written) {
        std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %zu spans -> %s\n", log.spans().size(),
                   args.trace_out.c_str());
    }
  } else {
    metrics = end_to_end_metrics(first, n, setup_s, chip.clock_hz);
  }
  std::printf("%s\n",
              perfbench::result_json(failures.empty(), attempted, failed, metrics).c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
