#include "serve/sweep.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace edgemm::serve {

namespace {

/// Bounded MPMC ring buffer of case indices (mt_circular_queue shape:
/// mutex + two condvars + head/tail over a fixed store). The sweep
/// pushes every index up front and closes the queue; workers pop until
/// empty-and-closed.
class IndexQueue {
 public:
  explicit IndexQueue(std::size_t capacity)
      : store_(capacity > 0 ? capacity : 1) {}

  void push(std::size_t value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return size_ < store_.size(); });
    store_[(head_ + size_) % store_.size()] = value;
    ++size_;
    not_empty_.notify_one();
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }

  /// False once the queue is drained and closed.
  bool pop(std::size_t& value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;
    value = store_[head_];
    head_ = (head_ + 1) % store_.size();
    --size_;
    not_full_.notify_one();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<std::size_t> store_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
};

/// Replays cases[index] into outcomes[index] / errors[index]. Outcome
/// slots are fixed by case index, so thread scheduling cannot reorder or
/// perturb the results.
void run_case(const std::vector<SweepCase>& cases, std::size_t index,
              std::vector<SweepOutcome>& outcomes,
              std::vector<std::exception_ptr>& errors) {
  const auto start = std::chrono::steady_clock::now();
  try {
    const SweepCase& c = cases[index];
    ReplayOutcome replay = replay_trace(c.chip, c.models, c.engine, c.requests);
    outcomes[index].label = c.label;
    outcomes[index].result = replay.result;
    outcomes[index].records = std::move(replay.records);
  } catch (...) {
    errors[index] = std::current_exception();
  }
  outcomes[index].wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

}  // namespace

std::vector<SweepOutcome> run_sweep(const std::vector<SweepCase>& cases,
                                    const SweepOptions& options) {
  if (cases.empty()) {
    throw std::invalid_argument("run_sweep: empty case list");
  }
  std::vector<SweepOutcome> outcomes(cases.size());
  std::vector<std::exception_ptr> errors(cases.size());

  if (options.workers <= 1) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      run_case(cases, i, outcomes, errors);
    }
  } else {
    IndexQueue queue(cases.size());
    std::vector<std::thread> pool;
    pool.reserve(options.workers);
    for (std::size_t w = 0; w < options.workers; ++w) {
      pool.emplace_back([&] {
        std::size_t index = 0;
        while (queue.pop(index)) run_case(cases, index, outcomes, errors);
      });
    }
    for (std::size_t i = 0; i < cases.size(); ++i) queue.push(i);
    queue.close();
    for (std::thread& t : pool) t.join();
  }

  // Deterministic error surface too: always the lowest failing index.
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return outcomes;
}

bool results_identical(const ServingResult& a, const ServingResult& b) {
  return a == b;
}

bool record_identical(const RequestRecord& a, const RequestRecord& b) {
  return a == b;
}

bool outcomes_identical(const SweepOutcome& a, const SweepOutcome& b) {
  return a.label == b.label && a.result == b.result && a.records == b.records;
}

}  // namespace edgemm::serve
