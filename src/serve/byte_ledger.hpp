// Reserve/release byte ledger keyed by request id — the core of
// WeightResidencyTracker (prefill weight pins). It owns the overcommit,
// duplicate-hold and unknown-release invariants; the tracker adds its
// domain counters (fallbacks, peak) on top.
#ifndef EDGEMM_SERVE_BYTE_LEDGER_HPP
#define EDGEMM_SERVE_BYTE_LEDGER_HPP

#include <cstddef>
#include <unordered_map>

#include "common/types.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Fixed-capacity byte ledger. Never overcommits and never blocks:
/// filling to exactly capacity succeeds, one byte over fails.
class ByteLedger {
 public:
  /// Throws std::invalid_argument for a zero capacity; `what` names the
  /// owning tracker in error messages.
  ByteLedger(Bytes capacity, const char* what);

  Bytes capacity() const { return capacity_; }
  Bytes held() const { return held_bytes_; }
  Bytes available() const { return capacity_ - held_bytes_; }
  std::size_t holders() const { return held_.size(); }

  /// Bytes held under `id` (0 when `id` holds nothing).
  Bytes held_by(RequestId id) const;

  /// Acquires `bytes` for `id`; false when it does not fit. Throws
  /// std::logic_error when `id` already holds an acquisition.
  bool try_acquire(RequestId id, Bytes bytes);

  /// Releases `id`'s acquisition; throws std::logic_error if absent.
  void release(RequestId id);

 private:
  Bytes capacity_;
  Bytes held_bytes_ = 0;
  const char* what_;
  std::unordered_map<RequestId, Bytes> held_;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_BYTE_LEDGER_HPP
