// Weight-residency accounting for chunked prefill (the ROADMAP item
// "weight-resident chunk chaining").
//
// PR 2's ChunkedPrefill is honest about its cost: every chunk re-fetches
// the full layer weights, multiplying CC weight traffic by the chunk
// count. EdgeMM's premise — and the reason CHIME / SLIM push weights
// toward near-memory or scratchpad residency — is that edge DRAM
// bandwidth is the scarce resource, so a layer group pinned on-chip
// across consecutive chunks of the SAME request recovers most of the
// monolithic-prefill traffic while keeping chunking's interactivity.
//
// This tracker is the byte ledger behind that: a pin covering as many
// whole layer groups as fit the remaining budget is acquired when the
// first chunk fetches them; later chunks mark those layers' weight ops
// `weights_resident` (zero weight DMA, see
// core::GemmWork::weights_resident). A competing pin that would
// overflow the budget is NEVER allowed to stall the lane: the
// acquisition fails, the request simply keeps re-fetching (the PR 2
// behavior), and the failure is counted as a fallback.
//
// Pins are REFCOUNTED and model-scoped (PR 4): the weights of a model's
// layer groups are the same bytes no matter which request streams them,
// so two in-flight requests serving the same model share ONE pin — the
// first attach fetches and charges the budget, later attaches under the
// same key ride for free (shared_attaches counter), and the bytes are
// released only when the LAST attached request detaches.
//
// Two PR 5 extensions make the pins placement- and timing-aware:
//   - FILL BARRIER: a fresh pin starts UNFILLED — its bytes are only on
//     chip once the owner's fill chunk retires (mark_filled). A rider
//     whose chunk dispatches before that must re-fetch the whole pin;
//     the engine checks filled() at submit time and accounts the
//     re-fetch (ServingResult::rider_refetch_bytes).
//   - KEEP-WARM / EVICT-IDLE: detach(key, keep_resident = true) keeps a
//     pin's bytes resident after its refcount hits zero (an IDLE pin) so
//     the model's next request attaches warm (warm_attaches) with no
//     fill fetch and no barrier. Idle pins are reclaimed explicitly
//     (evict_idle / evict_all_idle, idle_evictions counter) — which
//     models to keep warm or evict is a PlacementPolicy decision, not
//     the tracker's.
//
// The natural budget unit is the CC-side TCDM of the chip
// (chip_weight_residency_capacity below, from
// ChipConfig::cc_cluster_tcdm_bytes). As with the KV budget, the
// Fig. 10 chip's physical scratchpad (512 KiB total) is far below one
// LLM layer group, so meaningful budgets are expressed as an
// oversubscription multiple of it — the tracker then models the
// near-memory / enlarged-scratchpad design point the related work
// targets, not the taped-out SRAM.
#ifndef EDGEMM_SERVE_RESIDENCY_TRACKER_HPP
#define EDGEMM_SERVE_RESIDENCY_TRACKER_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/byte_ledger.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Sanity ceiling on the residency oversubscription a serving engine
/// accepts: budgets above kMaxWeightResidencyOversubscription x the
/// physical CC TCDM are rejected at engine construction (they would
/// model a "scratchpad" larger than any near-memory design point and
/// usually indicate a bytes-vs-MiB unit slip).
inline constexpr double kMaxWeightResidencyOversubscription = 65536.0;

/// CC-side weight-residency budget of `config`: oversubscription x total
/// CC clusters x per-cluster TCDM bytes. Throws std::invalid_argument
/// for a non-positive oversubscription.
Bytes chip_weight_residency_capacity(const core::ChipConfig& config,
                                     double oversubscription = 1.0);

/// Bytes of ONE of `model`'s LLM layer groups as fetched on the CC lane
/// — the granularity pins are carved at and the unit residency budgets
/// should be sized in (model::llm_layer_weight_elems x the CC weight
/// element size).
Bytes llm_layer_group_bytes(const model::MllmConfig& model,
                            const core::ChipConfig& config);

/// Key a weight pin is held under. The serving engine uses the MODEL
/// index: every in-flight request of a model attaches to one refcounted
/// pin. A key must stay on one API: either the refcounted attach/detach
/// pair or the low-level try_pin/release pair, never both.
using PinKey = std::uint64_t;

/// Pin/release ledger over a fixed byte capacity (a ByteLedger plus the
/// pin/fallback/peak counters and a refcount per pin). The tracker
/// never overcommits and never blocks — a pin that does not fit fails
/// immediately (the caller falls back to re-fetching weights).
class WeightResidencyTracker {
 public:
  /// Outcome of one attach_layers call.
  struct AttachResult {
    /// Layer groups resident under the pin the caller attached to
    /// (0 = no pin: the budget could not fit a single group).
    std::size_t layers = 0;
    /// True when the attach rode an EXISTING pin: the bytes were already
    /// charged by an earlier attach, so the caller's next chunk can skip
    /// the pinned layers' weight DMA immediately (no fill fetch needed —
    /// though a rider of an unfilled pin still re-fetches under the
    /// engine's fill barrier until the fill lands).
    bool shared = false;
    /// True when the attach revived an IDLE pin (refcount was zero but
    /// the bytes were kept resident by a keep-warm detach): the weights
    /// are on chip AND filled, so every chunk rides barrier-free.
    bool warm = false;
  };

  /// Throws std::invalid_argument for a zero capacity.
  explicit WeightResidencyTracker(Bytes capacity);

  Bytes capacity() const { return ledger_.capacity(); }
  Bytes pinned() const { return ledger_.held(); }
  Bytes available() const { return ledger_.available(); }
  std::size_t holders() const { return ledger_.holders(); }
  /// Successful pin acquisitions so far.
  std::size_t pins() const { return pins_; }
  /// Failed acquisitions so far (each one is a chunk tail that keeps
  /// re-fetching weights instead of riding a pin).
  std::size_t fallbacks() const { return fallbacks_; }
  /// Attaches that rode an existing LIVE pin (refcount > 0) instead of
  /// charging the budget (the multi-tenant win: every one is a whole
  /// prefill's weight DMA shared instead of duplicated).
  std::size_t shared_attaches() const { return shared_attaches_; }
  /// Attaches that revived an idle (kept-warm) pin: refcount 0 -> 1 with
  /// the bytes already resident and filled.
  std::size_t warm_attaches() const { return warm_attaches_; }
  /// Idle pins reclaimed via evict_idle (placement-policy evictions;
  /// excludes the end-of-replay evict_all_idle flush).
  std::size_t idle_evictions() const { return idle_evictions_; }
  /// High-water mark of simultaneously pinned bytes.
  Bytes peak_pinned() const { return peak_pinned_; }
  /// Pins currently resident with a zero refcount (kept warm).
  std::size_t idle_pins() const;
  /// Bytes held by idle pins — reclaimable without touching any live pin.
  Bytes idle_pinned_bytes() const;

  /// Refcounted attach under `key`. If `key` already holds a pin, the
  /// refcount is incremented and the existing pin is returned with
  /// `shared = true` — no bytes charged, no fetch needed. Otherwise pins
  /// as many whole layer groups of `bytes_per_layer` as fit, up to
  /// `max_layers` (partial residency is the point: a budget worth three
  /// layer groups still saves three layers' worth of re-fetches per
  /// chunk); a budget that cannot fit one group returns layers = 0, is
  /// counted as a fallback and holds NOTHING (detach would throw).
  /// Throws std::invalid_argument for zero bytes_per_layer or
  /// max_layers.
  AttachResult attach_layers(PinKey key, Bytes bytes_per_layer,
                             std::size_t max_layers);

  /// Detaches one holder from `key`'s pin. When the refcount reaches
  /// zero the bytes are released (evicted) — unless `keep_resident` is
  /// true, in which case the pin stays on chip as an IDLE pin (zero
  /// refcount, bytes still charged, fill state preserved) for the next
  /// same-key attach to revive warm. Throws std::logic_error when `key`
  /// holds no attached pin.
  void detach(PinKey key, bool keep_resident = false);

  /// Marks `key`'s pin as filled: its owner's fill fetch has retired and
  /// the bytes are genuinely on chip, so riders stop re-fetching. Throws
  /// std::logic_error when `key` holds no pin.
  void mark_filled(PinKey key);

  /// True when `key`'s pin exists and its fill has landed. False for an
  /// unfilled pin AND for no pin at all (nothing to ride either way).
  bool filled(PinKey key) const;

  /// Evicts `key`'s IDLE pin (refcount zero, kept warm): the bytes are
  /// released and idle_evictions is counted. Throws std::logic_error
  /// when `key` holds no pin or the pin still has holders.
  void evict_idle(PinKey key);

  /// Evicts every idle pin (end-of-replay flush); returns the count.
  /// NOT counted in idle_evictions — it is bookkeeping, not placement.
  std::size_t evict_all_idle();

  /// Requests currently attached to `key`'s pin (0 = no pin — note an
  /// idle kept-warm pin also reports 0; see resident_layers).
  std::size_t refcount(PinKey key) const;
  /// Layer groups resident under `key`'s pin, idle pins included
  /// (0 = no pin).
  std::size_t resident_layers(PinKey key) const;

  // --- Low-level non-refcounted core (attach_layers builds on these) ----
  /// Pins `bytes` for `id`. Filling the budget to exactly capacity
  /// succeeds; one byte over fails (and counts a fallback). Throws
  /// std::logic_error when `id` already holds a pin.
  bool try_pin(RequestId id, Bytes bytes);

  /// Pins as many whole layer groups of `bytes_per_layer` as fit, up to
  /// `max_layers`; returns the number pinned (0 = fallback, counted).
  /// Throws std::invalid_argument for zero bytes_per_layer or max_layers.
  std::size_t try_pin_layers(RequestId id, Bytes bytes_per_layer,
                             std::size_t max_layers);

  /// Releases `id`'s pin; throws std::logic_error if absent.
  void release(RequestId id);

 private:
  /// One refcounted pin (attach_layers/detach bookkeeping on top of the
  /// ledger entry held under the same key). refs == 0 with the entry
  /// still present = an idle kept-warm pin.
  struct Pin {
    std::size_t layers = 0;
    std::size_t refs = 0;
    /// False until the owner's fill fetch retires (mark_filled); riders
    /// of an unfilled pin re-fetch under the engine's fill barrier.
    bool filled = false;
  };

  ByteLedger ledger_;
  std::unordered_map<PinKey, Pin> pins_by_key_;
  Bytes peak_pinned_ = 0;
  std::size_t pins_ = 0;
  std::size_t fallbacks_ = 0;
  std::size_t shared_attaches_ = 0;
  std::size_t warm_attaches_ = 0;
  std::size_t idle_evictions_ = 0;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_RESIDENCY_TRACKER_HPP
