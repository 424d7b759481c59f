// The decode batch's one KV ledger: fixed-size pages over the KV byte
// budget, with copy-on-write prefix sharing and an evict-to-DRAM swap
// tier. It runs in two modes; the allocator itself has no mode switch:
//   - whole-footprint (the default, paged_kv off): a 1-byte page. A
//     request joining the decode batch reserves its FULL final footprint
//     (kv_footprint_bytes) in one join, never appends and never swaps; a
//     join that would overflow is deferred by the engine;
//   - paged (paged_kv): a request joining the decode batch reserves only
//     the pages its PROMPT occupies; the reservation then grows one page
//     at a time as generated tokens cross page boundaries (the engine's
//     per-token growth pass);
//   - requests with a common system/image prompt (Request::prefix_id)
//     share the prefix's FULL pages under one refcounted run — the first
//     attacher allocates and charges them once, later attachers ride for
//     free. The boundary page (a partial page where the shared prefix
//     ends and private tokens begin) is copy-on-write: each request
//     copies it into its private page table at join, because its first
//     divergent token writes into that page. Shared pages are freed
//     exactly once, when the last holder releases;
//   - when the CIM budget fills mid-decode, the engine preempts the
//     active request with the least-recent page-table touch: ALL of a
//     victim's private resident pages move to DRAM (swap-out releases
//     their CIM bytes), and the re-fetch bytes are charged when the
//     victim is refilled — preempt-and-refill instead of defer-at-join. A
//     shared run whose last resident holder leaves swaps out with it.
//
// Page identities are never observed, so a page table is just its
// resident and swapped page counts, and a shared run its page count.
// Conservation is the contract, asserted after every mutation:
//     pages_allocated() == resident_pages() + swapped_pages() + pages_freed()
// and resident_pages() / swapped_pages() equal the sums recomputed from
// the page tables and runs. (The budget governs which requests may
// decode; the allocator only ledgers swap costs as re-fetch BYTES. The
// ServingEngine turns every re-fetched byte into MC-lane DMA in the next
// decode step, so swap thrashing costs step time.)
#ifndef EDGEMM_SERVE_KV_PAGES_HPP
#define EDGEMM_SERVE_KV_PAGES_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"
#include "common/units.hpp"
#include "model/mllm_config.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Identifies one shared-prefix run: (model, prefix_id) pairs map to a
/// non-zero key; 0 means "no shared prefix".
using KvPrefixKey = std::uint64_t;

/// Default KV page size (EngineConfig::kv_page_bytes).
inline constexpr Bytes kDefaultKvPageBytes = 64 * 1024;

/// Largest Request::prefix_id the paged KV cache accepts: kv_prefix_key
/// packs the id into the key's low 32 bits.
inline constexpr std::size_t kMaxKvPrefixId = 0xFFFF'FFFFu;

/// Key of the shared-prefix run requests of `model` with this
/// `prefix_id` attach to; 0 (no sharing) when prefix_id is 0. Requires
/// prefix_id <= kMaxKvPrefixId.
KvPrefixKey kv_prefix_key(std::size_t model, std::size_t prefix_id);

/// Tokens one `page_bytes` page holds for `model`. Throws
/// std::invalid_argument when the page is smaller than one token's K+V
/// (a page must never charge less than the KV it stands for).
std::size_t kv_tokens_per_page(const model::MllmConfig& model,
                               Bytes page_bytes);

/// FULL pages of `r`'s shared prefix — the pages a request shares with
/// its (model, prefix_id) group. The partial boundary page is NOT
/// shared (it is copy-on-write forked into the private table). 0 when
/// the request carries no prefix.
std::size_t kv_shared_prefix_pages(const Request& r,
                                   const model::MllmConfig& model,
                                   Bytes page_bytes);

/// Page-granular KV footprint `r` reaches by its last generated token:
/// shared prefix pages (counted once per group, but each request must
/// fit them alone) plus its private pages — the paged analogue of
/// kv_footprint_bytes, and the bound the per-token growth pass never
/// exceeds. `prefix_sharing` off folds the prefix into the private
/// pages.
std::size_t kv_page_footprint(const Request& r,
                              const model::MllmConfig& model,
                              Bytes page_bytes, bool prefix_sharing);

/// Fixed-size page allocator over a KV byte budget. Tracks per-request
/// private page counts, refcounted shared-prefix runs and the DRAM swap
/// tier; asserts the conservation invariant after every mutation (see
/// the header comment).
class KvPageAllocator {
 public:
  /// Throws std::invalid_argument for a zero page size or a capacity
  /// smaller than one page.
  KvPageAllocator(Bytes capacity, Bytes page_bytes);

  Bytes page_bytes() const { return page_bytes_; }
  std::size_t total_pages() const { return total_pages_; }
  std::size_t free_pages() const { return total_pages_ - resident_count_; }
  /// Pages currently holding CIM budget (private + shared runs).
  std::size_t resident_pages() const { return resident_count_; }
  /// Pages currently evicted to DRAM (private + fully-swapped runs).
  std::size_t swapped_pages() const { return swapped_count_; }
  Bytes resident_bytes() const { return resident_count_ * page_bytes_; }
  Bytes peak_resident_bytes() const { return peak_resident_bytes_; }
  std::size_t holders() const { return tables_.size(); }
  bool holds(RequestId id) const { return tables_.count(id) > 0; }
  std::size_t resident_pages_of(RequestId id) const;
  std::size_t swapped_pages_of(RequestId id) const;
  /// Requests attached to `key`'s shared run (0 = no such run).
  std::size_t shared_refcount(KvPrefixKey key) const;

  // --- Cumulative counters (the conservation ledger) ---------------------
  std::size_t pages_allocated() const { return pages_allocated_; }
  std::size_t pages_freed() const { return pages_freed_; }
  std::size_t shared_attaches() const { return shared_attaches_; }
  /// Pages riders did NOT allocate because the run already held them —
  /// the bytes prefix sharing saved, in pages.
  std::size_t shared_pages_saved() const { return shared_pages_saved_; }
  std::size_t pages_swapped_out() const { return pages_swapped_out_; }
  std::size_t pages_swapped_in() const { return pages_swapped_in_; }
  /// Requests preempted to DRAM (swap_out calls).
  std::size_t preemptions() const { return preemptions_; }
  /// DRAM re-fetch bytes charged at swap-in (pages x page_bytes).
  Bytes swap_refetch_bytes() const { return swap_refetch_bytes_; }
  /// Failed try_join calls (each one is a deferred decode join).
  std::size_t deferrals() const { return deferrals_; }

  /// The conservation invariant, checkable at ANY probe cycle:
  /// allocated == resident + swapped + freed, the resident and swapped
  /// counts equal the sums over the page tables and runs, and the
  /// resident pages fit the budget.
  bool conserved() const;

  /// Joins `id` with `private_pages` pages, first attaching the shared
  /// run `prefix` of `shared_pages` full pages when prefix != 0 (a fresh
  /// attach allocates and charges the run once; a rider refcounts it —
  /// and refills it from DRAM, charging re-fetch, if the run swapped
  /// out). All-or-nothing: on failure nothing is held and one deferral
  /// is counted. Every request of a group must declare the same
  /// shared_pages (asserted). Throws std::logic_error when `id`
  /// already holds a page table.
  bool try_join(RequestId id, std::size_t private_pages,
                KvPrefixKey prefix = 0, std::size_t shared_pages = 0);

  /// One more private page for `id` (a generated token crossed a page
  /// boundary). False when no page is free — the engine then preempts a
  /// victim and retries. Not counted as a deferral.
  bool try_append(RequestId id);

  /// Preempts `id` to DRAM: ALL its private resident pages release
  /// their CIM bytes and become swapped. When `id` was its shared run's
  /// last RESIDENT holder, the run swaps out with it (its pages serve
  /// no resident request). Returns the private pages moved. Throws
  /// std::logic_error when `id` holds nothing or is already swapped.
  std::size_t swap_out(RequestId id);

  /// Refills `id` from DRAM: re-acquires its swapped private pages (and
  /// its shared run's, if the run swapped out), charging the re-fetch
  /// bytes. False when the pages do not fit yet.
  bool try_swap_in(RequestId id);

  /// Releases `id`'s page table — resident or swapped — freeing every
  /// private page exactly once, and the shared run's pages exactly once
  /// when `id` was the last holder. A still-referenced run whose last
  /// RESIDENT holder leaves swaps out (its pages must not squat on the
  /// CIM budget with every holder in DRAM). Throws std::logic_error if
  /// `id` holds nothing.
  void release(RequestId id);

 private:
  /// One refcounted shared-prefix run (the CoW-shared FULL pages).
  struct SharedRun {
    std::size_t refs = 0;           ///< holders, resident or swapped
    std::size_t resident_refs = 0;  ///< holders whose table is resident
    bool swapped = false;           ///< run pages evicted to DRAM
    std::size_t pages = 0;          ///< run length (fixed at creation)
  };
  /// One request's private page table.
  struct PageTable {
    std::size_t resident = 0;  ///< private pages holding CIM budget
    std::size_t swapped = 0;   ///< private pages in DRAM
    KvPrefixKey prefix = 0;    ///< 0 = no shared run
    bool out = false;          ///< request preempted to DRAM
  };

  /// Charges `pages` free pages to the budget (caller checked
  /// free_pages(); asserted here).
  void acquire(std::size_t pages);
  void swap_run_out(SharedRun& run);
  void assert_conserved() const;

  Bytes page_bytes_;
  std::size_t total_pages_;
  std::unordered_map<RequestId, PageTable> tables_;
  std::unordered_map<KvPrefixKey, SharedRun> runs_;
  std::size_t resident_count_ = 0;
  std::size_t swapped_count_ = 0;
  Bytes peak_resident_bytes_ = 0;
  std::size_t pages_allocated_ = 0;
  std::size_t pages_freed_ = 0;
  std::size_t shared_attaches_ = 0;
  std::size_t shared_pages_saved_ = 0;
  std::size_t pages_swapped_out_ = 0;
  std::size_t pages_swapped_in_ = 0;
  std::size_t preemptions_ = 0;
  Bytes swap_refetch_bytes_ = 0;
  std::size_t deferrals_ = 0;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_KV_PAGES_HPP
