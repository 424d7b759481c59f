#include "serve/kv_pages.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "model/workload.hpp"

namespace edgemm::serve {

KvPrefixKey kv_prefix_key(std::size_t model, std::size_t prefix_id) {
  if (prefix_id == 0) return 0;
  // Non-zero whenever prefix_id is: the model index occupies the high
  // word, so two models' groups never collide.
  return (static_cast<KvPrefixKey>(model) << 32) |
         static_cast<KvPrefixKey>(prefix_id);
}

std::size_t kv_tokens_per_page(const model::MllmConfig& model,
                               Bytes page_bytes) {
  if (page_bytes == 0) {
    throw std::invalid_argument("kv_tokens_per_page: page_bytes must be > 0");
  }
  const std::size_t tokens =
      static_cast<std::size_t>(page_bytes / model::kv_bytes_per_token(model));
  if (tokens == 0) {
    throw std::invalid_argument(
        "kv_tokens_per_page: page_bytes is smaller than one token's KV");
  }
  return tokens;
}

std::size_t kv_shared_prefix_pages(const Request& r,
                                   const model::MllmConfig& model,
                                   Bytes page_bytes) {
  if (r.prefix_id == 0) return 0;
  const std::size_t tokens = std::min(r.prefix_tokens, r.input_tokens);
  return tokens / kv_tokens_per_page(model, page_bytes);
}

std::size_t kv_page_footprint(const Request& r,
                              const model::MllmConfig& model,
                              Bytes page_bytes, bool prefix_sharing) {
  const std::size_t tpp = kv_tokens_per_page(model, page_bytes);
  const std::size_t shared =
      prefix_sharing ? kv_shared_prefix_pages(r, model, page_bytes) : 0;
  const std::size_t private_tokens =
      r.input_tokens + r.output_tokens - shared * tpp;
  return shared + (private_tokens + tpp - 1) / tpp;
}

KvPageAllocator::KvPageAllocator(Bytes capacity, Bytes page_bytes)
    : page_bytes_(page_bytes),
      total_pages_(page_bytes > 0
                       ? static_cast<std::size_t>(capacity / page_bytes)
                       : 0) {
  if (page_bytes_ == 0) {
    throw std::invalid_argument("KvPageAllocator: page_bytes must be > 0");
  }
  if (total_pages_ == 0) {
    throw std::invalid_argument(
        "KvPageAllocator: capacity must hold at least one page");
  }
}

std::size_t KvPageAllocator::resident_pages_of(RequestId id) const {
  const auto it = tables_.find(id);
  return it == tables_.end() ? 0 : it->second.resident;
}

std::size_t KvPageAllocator::swapped_pages_of(RequestId id) const {
  const auto it = tables_.find(id);
  return it == tables_.end() ? 0 : it->second.swapped;
}

std::size_t KvPageAllocator::shared_refcount(KvPrefixKey key) const {
  const auto it = runs_.find(key);
  return it == runs_.end() ? 0 : it->second.refs;
}

bool KvPageAllocator::conserved() const {
  // Recount from the tables and runs: the running counters must agree
  // with the state they summarize, not only with each other.
  std::size_t resident = 0;
  std::size_t swapped = 0;
  for (const auto& entry : tables_) {
    resident += entry.second.resident;
    swapped += entry.second.swapped;
  }
  for (const auto& entry : runs_) {
    (entry.second.swapped ? swapped : resident) += entry.second.pages;
  }
  return resident == resident_count_ && swapped == swapped_count_ &&
         pages_allocated_ ==
             resident_count_ + swapped_count_ + pages_freed_ &&
         resident_count_ <= total_pages_;
}

void KvPageAllocator::assert_conserved() const {
  EDGEMM_ASSERT_MSG(conserved(),
                    "KvPageAllocator: page ledger conservation violated "
                    "(allocated != resident + swapped + freed)");
}

void KvPageAllocator::acquire(std::size_t pages) {
  EDGEMM_ASSERT_MSG(pages <= free_pages(),
                    "KvPageAllocator: acquire without enough free pages");
  resident_count_ += pages;
  peak_resident_bytes_ =
      std::max<Bytes>(peak_resident_bytes_, resident_count_ * page_bytes_);
}

void KvPageAllocator::swap_run_out(SharedRun& run) {
  resident_count_ -= run.pages;
  run.swapped = true;
  swapped_count_ += run.pages;
  pages_swapped_out_ += run.pages;
}

bool KvPageAllocator::try_join(RequestId id, std::size_t private_pages,
                               KvPrefixKey prefix, std::size_t shared_pages) {
  if (tables_.count(id) > 0) {
    throw std::logic_error("KvPageAllocator: duplicate join for request id");
  }
  // shared_pages == 0 degenerates to no sharing (a prefix shorter than
  // one page has nothing shareable — its tokens live in the private
  // CoW boundary page).
  const bool with_prefix = prefix != 0 && shared_pages > 0;
  SharedRun* run = nullptr;
  std::size_t needed = private_pages;
  if (with_prefix) {
    const auto it = runs_.find(prefix);
    run = it == runs_.end() ? nullptr : &it->second;
    if (run == nullptr) {
      needed += shared_pages;  // first attacher allocates the run
    } else {
      EDGEMM_ASSERT_MSG(run->pages == shared_pages,
                        "KvPageAllocator: a prefix group's requests must "
                        "declare the same shared page count");
      if (run->swapped) needed += run->pages;  // refill the run from DRAM
    }
  }
  if (needed > free_pages()) {
    ++deferrals_;
    return false;
  }

  if (with_prefix) {
    if (run == nullptr) {
      acquire(shared_pages);
      pages_allocated_ += shared_pages;
      run = &runs_.emplace(prefix, SharedRun{0, 0, false, shared_pages})
                 .first->second;
    } else {
      ++shared_attaches_;
      shared_pages_saved_ += run->pages;
      if (run->swapped) {
        acquire(run->pages);
        run->swapped = false;
        swapped_count_ -= run->pages;
        pages_swapped_in_ += run->pages;
        swap_refetch_bytes_ += run->pages * page_bytes_;
      }
    }
    ++run->refs;
    ++run->resident_refs;
  }

  acquire(private_pages);
  pages_allocated_ += private_pages;
  tables_.emplace(id, PageTable{private_pages, 0, with_prefix ? prefix : 0,
                                false});
  assert_conserved();
  return true;
}

bool KvPageAllocator::try_append(RequestId id) {
  const auto it = tables_.find(id);
  if (it == tables_.end() || it->second.out) {
    throw std::logic_error(
        "KvPageAllocator: append for an unknown or swapped-out request");
  }
  if (free_pages() == 0) return false;
  acquire(1);
  ++it->second.resident;
  ++pages_allocated_;
  assert_conserved();
  return true;
}

std::size_t KvPageAllocator::swap_out(RequestId id) {
  const auto it = tables_.find(id);
  if (it == tables_.end() || it->second.out) {
    throw std::logic_error(
        "KvPageAllocator: swap_out for an unknown or already-swapped request");
  }
  PageTable& table = it->second;
  const std::size_t moved = table.resident;
  resident_count_ -= moved;
  table.resident = 0;
  table.swapped += moved;
  table.out = true;
  swapped_count_ += moved;
  pages_swapped_out_ += moved;
  ++preemptions_;
  if (table.prefix != 0) {
    SharedRun& run = runs_.at(table.prefix);
    EDGEMM_ASSERT(run.resident_refs > 0);
    if (--run.resident_refs == 0 && !run.swapped) {
      // Every holder is in DRAM now: the run's pages must not squat on
      // the CIM budget serving nobody.
      swap_run_out(run);
    }
  }
  assert_conserved();
  return moved;
}

bool KvPageAllocator::try_swap_in(RequestId id) {
  const auto it = tables_.find(id);
  if (it == tables_.end() || !it->second.out) {
    throw std::logic_error(
        "KvPageAllocator: swap_in for an unknown or resident request");
  }
  PageTable& table = it->second;
  SharedRun* run = table.prefix != 0 ? &runs_.at(table.prefix) : nullptr;
  const bool run_refill = run != nullptr && run->swapped;
  const std::size_t needed = table.swapped + (run_refill ? run->pages : 0);
  if (needed > free_pages()) return false;

  acquire(needed);
  if (run_refill) run->swapped = false;
  swapped_count_ -= needed;
  table.resident = table.swapped;
  table.swapped = 0;
  table.out = false;
  if (run != nullptr) ++run->resident_refs;
  pages_swapped_in_ += needed;
  swap_refetch_bytes_ += needed * page_bytes_;
  assert_conserved();
  return true;
}

void KvPageAllocator::release(RequestId id) {
  const auto it = tables_.find(id);
  if (it == tables_.end()) {
    throw std::logic_error("KvPageAllocator: release for an unknown request");
  }
  PageTable& table = it->second;
  resident_count_ -= table.resident;
  swapped_count_ -= table.swapped;
  pages_freed_ += table.resident + table.swapped;
  if (table.prefix != 0) {
    SharedRun& run = runs_.at(table.prefix);
    EDGEMM_ASSERT(run.refs > 0);
    if (!table.out) {
      EDGEMM_ASSERT(run.resident_refs > 0);
      --run.resident_refs;
    }
    if (--run.refs == 0) {
      // Last holder: the run's pages are freed exactly once, wherever
      // they live.
      (run.swapped ? swapped_count_ : resident_count_) -= run.pages;
      pages_freed_ += run.pages;
      runs_.erase(table.prefix);
    } else if (run.resident_refs == 0 && !run.swapped) {
      swap_run_out(run);
    }
  }
  tables_.erase(it);
  assert_conserved();
}

}  // namespace edgemm::serve
