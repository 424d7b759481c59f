#include "serve/kv_pages.hpp"

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "model/workload.hpp"
#include "serve/kv_tracker.hpp"
#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

// tiny_model(): kv_bytes_per_token = 2 layers * 2 (K+V) * 256 * 2 B = 2048.
constexpr Bytes kTokenBytes = 2048;
// 4 tokens per page throughout the engine-level tests.
constexpr Bytes kPage = 4 * kTokenBytes;

Request req(RequestId id, std::size_t input_tokens, std::size_t output_tokens,
            std::size_t prefix_id = 0, std::size_t prefix_tokens = 0) {
  Request r;
  r.id = id;
  r.arrival = 0;
  r.model = 0;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  r.prefix_id = prefix_id;
  r.prefix_tokens = prefix_tokens;
  return r;
}

EngineConfig fast_config(std::size_t max_batch = 4,
                         std::size_t max_inflight = 8) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(
          AdmissionLimits{max_batch, max_inflight}))
      .manage_bandwidth(false);
}

EngineConfig paged_config(Bytes budget, std::size_t max_batch = 4) {
  return fast_config(max_batch)
      .kv_capacity_bytes(budget)
      .paged_kv(true)
      .kv_page_bytes(kPage);
}

// --- Helper math ------------------------------------------------------------

TEST(KvPageMath, PrefixKeySeparatesModelsAndGroups) {
  EXPECT_EQ(kv_prefix_key(0, 0), 0u);
  EXPECT_EQ(kv_prefix_key(3, 0), 0u);  // no group, whatever the model
  EXPECT_NE(kv_prefix_key(0, 1), 0u);
  EXPECT_NE(kv_prefix_key(0, 1), kv_prefix_key(1, 1));  // per-model namespaces
  EXPECT_NE(kv_prefix_key(0, 1), kv_prefix_key(0, 2));
}

TEST(KvPageMath, TokensPerPageIsAtLeastOne) {
  const model::MllmConfig m = tiny_model();
  ASSERT_EQ(model::kv_bytes_per_token(m), kTokenBytes);
  EXPECT_EQ(kv_tokens_per_page(m, kPage), 4u);
  EXPECT_EQ(kv_tokens_per_page(m, kTokenBytes), 1u);
  // A page smaller than one token would charge less than the KV it
  // holds: rejected, never rounded up to one token.
  EXPECT_THROW(kv_tokens_per_page(m, kTokenBytes - 1), std::invalid_argument);
  EXPECT_THROW(kv_tokens_per_page(m, 1), std::invalid_argument);
  EXPECT_THROW(kv_tokens_per_page(m, 0), std::invalid_argument);
}

TEST(KvPageMath, SharedPrefixPagesCountsFullPagesOnly) {
  const model::MllmConfig m = tiny_model();
  EXPECT_EQ(kv_shared_prefix_pages(req(0, 32, 8), m, kPage), 0u);  // no group
  // 7 prefix tokens at 4 tokens/page: one full page; the partial page is
  // the CoW boundary and stays private.
  EXPECT_EQ(kv_shared_prefix_pages(req(0, 32, 8, 1, 7), m, kPage), 1u);
  EXPECT_EQ(kv_shared_prefix_pages(req(0, 32, 8, 1, 8), m, kPage), 2u);
  EXPECT_EQ(kv_shared_prefix_pages(req(0, 32, 8, 1, 3), m, kPage), 0u);
}

TEST(KvPageMath, PageFootprintRoundsUpPrivateTail) {
  const model::MllmConfig m = tiny_model();
  // 32 + 8 = 40 tokens at 4/page: 10 pages, sharing off.
  EXPECT_EQ(kv_page_footprint(req(0, 32, 8), m, kPage, false), 10u);
  // 37 tokens round up to 10 pages too.
  EXPECT_EQ(kv_page_footprint(req(0, 32, 5), m, kPage, false), 10u);
  // With sharing, the 8 shared prefix pages are counted once plus the
  // private tail: 8 shared + ceil(8/4) private = 10.
  EXPECT_EQ(kv_page_footprint(req(0, 32, 8, 1, 32), m, kPage, true), 10u);
  // Sharing disabled ignores the prefix annotation.
  EXPECT_EQ(kv_page_footprint(req(0, 32, 8, 1, 32), m, kPage, false), 10u);
}

// --- KvPageAllocator: construction and exact fill ---------------------------

TEST(KvPageAllocator, ValidatesConstruction) {
  EXPECT_THROW(KvPageAllocator(1024, 0), std::invalid_argument);
  EXPECT_THROW(KvPageAllocator(1023, 1024), std::invalid_argument);
  KvPageAllocator pages(4096 + 100, 1024);  // partial page is unusable
  EXPECT_EQ(pages.total_pages(), 4u);
  EXPECT_EQ(pages.page_bytes(), 1024u);
  EXPECT_EQ(pages.free_pages(), 4u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, ExactFillSucceedsAtPageGranularity) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 4));
  EXPECT_EQ(pages.free_pages(), 0u);
  EXPECT_EQ(pages.resident_pages(), 4u);
  EXPECT_EQ(pages.resident_bytes(), 4096u);
  EXPECT_EQ(pages.holders(), 1u);
  EXPECT_EQ(pages.deferrals(), 0u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, OnePageOverDefersAllOrNothing) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 3));
  // 2 pages into 1 free: the join takes nothing at all.
  EXPECT_FALSE(pages.try_join(2, 2));
  EXPECT_EQ(pages.deferrals(), 1u);
  EXPECT_EQ(pages.resident_pages(), 3u);
  EXPECT_EQ(pages.holders(), 1u);
  EXPECT_FALSE(pages.holds(2));
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, AppendGrowsOnePageAndFailsCleanlyWhenFull) {
  KvPageAllocator pages(3 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 1));
  EXPECT_TRUE(pages.try_append(1));
  EXPECT_TRUE(pages.try_append(1));
  EXPECT_EQ(pages.resident_pages_of(1), 3u);
  EXPECT_FALSE(pages.try_append(1));  // full; appends do not count deferrals
  EXPECT_EQ(pages.deferrals(), 0u);
  EXPECT_EQ(pages.pages_allocated(), 3u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, RejectsDuplicateAndUnknownIds) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 1));
  EXPECT_THROW(pages.try_join(1, 1), std::logic_error);
  EXPECT_THROW(pages.try_append(2), std::logic_error);
  EXPECT_THROW(pages.swap_out(2), std::logic_error);
  EXPECT_THROW(pages.try_swap_in(1), std::logic_error);  // resident, not out
  EXPECT_THROW(pages.release(2), std::logic_error);
  pages.release(1);
  EXPECT_THROW(pages.release(1), std::logic_error);
}

TEST(KvPageAllocator, PeakResidentTracksHighWater) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 2));
  EXPECT_TRUE(pages.try_join(2, 2));
  pages.release(1);
  pages.release(2);
  EXPECT_EQ(pages.resident_bytes(), 0u);
  EXPECT_EQ(pages.peak_resident_bytes(), 4096u);
  EXPECT_EQ(pages.pages_allocated(), 4u);
  EXPECT_EQ(pages.pages_freed(), 4u);
  EXPECT_TRUE(pages.conserved());
}

// --- KvPageAllocator: copy-on-write prefix sharing --------------------------

TEST(KvPageAllocator, RidersAttachToTheSharedRunWithoutReallocating) {
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));  // first attacher pays 3 + 1
  EXPECT_EQ(pages.resident_pages(), 4u);
  EXPECT_TRUE(pages.try_join(2, 1, key, 3));  // rider pays only its page
  EXPECT_EQ(pages.resident_pages(), 5u);
  EXPECT_EQ(pages.shared_refcount(key), 2u);
  EXPECT_EQ(pages.shared_attaches(), 1u);
  EXPECT_EQ(pages.shared_pages_saved(), 3u);
  EXPECT_EQ(pages.pages_allocated(), 5u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, SharedRunPagesAreFreedExactlyOnce) {
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));
  EXPECT_TRUE(pages.try_join(2, 2, key, 3));
  pages.release(1);  // run survives: rider 2 still references it
  EXPECT_EQ(pages.shared_refcount(key), 1u);
  EXPECT_EQ(pages.pages_freed(), 1u);  // only request 1's private page
  EXPECT_EQ(pages.resident_pages(), 5u);
  pages.release(2);  // last holder frees the run exactly once
  EXPECT_EQ(pages.shared_refcount(key), 0u);
  EXPECT_EQ(pages.pages_freed(), pages.pages_allocated());
  EXPECT_EQ(pages.resident_pages(), 0u);
  EXPECT_EQ(pages.holders(), 0u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, DistinctPrefixGroupsDoNotShare) {
  KvPageAllocator pages(8 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 1, kv_prefix_key(0, 1), 2));
  EXPECT_TRUE(pages.try_join(2, 1, kv_prefix_key(0, 2), 2));
  EXPECT_EQ(pages.shared_attaches(), 0u);
  EXPECT_EQ(pages.resident_pages(), 6u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, ZeroPrivatePagesJoinRidesTheRunAlone) {
  // A request whose whole prompt is the shared prefix holds no private
  // page at join and grows its first one with the first generated token.
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 0, key, 4));
  EXPECT_EQ(pages.resident_pages_of(1), 0u);
  EXPECT_EQ(pages.resident_pages(), 4u);
  EXPECT_TRUE(pages.try_append(1));
  EXPECT_EQ(pages.resident_pages_of(1), 1u);
  pages.release(1);
  EXPECT_EQ(pages.pages_freed(), 5u);
  EXPECT_TRUE(pages.conserved());
}

// --- KvPageAllocator: DRAM swap ---------------------------------------------

TEST(KvPageAllocator, SwapRoundTripConservesPagesAtEveryProbe) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 3));
  EXPECT_TRUE(pages.try_join(2, 1));
  ASSERT_TRUE(pages.conserved());

  EXPECT_EQ(pages.swap_out(1), 3u);
  EXPECT_EQ(pages.resident_pages(), 1u);
  EXPECT_EQ(pages.swapped_pages(), 3u);
  EXPECT_EQ(pages.swapped_pages_of(1), 3u);
  EXPECT_EQ(pages.pages_swapped_out(), 3u);
  EXPECT_EQ(pages.preemptions(), 1u);
  ASSERT_TRUE(pages.conserved());

  // Freed CIM is reusable while request 1 sits in DRAM.
  EXPECT_TRUE(pages.try_append(2));
  EXPECT_TRUE(pages.try_append(2));
  EXPECT_FALSE(pages.try_swap_in(1));  // 3 needed, 1 free
  ASSERT_TRUE(pages.conserved());

  pages.release(2);
  EXPECT_TRUE(pages.try_swap_in(1));
  EXPECT_EQ(pages.swapped_pages(), 0u);
  EXPECT_EQ(pages.resident_pages_of(1), 3u);
  EXPECT_EQ(pages.pages_swapped_in(), 3u);
  EXPECT_EQ(pages.swap_refetch_bytes(), 3u * 1024u);  // re-fetch charged
  ASSERT_TRUE(pages.conserved());

  pages.release(1);
  EXPECT_EQ(pages.pages_freed(), pages.pages_allocated());
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, ReleaseWhileSwappedFreesWithoutRefetch) {
  KvPageAllocator pages(4 * 1024, 1024);
  EXPECT_TRUE(pages.try_join(1, 2));
  pages.swap_out(1);
  pages.release(1);  // retired straight out of DRAM
  EXPECT_EQ(pages.swapped_pages(), 0u);
  EXPECT_EQ(pages.pages_freed(), 2u);
  EXPECT_EQ(pages.swap_refetch_bytes(), 0u);
  EXPECT_EQ(pages.holders(), 0u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, SharedRunFollowsItsLastResidentHolderToDram) {
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));
  EXPECT_TRUE(pages.try_join(2, 1, key, 3));
  pages.swap_out(1);
  // Request 2 still decodes against the run: it must stay resident.
  EXPECT_EQ(pages.resident_pages(), 4u);  // run 3 + request 2's page
  pages.swap_out(2);
  // Last resident holder left: the run must not squat on the CIM budget.
  EXPECT_EQ(pages.resident_pages(), 0u);
  EXPECT_EQ(pages.swapped_pages(), 5u);  // 2 private + 3 run pages
  EXPECT_TRUE(pages.conserved());

  // Swapping one holder back in refills the run with it (and charges the
  // re-fetch for both).
  EXPECT_TRUE(pages.try_swap_in(1));
  EXPECT_EQ(pages.resident_pages(), 4u);
  EXPECT_EQ(pages.swap_refetch_bytes(), 4u * 1024u);
  EXPECT_TRUE(pages.conserved());
  pages.release(1);
  pages.release(2);
  EXPECT_EQ(pages.pages_freed(), pages.pages_allocated());
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, SwappedRunIsFreedOnceWhenLastHolderRetires) {
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));
  pages.swap_out(1);  // run follows to DRAM
  EXPECT_EQ(pages.swapped_pages(), 4u);
  pages.release(1);
  EXPECT_EQ(pages.pages_freed(), 4u);  // run freed from DRAM, exactly once
  EXPECT_EQ(pages.swapped_pages(), 0u);
  EXPECT_EQ(pages.shared_refcount(key), 0u);
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, RiderJoinRefillsASwappedRunAndChargesRefetch) {
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));
  pages.swap_out(1);
  EXPECT_EQ(pages.resident_pages(), 0u);
  // A new rider needs the run resident: its join refills it from DRAM.
  EXPECT_TRUE(pages.try_join(2, 1, key, 3));
  EXPECT_EQ(pages.resident_pages(), 4u);  // run back + rider's page
  EXPECT_EQ(pages.swapped_pages(), 1u);   // request 1's private page stays
  EXPECT_EQ(pages.swap_refetch_bytes(), 3u * 1024u);
  EXPECT_EQ(pages.shared_attaches(), 1u);
  EXPECT_TRUE(pages.conserved());
  pages.release(2);
  pages.release(1);
  EXPECT_EQ(pages.pages_freed(), pages.pages_allocated());
  EXPECT_TRUE(pages.conserved());
}

TEST(KvPageAllocator, AppendGrowsThePrivateTailNeverTheSharedRun) {
  // Decode tokens land in a holder's PRIVATE tail: appending must leave
  // the shared run untouched so co-riders see an immutable prefix.
  KvPageAllocator pages(8 * 1024, 1024);
  const KvPrefixKey key = kv_prefix_key(0, 1);
  EXPECT_TRUE(pages.try_join(1, 1, key, 3));
  EXPECT_TRUE(pages.try_join(2, 1, key, 3));
  const std::size_t allocated_before = pages.pages_allocated();
  EXPECT_TRUE(pages.try_append(1));
  EXPECT_EQ(pages.pages_allocated(), allocated_before + 1);
  EXPECT_EQ(pages.resident_pages_of(1), 2u);  // private tail grew
  EXPECT_EQ(pages.resident_pages_of(2), 1u);  // co-rider unaffected
  EXPECT_EQ(pages.shared_refcount(key), 2u);  // run membership unchanged
  EXPECT_EQ(pages.shared_pages_saved(), 3u);  // no new saving was minted
  EXPECT_TRUE(pages.conserved());
  pages.release(1);
  // The appended private page frees with its owner; the run survives
  // for the remaining rider.
  EXPECT_EQ(pages.pages_freed(), 2u);
  EXPECT_EQ(pages.shared_refcount(key), 1u);
  pages.release(2);
  EXPECT_EQ(pages.pages_freed(), pages.pages_allocated());
  EXPECT_TRUE(pages.conserved());
}

// --- KvPageAllocator: whole-footprint use (1-byte pages) -------------------

TEST(KvWholeFootprint, ValidatesCapacity) {
  EXPECT_THROW(KvPageAllocator(0, 1), std::invalid_argument);
}

TEST(KvWholeFootprint, ReservesExactlyToCapacity) {
  KvPageAllocator kv(1000, 1);
  EXPECT_TRUE(kv.try_join(1, 600));
  EXPECT_EQ(kv.resident_bytes(), 600u);
  EXPECT_EQ(kv.free_pages(), 400u);
  // Filling the budget to exactly capacity succeeds.
  EXPECT_TRUE(kv.try_join(2, 400));
  EXPECT_EQ(kv.resident_bytes(), 1000u);
  EXPECT_EQ(kv.free_pages(), 0u);
  EXPECT_EQ(kv.holders(), 2u);
  EXPECT_EQ(kv.deferrals(), 0u);
  EXPECT_TRUE(kv.conserved());
}

TEST(KvWholeFootprint, OneByteOverDefers) {
  KvPageAllocator kv(1000, 1);
  EXPECT_TRUE(kv.try_join(1, 1000));
  EXPECT_FALSE(kv.try_join(2, 1));  // one byte over
  EXPECT_EQ(kv.deferrals(), 1u);
  EXPECT_EQ(kv.holders(), 1u);
  EXPECT_EQ(kv.resident_bytes(), 1000u);

  KvPageAllocator fresh(1000, 1);
  EXPECT_FALSE(fresh.try_join(1, 1001));  // single oversized request
  EXPECT_EQ(fresh.deferrals(), 1u);
  // Zero-byte reservations are fine even at a full budget.
  EXPECT_TRUE(fresh.try_join(2, 1000));
  EXPECT_TRUE(fresh.try_join(3, 0));
  EXPECT_TRUE(fresh.conserved());
}

TEST(KvWholeFootprint, ReleaseMakesRoomAgain) {
  KvPageAllocator kv(1000, 1);
  EXPECT_TRUE(kv.try_join(1, 700));
  EXPECT_FALSE(kv.try_join(2, 500));
  kv.release(1);
  EXPECT_EQ(kv.resident_bytes(), 0u);
  EXPECT_TRUE(kv.try_join(2, 500));
  EXPECT_EQ(kv.holders(), 1u);
  EXPECT_TRUE(kv.conserved());
}

TEST(KvWholeFootprint, RejectsDuplicateAndUnknownIds) {
  KvPageAllocator kv(1000, 1);
  EXPECT_TRUE(kv.try_join(1, 100));
  EXPECT_THROW(kv.try_join(1, 100), std::logic_error);
  EXPECT_THROW(kv.release(2), std::logic_error);
  kv.release(1);
  EXPECT_THROW(kv.release(1), std::logic_error);
}

TEST(KvWholeFootprint, HoldsIsKeyedById) {
  // holds() answers for exactly the ids that joined, independent of how
  // many bytes each one charged.
  KvPageAllocator kv(1000, 1);
  EXPECT_FALSE(kv.holds(1));
  EXPECT_TRUE(kv.try_join(1, 600));
  EXPECT_TRUE(kv.try_join(2, 0));
  EXPECT_TRUE(kv.holds(1));
  EXPECT_TRUE(kv.holds(2));  // a zero-byte table is still a table
  EXPECT_FALSE(kv.holds(3));
  kv.release(1);
  EXPECT_FALSE(kv.holds(1));
}

TEST(KvWholeFootprint, PeakResidentIsAHighWaterMark) {
  KvPageAllocator kv(1000, 1);
  EXPECT_EQ(kv.peak_resident_bytes(), 0u);
  EXPECT_TRUE(kv.try_join(1, 300));
  EXPECT_TRUE(kv.try_join(2, 400));
  EXPECT_EQ(kv.peak_resident_bytes(), 700u);
  kv.release(1);
  EXPECT_EQ(kv.resident_bytes(), 400u);
  EXPECT_EQ(kv.peak_resident_bytes(), 700u);  // the mark never recedes
  // A failed reservation moves nothing, so the peak stays put ...
  EXPECT_FALSE(kv.try_join(3, 700));
  EXPECT_EQ(kv.peak_resident_bytes(), 700u);
  // ... and a smaller success past the old mark advances it.
  EXPECT_TRUE(kv.try_join(4, 350));
  EXPECT_EQ(kv.peak_resident_bytes(), 750u);
}

TEST(ChipKvCapacity, ScalesWithMcClustersAndOversubscription) {
  const core::ChipConfig cfg = core::default_chip_config();
  const Bytes base = chip_kv_capacity(cfg);
  EXPECT_EQ(base, cfg.total_mc_clusters() * cfg.mc_cluster_cim_bytes());
  EXPECT_EQ(chip_kv_capacity(cfg, 2.0), 2 * base);
  EXPECT_THROW(chip_kv_capacity(cfg, 0.0), std::invalid_argument);
  EXPECT_THROW(chip_kv_capacity(cfg, -1.0), std::invalid_argument);
}

// --- KvPageAllocator: generated operation sequences -------------------------

/// One holder as the test models it: its private pages and whether it
/// sits in DRAM.
struct ModelTable {
  RequestId id = 0;
  std::size_t pages = 0;
  bool out = false;
};

/// Drives one allocator through a seeded random sequence of joins (with
/// and without prefix runs), appends, swap-outs, swap-ins and releases,
/// checking the conservation ledger and every holder's page counts after
/// each operation, then drains it. `unit` scales request sizes, so one
/// corpus exercises both 1-byte whole-footprint pages (many units per
/// request) and multi-token pages (a few units each).
void run_generated_sequence(std::uint64_t seed, Bytes page_bytes,
                            std::size_t unit) {
  std::mt19937_64 rng(seed);
  const std::size_t total_pages = 24 * unit;
  KvPageAllocator pages(total_pages * page_bytes, page_bytes);
  std::vector<ModelTable> holders;
  RequestId next_id = 0;
  std::size_t expected_deferrals = 0;
  auto pick = [&](bool out) -> ModelTable* {
    std::vector<ModelTable*> matching;
    for (ModelTable& t : holders) {
      if (t.out == out) matching.push_back(&t);
    }
    return matching.empty() ? nullptr : matching[rng() % matching.size()];
  };
  for (std::size_t op = 0; op < 300; ++op) {
    switch (rng() % 6) {
      case 0:
      case 1: {  // join; group 0 carries no prefix run
        const std::size_t group = rng() % 4;
        const std::size_t shared = group == 0 ? 0 : (1 + group) * unit;
        const std::size_t private_pages = rng() % (4 * unit + 1);
        const RequestId id = next_id++;
        if (pages.try_join(id, private_pages, kv_prefix_key(0, group),
                           shared)) {
          holders.push_back({id, private_pages, false});
        } else {
          ++expected_deferrals;
        }
        break;
      }
      case 2: {
        if (ModelTable* t = pick(false)) {
          if (pages.try_append(t->id)) ++t->pages;
        }
        break;
      }
      case 3: {
        if (ModelTable* t = pick(false)) {
          EXPECT_EQ(pages.swap_out(t->id), t->pages);
          t->out = true;
        }
        break;
      }
      case 4: {
        if (ModelTable* t = pick(true)) {
          if (pages.try_swap_in(t->id)) t->out = false;
        }
        break;
      }
      default: {
        if (!holders.empty()) {
          const std::size_t i = rng() % holders.size();
          pages.release(holders[i].id);
          holders.erase(holders.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
    }
    ASSERT_TRUE(pages.conserved()) << "seed " << seed << " op " << op;
    ASSERT_EQ(pages.holders(), holders.size());
    ASSERT_EQ(pages.deferrals(), expected_deferrals);
    for (const ModelTable& t : holders) {
      ASSERT_EQ(pages.resident_pages_of(t.id), t.out ? 0 : t.pages)
          << "seed " << seed << " op " << op << " id " << t.id;
      ASSERT_EQ(pages.swapped_pages_of(t.id), t.out ? t.pages : 0)
          << "seed " << seed << " op " << op << " id " << t.id;
    }
  }
  for (const ModelTable& t : holders) {
    pages.release(t.id);
    ASSERT_TRUE(pages.conserved());
  }
  EXPECT_EQ(pages.holders(), 0u);
  EXPECT_EQ(pages.resident_pages(), 0u);
  EXPECT_EQ(pages.swapped_pages(), 0u);
  EXPECT_EQ(pages.pages_allocated(), pages.pages_freed());
}

TEST(KvPageAllocator, GeneratedSequencesConserveAndDrainAtOneBytePages) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_generated_sequence(seed, 1, kTokenBytes);
  }
}

TEST(KvPageAllocator, GeneratedSequencesConserveAndDrainAtMultiTokenPages) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_generated_sequence(seed, kPage, 1);
  }
}

// --- ServingEngine: paged mode ----------------------------------------------

TEST(PagedServing, ReplayDrainsEveryPageAndConservesTheLedger) {
  EngineConfig config = paged_config(40 * kPage);
  ServingEngine engine(small_cfg(), {tiny_model()}, std::move(config));
  const ServingResult result = engine.run(
      {req(0, 32, 8), req(1, 32, 8), req(2, 32, 4), req(3, 16, 12)});
  EXPECT_EQ(result.completed, 4u);
  ASSERT_NE(engine.kv_pages(), nullptr);
  EXPECT_EQ(engine.kv_pages()->holders(), 0u);
  EXPECT_EQ(engine.kv_pages()->resident_pages(), 0u);
  EXPECT_GT(result.kv_pages_allocated, 0u);
  EXPECT_EQ(result.kv_pages_allocated, result.kv_pages_freed);
  EXPECT_GT(result.peak_kv_reserved_bytes, 0u);
  EXPECT_TRUE(engine.kv_pages()->conserved());
  EXPECT_EQ(engine.kv_pages()->page_bytes(), kPage);
}

TEST(PagedServing, GrowPerTokenPeaksNoHigherThanWholeFootprints) {
  // Page-aligned shapes (multiples of 4 tokens) so page rounding cannot
  // mask the comparison: the paged peak counts only pages written so
  // far, the legacy peak charges every request's full footprint at join.
  const std::vector<Request> trace = {req(0, 32, 8), req(1, 32, 8),
                                      req(2, 16, 4)};
  const Bytes budget = 64 * kPage;  // generous: no deferrals either way
  const auto legacy = replay_trace(small_cfg(), {tiny_model()},
                                   fast_config().kv_capacity_bytes(budget),
                                   trace);
  const auto paged =
      replay_trace(small_cfg(), {tiny_model()}, paged_config(budget), trace);
  EXPECT_EQ(paged.result.completed, 3u);
  EXPECT_GT(paged.result.peak_kv_reserved_bytes, 0u);
  EXPECT_LE(paged.result.peak_kv_reserved_bytes,
            legacy.result.peak_kv_reserved_bytes);
  EXPECT_EQ(legacy.result.kv_deferrals, 0u);
  EXPECT_EQ(paged.result.kv_deferrals, 0u);
}

TEST(PagedServing, PrefixSharingSustainsMoreConcurrencyAtEqualBudget) {
  // Two conversation turns over one 64-token shared prefix, 8 output
  // tokens each. Whole footprint: 72 tokens = 18 pages per request; the
  // 20-page budget fits only ONE whole footprint, so whole-footprint
  // reservation serializes. Paged + sharing: 16 shared pages + two 2-page private
  // tails = 20 pages — both decode together.
  const std::vector<Request> trace = {req(0, 64, 8, 1, 64),
                                      req(1, 64, 8, 1, 64)};
  const Bytes budget = 20 * kPage;
  const auto legacy = replay_trace(small_cfg(), {tiny_model()},
                                   fast_config().kv_capacity_bytes(budget),
                                   trace);
  const auto paged =
      replay_trace(small_cfg(), {tiny_model()}, paged_config(budget), trace);
  EXPECT_EQ(legacy.result.peak_decode_batch, 1u);
  EXPECT_GT(legacy.result.kv_deferrals, 0u);
  EXPECT_EQ(paged.result.peak_decode_batch, 2u);
  EXPECT_EQ(paged.result.kv_deferrals, 0u);
  EXPECT_EQ(paged.result.kv_shared_attaches, 1u);
  EXPECT_EQ(paged.result.kv_shared_pages_saved, 16u);
  EXPECT_EQ(paged.result.kv_pages_swapped_out, 0u);  // exact fit, no swap
  EXPECT_LT(paged.result.makespan, legacy.result.makespan);
  EXPECT_EQ(paged.result.kv_pages_allocated, paged.result.kv_pages_freed);
}

TEST(PagedServing, PartialBoundaryPageIsCowForkedPrivately) {
  // 62 prefix tokens = 15 full shared pages + a 2-token boundary that
  // every rider must copy privately before writing its own tokens.
  const std::vector<Request> trace = {req(0, 64, 8, 1, 62),
                                      req(1, 64, 8, 1, 62)};
  const auto paged = replay_trace(small_cfg(), {tiny_model()},
                                  paged_config(64 * kPage), trace);
  EXPECT_EQ(paged.result.completed, 2u);
  EXPECT_EQ(paged.result.kv_cow_forks, 2u);
  EXPECT_EQ(paged.result.kv_shared_pages_saved, 15u);
}

TEST(PagedServing, SharingOffIgnoresPrefixAnnotations) {
  const std::vector<Request> trace = {req(0, 64, 8, 1, 64),
                                      req(1, 64, 8, 1, 64)};
  EngineConfig config = paged_config(64 * kPage).kv_prefix_sharing(false);
  const auto out =
      replay_trace(small_cfg(), {tiny_model()}, std::move(config), trace);
  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_EQ(out.result.kv_shared_attaches, 0u);
  EXPECT_EQ(out.result.kv_shared_pages_saved, 0u);
  EXPECT_EQ(out.result.kv_cow_forks, 0u);
  EXPECT_EQ(out.result.kv_pages_allocated, out.result.kv_pages_freed);
}

TEST(PagedServing, TightBudgetSwapsToDramAndStillCompletes) {
  // 18 pages hold exactly one whole footprint; two concurrent growers
  // must preempt each other's tails to DRAM and refill.
  const std::vector<Request> trace = {req(0, 64, 8, 1, 64),
                                      req(1, 64, 8, 1, 64)};
  const auto out = replay_trace(small_cfg(), {tiny_model()},
                                paged_config(18 * kPage), trace);
  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_GT(out.result.kv_pages_swapped_out, 0u);
  EXPECT_GT(out.result.kv_pages_swapped_in, 0u);
  EXPECT_GT(out.result.kv_swap_preemptions, 0u);
  EXPECT_GT(out.result.kv_swap_refetch_bytes, 0u);
  // Exact conservation survives the whole preempt-and-refill churn.
  EXPECT_EQ(out.result.kv_pages_allocated, out.result.kv_pages_freed);
  for (const RequestRecord& rec : out.records) {
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.tokens_generated, rec.request.output_tokens);
  }
}

TEST(PagedServing, SwapVictimIsTheColdestTableWithLowerIdOnTies) {
  // Decode-only tier: all three KVs land at cycle 0 and reserve their
  // prompt page at admission (last_touch 0). Request 0 decodes alone for
  // the first step; 1 and 2 join at the second, where the growth pass
  // walks the batch in join order [0, 1, 2] with the budget full.
  auto replay = [](Bytes budget, std::size_t input_2) {
    return replay_trace(
        small_cfg(), {tiny_model()},
        paged_config(budget).phase(EnginePhase::kDecodeOnly),
        {req(0, 3, 4), req(1, 3, 4), req(2, input_2, 4)});
  };
  {
    // Coldest first: request 0 appends its second page this step (touch
    // now) and fills the 4-page budget, then request 2 needs a page. The
    // colder request 1 (touch 0) is evicted, not the lower-id request 0.
    const auto out = replay(4 * kPage, 4);
    EXPECT_GT(out.result.kv_swap_preemptions, 0u);
    EXPECT_GT(out.records[1].first_token, out.records[2].first_token);
    EXPECT_EQ(out.result.kv_pages_allocated, out.result.kv_pages_freed);
  }
  {
    // Tie: request 0 needs its second page with the 3-page budget full;
    // requests 1 and 2 were both last touched at cycle 0, so the lower
    // id, request 1, is evicted and sits the step out.
    const auto out = replay(3 * kPage, 3);
    EXPECT_GT(out.result.kv_swap_preemptions, 0u);
    EXPECT_GT(out.records[1].first_token, out.records[2].first_token);
    EXPECT_EQ(out.result.kv_pages_allocated, out.result.kv_pages_freed);
  }
}

TEST(PagedServing, RejectsPagesSmallerThanOneTokensKv) {
  // tiny_model() needs 2048 B of K+V per token: a 1024 B page would
  // charge the budget half the KV each token really holds.
  EXPECT_THROW(ServingEngine engine(small_cfg(), {tiny_model()},
                                    paged_config(64 * kPage).kv_page_bytes(1024)),
               std::invalid_argument);
  // One token per page is the smallest page that charges honestly.
  ServingEngine engine(small_cfg(), {tiny_model()},
                       paged_config(64 * kPage).kv_page_bytes(kTokenBytes));
  EXPECT_EQ(engine.run({req(0, 32, 8)}).completed, 1u);
}

TEST(PagedServing, ValidatesOversizedAndMalformedRequestsUpFront) {
  {
    // 10-page footprint into an 8-page budget: rejected before replay.
    ServingEngine engine(small_cfg(), {tiny_model()},
                         paged_config(8 * kPage));
    EXPECT_THROW(engine.run({req(0, 32, 8)}), std::invalid_argument);
  }
  {
    // prefix_tokens longer than the prompt is a malformed request.
    ServingEngine engine(small_cfg(), {tiny_model()},
                         paged_config(64 * kPage));
    EXPECT_THROW(engine.run({req(0, 32, 8, 1, 33)}), std::invalid_argument);
  }
}

TEST(PagedServing, RejectsPrefixIdsThatWouldSpillIntoTheModelWord) {
  // One past the limit, model 0's group would key model 1's prefix run.
  constexpr std::size_t kSpill = kMaxKvPrefixId + 2;
  ASSERT_EQ(kv_prefix_key(0, kSpill), kv_prefix_key(1, 1));
  {
    ServingEngine engine(small_cfg(), {tiny_model()},
                         paged_config(64 * kPage));
    EXPECT_THROW(engine.run({req(0, 32, 8, kMaxKvPrefixId + 1, 8)}),
                 std::invalid_argument);
  }
  {
    // The largest id that fits its word still serves normally.
    ServingEngine engine(small_cfg(), {tiny_model()},
                         paged_config(64 * kPage));
    const auto result = engine.run({req(0, 32, 8, kMaxKvPrefixId, 8)});
    EXPECT_EQ(result.completed, 1u);
  }
}

// --- Legacy-mode byte identity ----------------------------------------------

TEST(PagedServing, LegacyModeIsTheDefaultAndStaysByteIdentical) {
  TraceConfig trace_cfg;
  trace_cfg.requests = 12;
  trace_cfg.arrival_rate_per_s = 2000.0;
  trace_cfg.input_tokens = 32;
  trace_cfg.min_output_tokens = 2;
  trace_cfg.max_output_tokens = 12;
  const auto trace = poisson_trace(trace_cfg);
  const Bytes budget = kv_footprint_bytes(req(0, 32, 12), tiny_model()) * 2;

  EngineConfig untouched = fast_config().kv_capacity_bytes(budget);
  EXPECT_FALSE(untouched.paged_kv());  // paging is strictly opt-in
  const auto baseline = replay_trace(small_cfg(), {tiny_model()},
                                     std::move(untouched), trace);
  // Explicit paged_kv(false) takes the same whole-footprint path and
  // must replay bit-for-bit, whatever the other paged knobs say.
  EngineConfig legacy = fast_config()
                            .kv_capacity_bytes(budget)
                            .paged_kv(false)
                            .kv_page_bytes(kPage)
                            .kv_prefix_sharing(false);
  const auto explicit_off =
      replay_trace(small_cfg(), {tiny_model()}, std::move(legacy), trace);
  EXPECT_TRUE(results_identical(baseline.result, explicit_off.result));
  ASSERT_EQ(baseline.records.size(), explicit_off.records.size());
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    EXPECT_TRUE(record_identical(baseline.records[i], explicit_off.records[i]));
  }
  EXPECT_GT(baseline.result.kv_deferrals + 1, 0u);  // whole-footprint path
  EXPECT_EQ(baseline.result.kv_pages_allocated, 0u);  // no paging counters
}

TEST(PagedServing, GenerousBudgetMatchesLegacyScheduleExactly) {
  // With no deferrals in either mode the decode schedule is untouched:
  // every per-request timestamp must agree cycle-for-cycle (the result
  // structs differ only in the paging counters).
  const std::vector<Request> trace = {req(0, 32, 8), req(1, 32, 8),
                                      req(2, 16, 4), req(3, 32, 12)};
  const Bytes budget = 256 * kPage;
  const auto legacy = replay_trace(small_cfg(), {tiny_model()},
                                   fast_config().kv_capacity_bytes(budget),
                                   trace);
  const auto paged =
      replay_trace(small_cfg(), {tiny_model()}, paged_config(budget), trace);
  EXPECT_EQ(legacy.result.makespan, paged.result.makespan);
  EXPECT_EQ(legacy.result.decode_steps, paged.result.decode_steps);
  ASSERT_EQ(legacy.records.size(), paged.records.size());
  for (std::size_t i = 0; i < legacy.records.size(); ++i) {
    EXPECT_TRUE(record_identical(legacy.records[i], paged.records[i]));
  }
}

TEST(PagedServing, SweepOutcomeIsByteIdenticalAtAnyWorkerCount) {
  TraceConfig trace_cfg;
  trace_cfg.requests = 10;
  trace_cfg.arrival_rate_per_s = 4000.0;
  trace_cfg.input_tokens = 64;
  trace_cfg.min_output_tokens = 4;
  trace_cfg.max_output_tokens = 8;
  trace_cfg.prefix_groups = 2;
  trace_cfg.prefix_tokens = 64;
  const auto trace = poisson_trace(trace_cfg);

  auto cases = [&] {
    std::vector<SweepCase> grid;
    grid.push_back({"paged", small_cfg(), {tiny_model()},
                    paged_config(64 * kPage), trace});
    grid.push_back({"paged-tight", small_cfg(), {tiny_model()},
                    paged_config(20 * kPage), trace});
    grid.push_back({"paged-noshare", small_cfg(), {tiny_model()},
                    paged_config(64 * kPage).kv_prefix_sharing(false), trace});
    return grid;
  };
  SweepOptions sequential;
  sequential.workers = 1;
  const auto baseline = run_sweep(cases(), sequential);
  SweepOptions threaded;
  threaded.workers = 4;
  const auto parallel = run_sweep(cases(), threaded);
  ASSERT_EQ(baseline.size(), parallel.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(outcomes_identical(baseline[i], parallel[i]))
        << "case " << baseline[i].label << " diverged across workers";
  }
}

}  // namespace
}  // namespace edgemm::serve
