// ConversationCache on its own, with no engine: validation, the
// none → encoded → prefix submitted → prefix retired stages, what a
// plan built at each stage may reuse, and which chunk 0 publishes.
#include "serve/conversation_cache.hpp"

#include <cstddef>
#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::serve {
namespace {

using Reuse = ConversationCache::Reuse;

Request turn(RequestId id, std::size_t prefix_id, std::size_t model = 0,
             std::size_t input_tokens = 64) {
  Request r;
  r.id = id;
  r.model = model;
  r.input_tokens = input_tokens;
  r.crops = 2;
  r.prefix_id = prefix_id;
  r.prefix_tokens = prefix_id != 0 ? 32 : 0;
  return r;
}

TEST(ConversationCache, MismatchedCropsOrPrefixTokensThrow) {
  ConversationCache cache;
  cache.add(turn(0, 1));
  Request other_crops = turn(1, 1);
  other_crops.crops = 1;
  EXPECT_THROW(cache.add(other_crops), std::invalid_argument);
  Request other_prefix = turn(2, 1);
  other_prefix.prefix_tokens = 16;
  EXPECT_THROW(cache.add(other_prefix), std::invalid_argument);
  // Another conversation, or a request without one, is free to differ.
  Request own = turn(3, 2);
  own.crops = 1;
  EXPECT_NO_THROW(cache.add(own));
  Request loose = turn(4, 0);
  loose.crops = 5;
  EXPECT_NO_THROW(cache.add(loose));
}

TEST(ConversationCache, NoSharedPrefixNeverHits) {
  ConversationCache cache;
  const Request no_id = turn(0, 0);
  Request no_prefix = turn(1, 7);
  no_prefix.prefix_tokens = 0;
  for (const Request& r : {no_id, no_prefix}) {
    cache.add(r);
    cache.publish(r, r.input_tokens, 1.0);
    EXPECT_EQ(cache.reuse(r), Reuse{});
    EXPECT_FALSE(cache.retire(r));
    EXPECT_FALSE(cache.prefix_ready(r));
  }
  Request next = no_prefix;
  next.id = 2;
  EXPECT_EQ(cache.reuse(next), Reuse{});
}

TEST(ConversationCache, OnePrefixIdOnTwoModelsIsTwoConversations) {
  ConversationCache cache;
  const Request a = turn(0, 1, /*model=*/0);
  Request b = turn(1, 1, /*model=*/1);
  b.crops = 1;  // its own image: no mismatch across models
  cache.add(a);
  cache.add(b);
  cache.publish(a, 64, 1.0);
  EXPECT_EQ(cache.reuse(turn(2, 1, 0)), (Reuse{true, 32}));
  EXPECT_EQ(cache.reuse(b), Reuse{});
  EXPECT_TRUE(cache.retire(a));
  EXPECT_TRUE(cache.prefix_ready(a));
  EXPECT_FALSE(cache.prefix_ready(b));
}

TEST(ConversationCache, DegradedOrShortChunkZeroEncodesWithoutPublishing) {
  ConversationCache cache;
  const Request first = turn(0, 1);
  const Request second = turn(1, 1);
  const Request third = turn(2, 1);
  cache.add(first);
  cache.add(second);
  cache.add(third);
  // A pruned FFN computes different KV: the image is encoded, no prefix.
  cache.publish(first, 64, 0.75);
  EXPECT_EQ(cache.reuse(second), (Reuse{true, 0}));
  EXPECT_FALSE(cache.retire(first));
  // A chunk 0 shorter than the 32-token prefix does not cover it.
  cache.publish(second, 31, 1.0);
  EXPECT_EQ(cache.reuse(third), (Reuse{true, 0}));
  EXPECT_FALSE(cache.retire(second));
  EXPECT_FALSE(cache.prefix_ready(third));
  // The first full-keep chunk 0 covering the prefix publishes it.
  cache.publish(third, 32, 1.0);
  EXPECT_EQ(cache.reuse(turn(3, 1)), (Reuse{true, 32}));
}

TEST(ConversationCache, SkipLeavesAtLeastOneTokenToPrefill) {
  ConversationCache cache;
  const Request publisher = turn(0, 1);
  cache.add(publisher);
  cache.publish(publisher, 64, 1.0);
  EXPECT_EQ(cache.reuse(turn(1, 1, 0, 64)).prefix_skip, 32u);
  EXPECT_EQ(cache.reuse(turn(2, 1, 0, 33)).prefix_skip, 32u);
  // A turn that is all prefix still prefills its last token.
  EXPECT_EQ(cache.reuse(turn(3, 1, 0, 32)).prefix_skip, 31u);
}

TEST(ConversationCache, PrefixIsReadyOnlyAfterThePublisherRetires) {
  ConversationCache cache;
  const Request publisher = turn(0, 1);
  const Request reader = turn(1, 1);
  cache.add(publisher);
  cache.add(reader);
  EXPECT_EQ(cache.reuse(reader), Reuse{});
  cache.publish(publisher, 64, 1.0);
  EXPECT_FALSE(cache.prefix_ready(reader));
  // The reader's own chunk 0 neither publishes again nor retires the
  // prefix: only the publisher's retirement does.
  cache.publish(reader, 64, 1.0);
  EXPECT_FALSE(cache.retire(reader));
  EXPECT_FALSE(cache.prefix_ready(reader));
  EXPECT_TRUE(cache.retire(publisher));
  EXPECT_TRUE(cache.prefix_ready(reader));
  EXPECT_TRUE(cache.prefix_ready(publisher));
  EXPECT_FALSE(cache.retire(publisher));  // once
  EXPECT_EQ(cache.reuse(reader), (Reuse{true, 32}));
}

}  // namespace
}  // namespace edgemm::serve
