#include "serve/conversation_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace edgemm::serve {

void ConversationCache::add(const Request& r) {
  if (r.prefix_id == 0) return;
  const auto [it, fresh] = conversations_.try_emplace(
      {r.model, r.prefix_id}, Conversation{r.crops, r.prefix_tokens});
  if (!fresh && (it->second.crops != r.crops ||
                 it->second.prefix_tokens != r.prefix_tokens)) {
    throw std::invalid_argument(
        "ConversationCache: requests of one conversation (model, prefix_id) "
        "differ in crops or prefix_tokens");
  }
}

const ConversationCache::Conversation* ConversationCache::find(
    const Request& r) const {
  if (r.prefix_id == 0 || r.prefix_tokens == 0) return nullptr;
  return &conversations_.at({r.model, r.prefix_id});
}

ConversationCache::Reuse ConversationCache::reuse(const Request& r) const {
  const Conversation* c = find(r);
  if (c == nullptr) return {};
  return {c->stage >= Stage::kEncoded,
          c->stage >= Stage::kPrefixSubmitted
              ? std::min(r.prefix_tokens, r.input_tokens - 1)
              : 0};
}

void ConversationCache::publish(const Request& r, std::size_t chunk0_tokens,
                                double built_keep) {
  Conversation* c = find(r);
  if (c == nullptr) return;
  if (c->stage == Stage::kNone) c->stage = Stage::kEncoded;
  if (c->stage == Stage::kEncoded && built_keep == 1.0 &&
      chunk0_tokens >= c->prefix_tokens) {
    c->stage = Stage::kPrefixSubmitted;
    c->publisher = r.id;
  }
}

bool ConversationCache::retire(const Request& r) {
  Conversation* c = find(r);
  if (c == nullptr || c->stage != Stage::kPrefixSubmitted ||
      c->publisher != r.id) {
    return false;
  }
  c->stage = Stage::kPrefixRetired;
  return true;
}

bool ConversationCache::prefix_ready(const Request& r) const {
  const Conversation* c = find(r);
  return c != nullptr && c->stage == Stage::kPrefixRetired;
}

}  // namespace edgemm::serve
