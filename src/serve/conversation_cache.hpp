// Conversation cache: the turns of one (model, prefix_id) conversation
// share their image's projected vision tokens and their prompt prefix's
// KV in DRAM. The serving engine asks it questions; it never reads
// engine state, and it allocates nothing unless a request carries a
// prefix_id.
#ifndef EDGEMM_SERVE_CONVERSATION_CACHE_HPP
#define EDGEMM_SERVE_CONVERSATION_CACHE_HPP

#include <cstddef>
#include <map>
#include <utility>

#include "serve/request.hpp"

namespace edgemm::serve {

/// Conversations keyed by (model, prefix_id), each at one monotone stage:
/// none → encoded (a local chunk 0 ran the vision encoder) → prefix
/// submitted (a full-keep local chunk 0 covering the whole prefix went to
/// the CC lane) → prefix retired (that chunk 0 finished: the prefix KV is
/// in DRAM). A request without a shared prefix (prefix_id or
/// prefix_tokens 0) shares nothing, its image included.
class ConversationCache {
 public:
  /// What a prefill plan built now skips.
  struct Reuse {
    bool encoder_cached = false;  ///< chunk 0 skips encoder + projector
    std::size_t prefix_skip = 0;  ///< leading prompt tokens not prefilled
    bool operator==(const Reuse&) const = default;
  };

  /// Registers `r`. Throws std::invalid_argument when an earlier turn of
  /// its conversation carries other crops or prefix_tokens: a
  /// conversation has one image and one prefix.
  void add(const Request& r);
  /// The encoding once encoded; the prefix once submitted (the chunk 0
  /// computing it runs ahead on the FIFO CC lane), as min(prefix_tokens,
  /// input_tokens - 1): one token is always prefilled for the logits.
  Reuse reuse(const Request& r) const;
  /// `r`'s local chunk 0 of `chunk0_tokens` tokens goes to the CC lane at
  /// `built_keep`: it encodes the image, and it submits the prefix with
  /// `r` as publisher when none is submitted yet and it covers the whole
  /// prefix at full keep (a pruned FFN computes different KV).
  void publish(const Request& r, std::size_t chunk0_tokens, double built_keep);
  /// `r`'s chunk 0 retired: true, and the prefix ready, if it published.
  bool retire(const Request& r);
  bool prefix_ready(const Request& r) const;

 private:
  enum class Stage { kNone, kEncoded, kPrefixSubmitted, kPrefixRetired };
  struct Conversation {
    std::size_t crops = 0;
    std::size_t prefix_tokens = 0;
    Stage stage = Stage::kNone;
    RequestId publisher = 0;  ///< valid from kPrefixSubmitted on
  };

  /// `r`'s conversation, or nullptr without a shared prefix.
  const Conversation* find(const Request& r) const;
  Conversation* find(const Request& r) {
    return const_cast<Conversation*>(std::as_const(*this).find(r));
  }

  std::map<std::pair<std::size_t, std::size_t>, Conversation> conversations_;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_CONVERSATION_CACHE_HPP
