// ClusterConfig: how a multi-chip cluster replays one shared trace.
#ifndef EDGEMM_SERVE_CLUSTER_CLUSTER_CONFIG_HPP
#define EDGEMM_SERVE_CLUSTER_CLUSTER_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "serve/cluster/router.hpp"

namespace edgemm::serve {

/// How the cluster splits the work across its chips.
enum class ClusterMode : std::uint8_t {
  /// Every chip is a full replica (prefill + decode); the RouterPolicy
  /// shards the trace across them.
  kReplica,
  /// Dedicated prefill chips stream finished KV caches to decode chips
  /// over the chip-to-chip link (mem::ChipLink); prefill work is
  /// balanced across the prefill tier, the RouterPolicy shards the
  /// decode tier.
  kDisaggregated,
};

/// Builder-style cluster composition, mirroring EngineConfig. Defaults
/// are the identity cluster: 1 chip, replica mode, round-robin routing
/// — run_cluster on it replays the single-engine result byte-for-byte.
class ClusterConfig {
 public:
  ClusterConfig();

  /// Chips in the cluster. Throws std::invalid_argument on 0.
  ClusterConfig& chips(std::size_t count);

  ClusterConfig& mode(ClusterMode mode);

  /// Chips of the prefill tier (disaggregated mode only; chips [0, n)
  /// prefill, the rest decode). Throws std::invalid_argument on 0.
  ClusterConfig& prefill_chips(std::size_t count);

  /// Replica-mode trace router / disaggregated-mode decode-tier router.
  /// Throws std::invalid_argument on null.
  ClusterConfig& router(std::shared_ptr<const RouterPolicy> router);

  /// Worker threads for the underlying run_sweep over per-chip replays
  /// (0/1 = inline; the outcome is byte-identical at any count).
  ClusterConfig& workers(std::size_t count);

  std::size_t chips() const { return chips_; }
  ClusterMode mode() const { return mode_; }
  std::size_t prefill_chips() const { return prefill_chips_; }
  const RouterPolicy& router() const { return *router_; }
  std::size_t workers() const { return workers_; }

  /// Composition sanity: disaggregated mode needs at least one prefill
  /// AND one decode chip (prefill_chips in [1, chips)). Throws
  /// std::invalid_argument on violation.
  void validate() const;

 private:
  std::size_t chips_ = 1;
  ClusterMode mode_ = ClusterMode::kReplica;
  std::size_t prefill_chips_ = 1;
  std::shared_ptr<const RouterPolicy> router_;
  std::size_t workers_ = 1;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_CLUSTER_CLUSTER_CONFIG_HPP
