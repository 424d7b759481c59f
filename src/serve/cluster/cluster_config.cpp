#include "serve/cluster/cluster_config.hpp"

#include <stdexcept>
#include <utility>

namespace edgemm::serve {

ClusterConfig::ClusterConfig() : router_(std::make_shared<RoundRobinRouter>()) {}

ClusterConfig& ClusterConfig::chips(std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("ClusterConfig: chips must be > 0");
  }
  chips_ = count;
  return *this;
}

ClusterConfig& ClusterConfig::mode(ClusterMode mode) {
  mode_ = mode;
  return *this;
}

ClusterConfig& ClusterConfig::prefill_chips(std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("ClusterConfig: prefill_chips must be > 0");
  }
  prefill_chips_ = count;
  return *this;
}

ClusterConfig& ClusterConfig::router(
    std::shared_ptr<const RouterPolicy> router) {
  if (!router) {
    throw std::invalid_argument("ClusterConfig: null RouterPolicy");
  }
  router_ = std::move(router);
  return *this;
}

ClusterConfig& ClusterConfig::workers(std::size_t count) {
  workers_ = count;
  return *this;
}

void ClusterConfig::validate() const {
  if (chips_ == 0 || !router_) {
    throw std::invalid_argument("ClusterConfig: invalid composition");
  }
  if (mode_ == ClusterMode::kDisaggregated) {
    if (chips_ < 2) {
      throw std::invalid_argument(
          "ClusterConfig: disaggregated mode needs at least 2 chips");
    }
    if (prefill_chips_ >= chips_) {
      throw std::invalid_argument(
          "ClusterConfig: disaggregated mode needs at least 1 decode chip "
          "(prefill_chips < chips)");
    }
  }
}

}  // namespace edgemm::serve
