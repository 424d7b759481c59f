#include "serve/residency_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/workload.hpp"

namespace edgemm::serve {

Bytes chip_weight_residency_capacity(const core::ChipConfig& config,
                                     double oversubscription) {
  if (!(oversubscription > 0.0)) {
    throw std::invalid_argument(
        "chip_weight_residency_capacity: oversubscription must be > 0");
  }
  const double base = static_cast<double>(config.total_cc_clusters()) *
                      static_cast<double>(config.cc_cluster_tcdm_bytes);
  return static_cast<Bytes>(std::llround(base * oversubscription));
}

Bytes llm_layer_group_bytes(const model::MllmConfig& model,
                            const core::ChipConfig& config) {
  return static_cast<Bytes>(model::llm_layer_weight_elems(model)) *
         config.cc_elem_bytes;
}

WeightResidencyTracker::WeightResidencyTracker(Bytes capacity)
    : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument(
        "WeightResidencyTracker: capacity must be > 0");
  }
}

WeightResidencyTracker::PinMap::iterator WeightResidencyTracker::erase(
    PinMap::iterator it) {
  pinned_ -= it->second.bytes;
  return pins_by_key_.erase(it);
}

WeightResidencyTracker::AttachResult WeightResidencyTracker::attach_layers(
    PinKey key, Bytes bytes_per_layer, std::size_t max_layers) {
  if (bytes_per_layer == 0 || max_layers == 0) {
    throw std::invalid_argument(
        "WeightResidencyTracker: layer group size and count must be > 0");
  }
  const auto it = pins_by_key_.find(key);
  if (it != pins_by_key_.end()) {
    // The weights are already on chip under this key: ride them. The
    // budget is charged once per pin, not once per attached request. A
    // zero refcount means the pin was kept warm by a keep_resident
    // detach — reviving it is the keep-warm win (no fill fetch at all).
    const bool warm = it->second.refs == 0;
    ++it->second.refs;
    if (warm) {
      ++warm_attaches_;
    } else {
      ++shared_attaches_;
    }
    return {it->second.layers, /*shared=*/true, warm};
  }
  const std::size_t fit =
      std::min<std::size_t>(max_layers, available() / bytes_per_layer);
  if (fit == 0) {
    ++fallbacks_;
    return {0, false, false};
  }
  const Bytes bytes = static_cast<Bytes>(fit) * bytes_per_layer;
  pins_by_key_.emplace(key, Pin{fit, bytes, 1, /*filled=*/false});
  pinned_ += bytes;
  peak_pinned_ = std::max(peak_pinned_, pinned_);
  ++pins_;
  return {fit, /*shared=*/false, /*warm=*/false};
}

void WeightResidencyTracker::detach(PinKey key, bool keep_resident) {
  const auto it = pins_by_key_.find(key);
  if (it == pins_by_key_.end() || it->second.refs == 0) {
    throw std::logic_error(
        "WeightResidencyTracker: detach from a key holding no attached pin");
  }
  if (--it->second.refs == 0 && !keep_resident) erase(it);
}

void WeightResidencyTracker::mark_filled(PinKey key) {
  const auto it = pins_by_key_.find(key);
  if (it == pins_by_key_.end()) {
    throw std::logic_error("WeightResidencyTracker: mark_filled without a pin");
  }
  it->second.filled = true;
}

bool WeightResidencyTracker::filled(PinKey key) const {
  const auto it = pins_by_key_.find(key);
  return it != pins_by_key_.end() && it->second.filled;
}

void WeightResidencyTracker::evict_idle(PinKey key) {
  const auto it = pins_by_key_.find(key);
  if (it == pins_by_key_.end()) {
    throw std::logic_error("WeightResidencyTracker: evicting a missing pin");
  }
  if (it->second.refs > 0) {
    throw std::logic_error(
        "WeightResidencyTracker: evicting a pin with live holders");
  }
  erase(it);
  ++idle_evictions_;
}

std::size_t WeightResidencyTracker::evict_all_idle() {
  std::size_t evicted = 0;
  for (auto it = pins_by_key_.begin(); it != pins_by_key_.end();) {
    if (it->second.refs == 0) {
      it = erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::size_t WeightResidencyTracker::idle_pins() const {
  std::size_t idle = 0;
  for (const auto& [key, pin] : pins_by_key_) {
    if (pin.refs == 0) ++idle;
  }
  return idle;
}

std::size_t WeightResidencyTracker::refcount(PinKey key) const {
  const auto it = pins_by_key_.find(key);
  return it == pins_by_key_.end() ? 0 : it->second.refs;
}

std::size_t WeightResidencyTracker::resident_layers(PinKey key) const {
  const auto it = pins_by_key_.find(key);
  return it == pins_by_key_.end() ? 0 : it->second.layers;
}

}  // namespace edgemm::serve
