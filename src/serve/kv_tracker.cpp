#include "serve/kv_tracker.hpp"

#include <cmath>
#include <stdexcept>

#include "model/workload.hpp"

namespace edgemm::serve {

Bytes kv_footprint_bytes(const Request& r, const model::MllmConfig& model) {
  return static_cast<Bytes>(r.input_tokens + r.output_tokens) *
         model::kv_bytes_per_token(model);
}

Bytes chip_kv_capacity(const core::ChipConfig& config, double oversubscription) {
  if (!(oversubscription > 0.0)) {
    throw std::invalid_argument("chip_kv_capacity: oversubscription must be > 0");
  }
  const double base = static_cast<double>(config.total_mc_clusters()) *
                      static_cast<double>(config.mc_cluster_cim_bytes());
  return static_cast<Bytes>(std::llround(base * oversubscription));
}

}  // namespace edgemm::serve
