// RouterPolicy seam: which chip of a cluster serves a request.
//
// The ClusterEngine replays ONE shared trace across N per-chip
// ServingEngines. Routing is the cluster-level analogue of the engine's
// policy seams: a deterministic, side-effect-free judgment over the
// request and the per-chip loads accumulated so far. Because every chip
// replays independently (each owns its own simulator), routing is
// STATIC — decided in trace order before any chip runs — which is what
// keeps a cluster replay byte-identical at any sweep worker count.
//
// Three policies mirror the serving literature's replica routers:
//   - RoundRobinRouter:  request i -> chip i mod N (the baseline);
//   - LeastLoadedRouter: cheapest chip by accumulated request cost;
//   - ModelAffinityRouter: a model's requests keep landing on the chip
//     already serving that model — the same demand signal
//     DemandWeightedPlacement ranks pins by, so the model's weight pin
//     stays warm on its home chip instead of being re-filled everywhere
//     — spilling to the least-loaded chip only when the home chip's
//     backlog runs too far ahead of the cluster.
#ifndef EDGEMM_SERVE_CLUSTER_ROUTER_HPP
#define EDGEMM_SERVE_CLUSTER_ROUTER_HPP

#include <cstddef>
#include <vector>

#include "serve/request.hpp"

namespace edgemm::serve {

/// Accumulated routing state of one chip (maintained by the
/// ClusterEngine as it routes the trace in order; policies only read it).
struct ChipLoad {
  std::size_t assigned_requests = 0;
  /// Sum of request_route_cost over the requests routed here — the
  /// token-count proxy for how much work the chip already owes.
  double estimated_cost = 0.0;
  /// Requests routed here per model index (the affinity signal).
  std::vector<std::size_t> per_model;
};

/// What a routing judgment sees: one entry per chip, in chip order.
struct RouterContext {
  std::vector<ChipLoad> chips;
};

/// Routing cost proxy of one request: total tokens it moves through a
/// chip (encoder crops weight the prompt side — vision tokens dominate
/// MLLM prefill).
double request_route_cost(const Request& r);

/// Cluster routing seam. Implementations must be deterministic pure
/// functions of (request, context) — routing happens in trace order and
/// its output IS the cluster's reproducibility contract.
class RouterPolicy {
 public:
  virtual ~RouterPolicy() = default;
  /// Chip index in [0, ctx.chips.size()) that serves `r`.
  virtual std::size_t route(const Request& r,
                            const RouterContext& ctx) const = 0;
};

/// Request i -> chip i mod N, blind to cost and model.
class RoundRobinRouter final : public RouterPolicy {
 public:
  std::size_t route(const Request& r, const RouterContext& ctx) const override;
};

/// Cheapest chip by accumulated estimated_cost (ties to the lower chip
/// index) — the classic join-shortest-queue approximation.
class LeastLoadedRouter final : public RouterPolicy {
 public:
  std::size_t route(const Request& r, const RouterContext& ctx) const override;
};

/// Routes a request to the chip already serving the most requests of its
/// model (its HOME chip), so the model's shared weight pin is filled
/// once and every later request rides it warm. A model nobody serves
/// yet homes on the least-loaded chip. When the home chip's accumulated
/// cost runs more than spill_factor x this request's cost ahead of the
/// cluster's cheapest chip, the request spills there instead — affinity
/// must not starve the rest of the cluster.
class ModelAffinityRouter final : public RouterPolicy {
 public:
  explicit ModelAffinityRouter(double spill_factor = 4.0);
  std::size_t route(const Request& r, const RouterContext& ctx) const override;
  double spill_factor() const { return spill_factor_; }

 private:
  double spill_factor_;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_CLUSTER_ROUTER_HPP
