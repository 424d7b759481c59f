// KV-cache sizing for the decode batch.
//
// Each request decoding on the MC side owns a private KV cache whose
// full footprint is (input + output tokens) x kv_bytes_per_token of its
// model. In whole-footprint mode the engine reserves that footprint on
// the KvPageAllocator (serve/kv_pages.hpp) when the request joins the
// decode batch and releases it at retirement; a join that would
// overflow is deferred (the request stays decode-ready and retries at
// the next step boundary).
//
// The natural budget unit is the MC-side CIM storage of the chip
// (chip_kv_capacity below, from ChipConfig::mc_cluster_cim_bytes());
// because the Fig. 10 chip's on-chip CIM capacity is far below one
// realistic KV cache, budgets are expressed as an oversubscription
// multiple of it (KV pages stream from DRAM through the macros).
#ifndef EDGEMM_SERVE_KV_TRACKER_HPP
#define EDGEMM_SERVE_KV_TRACKER_HPP

#include "common/types.hpp"
#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// MC-side KV byte budget of `config`: oversubscription x total MC
/// clusters x per-cluster CIM bytes. Throws std::invalid_argument for a
/// non-positive oversubscription.
Bytes chip_kv_capacity(const core::ChipConfig& config,
                       double oversubscription = 1.0);

/// Full KV-cache footprint `r` reaches by its last generated token —
/// the amount a request reserves when it joins the decode batch (and
/// the unit KV budgets should be sized in).
Bytes kv_footprint_bytes(const Request& r, const model::MllmConfig& model);

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_KV_TRACKER_HPP
