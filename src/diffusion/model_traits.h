// The model-traits layer: one compile-time contract that every diffusion
// model implements, and the runtime-enum -> compile-time-traits dispatcher.
//
// A traits struct (OpoaoTraits, DoamTraits, IcTraits, LtTraits, WcTraits)
// is the single place its model's semantics live. The contract:
//
//   flags     kModel, kName, kDeterministic (one realization: Monte-Carlo
//             runs once, SigmaEstimator replays one sample for all),
//             kSupportsReverse (RIS)
//   forward   Trace, Forward(g, seed, params, trace) with seed(plan, r) /
//             active() / step(plan, step, r) over a CascadePlan (K cascades
//             in priority order) — consumed by run_cascade<Traits>
//             (kernel.h), which takes the one forward config every model
//             shares, RealizationParams (hop cap, IC edge probability)
//   cache     CacheShared/CacheSample/ReplayScratch,
//             build_cache_shared/build_cache_sample, replay,
//             replay_infected, *_bytes — consumed by SigmaEstimator
//   lanes     [optional] replay_lanes(g, shared, sp, rumors, base, extras,
//             targets, infected, params) -> ops: replays one sample for up
//             to 64 sets (lane l seeds base + extras[l]) and writes, per
//             target, the word of lanes in which it ends infected —
//             consumed by SigmaEstimator::evaluate_lanes, which otherwise runs
//             `replay` lane by lane
//   reverse   [kSupportsReverse] reverse_set — consumed by RrSampler
//
// Every model implements the cache. The live-edge family (DOAM, IC, WC)
// inherits its forward, cache and reverse members from LiveEdgeTraits
// (frontier_traits.h): such a model is its flags plus a coin. The optional
// capabilities are detected at compile time (`if constexpr`, a `requires`
// check for lanes), so LT simply omits reverse_set and only OPOAO has a lane
// kernel. Everything
// downstream — simulate(), Monte-Carlo, the sigma estimator, RIS, the query
// service, the CLI — is generic over this contract: adding a model is one
// traits file plus a DiffusionModel enum entry (wc_traits.h is the worked
// example; the recipe is in docs/architecture.md).
#pragma once

#include "diffusion/doam_traits.h"
#include "diffusion/ic_traits.h"
#include "diffusion/kernel.h"
#include "diffusion/lt_traits.h"
#include "diffusion/opoao_traits.h"
#include "diffusion/wc_traits.h"
#include "util/error.h"

namespace lcrb {

/// Maps a runtime DiffusionModel onto its compile-time traits: calls
/// f(Traits{}) for the matching traits type and returns its result. The
/// traits value is an empty tag — use `using T = decltype(t)` inside f.
template <class F>
decltype(auto) dispatch_model(DiffusionModel m, F&& f) {
  switch (m) {
    case DiffusionModel::kOpoao: return f(OpoaoTraits{});
    case DiffusionModel::kDoam: return f(DoamTraits{});
    case DiffusionModel::kIc: return f(IcTraits{});
    case DiffusionModel::kLt: return f(LtTraits{});
    case DiffusionModel::kWc: return f(WcTraits{});
  }
  throw Error("unknown diffusion model");
}

}  // namespace lcrb
