/**
 * @file
 * Shape-keyed plan + transformed-weight cache shared across the models
 * a serving engine (or several engines) runs.
 *
 * Two resources dominate Winograd serving cost when the traffic mix
 * churns through batch shapes:
 *
 *  - execution plans: the (algo, N, C -> K, H, W)-bound slab sets of
 *    winograd/plan.hh. PlanCache IS a winograd::PlanPool — thread-
 *    safe and byte-budgeted (by default the workspace retention limit,
 *    WINOMC_WORKSPACE_LIMIT_MB) — publishing under serve.plan_cache:
 *    layers lease a plan per shape and park it back, and concurrent
 *    model instances draw from one pool instead of each holding a
 *    private copy of every shape.
 *  - Winograd-domain weights: replicas of one model would each pay the
 *    G w G^T transform per layer. transformedWeights() builds each
 *    tagged slab once and hands every replica the same immutable copy
 *    (wired into layers via nn::ConvLayer::shareWinoWeights).
 */

#ifndef WINOMC_SERVE_PLAN_CACHE_HH
#define WINOMC_SERVE_PLAN_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "tensor/tensor.hh"
#include "winograd/plan.hh"
#include "winograd/tiling.hh"

namespace winomc::serve {

class PlanCache : public PlanPool
{
  public:
    /** @param budgetBytes ceiling on parked-plan bytes; 0 rides the
     *  workspace retention limit (WINOMC_WORKSPACE_LIMIT_MB). */
    explicit PlanCache(std::size_t budgetBytes = 0);

    /**
     * The Winograd-domain transform of `spatial` under `algo`, built
     * once per `tag` and shared by every caller ("model.conv3" -> one
     * slab for all replicas). The caller must keep the tag's spatial
     * weights stable — frozen inference weights — since later calls
     * return the first build.
     */
    std::shared_ptr<const WinoWeights>
    transformedWeights(const std::string &tag, const Tensor &spatial,
                       const WinogradAlgo &algo);

    /**
     * Descriptor-keyed variant: the slab is tagged by the canonical
     * shape key (ConvSpec::key(), batch excluded — weights are batch-
     * independent) plus the algorithm, the same identity the tuning
     * cache (winograd/tuner.hh) persists decisions under. Engines that
     * tune per descriptor share weight slabs per descriptor with no
     * hand-rolled tag scheme.
     */
    std::shared_ptr<const WinoWeights>
    transformedWeights(const ConvSpec &spec, const Tensor &spatial,
                       const WinogradAlgo &algo);

    /** Distinct transformed-weight slabs built so far. */
    std::uint64_t weightBuilds() const;

    /** Destroy every parked plan and cached weight slab. */
    void clear();

  private:
    mutable std::mutex weightMu;
    std::map<std::string, std::shared_ptr<const WinoWeights>> weights;
    std::uint64_t nWeightBuilds = 0;
};

} // namespace winomc::serve

#endif // WINOMC_SERVE_PLAN_CACHE_HH
