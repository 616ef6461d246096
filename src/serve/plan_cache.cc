#include "serve/plan_cache.hh"

#include "common/metrics.hh"
#include "winograd/conv.hh"

namespace winomc::serve {

PlanCache::PlanCache(std::size_t budgetBytes)
    : PlanPool(budgetBytes, "serve.plan_cache")
{}

std::shared_ptr<const WinoWeights>
PlanCache::transformedWeights(const std::string &tag,
                              const Tensor &spatial,
                              const WinogradAlgo &algo)
{
    {
        std::lock_guard<std::mutex> lock(weightMu);
        auto it = weights.find(tag);
        if (it != weights.end())
            return it->second;
    }
    // Transform outside the lock; a concurrent duplicate build of the
    // same tag is harmless (first insert wins, the loser's slab dies).
    auto built = std::make_shared<const WinoWeights>(
        transformWeights(spatial, algo));
    std::lock_guard<std::mutex> lock(weightMu);
    auto [it, inserted] = weights.emplace(tag, std::move(built));
    if (inserted) {
        ++nWeightBuilds;
        metrics::counterAdd("serve.plan_cache.weight_builds");
    }
    return it->second;
}

std::shared_ptr<const WinoWeights>
PlanCache::transformedWeights(const ConvSpec &spec,
                              const Tensor &spatial,
                              const WinogradAlgo &algo)
{
    // Batch-independent: strip the leading "b<N>_" of the canonical key
    // so every batch shape of one layer shares a single slab. The
    // config key (empty at the fp32-dense default) keeps weights
    // transformed under different precisions or sparsity from ever
    // aliasing a slab.
    std::string key = spec.key();
    const std::size_t us = key.find('_');
    if (us != std::string::npos)
        key.erase(0, us + 1);
    return transformedWeights(key + "_F" + std::to_string(algo.m) + "x" +
                                  std::to_string(algo.r) +
                                  execConfig().key(),
                              spatial, algo);
}

std::uint64_t
PlanCache::weightBuilds() const
{
    std::lock_guard<std::mutex> lock(weightMu);
    return nWeightBuilds;
}

void
PlanCache::clear()
{
    PlanPool::clear();
    std::lock_guard<std::mutex> lock(weightMu);
    weights.clear();
}

} // namespace winomc::serve
