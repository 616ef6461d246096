#include "serve/plan_cache.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"

namespace winomc::serve {

PlanCache::PlanCache(std::size_t budgetBytes)
    : budget(budgetBytes ? budgetBytes
                         : ws::Workspace::global().limitBytes())
{
    winomc_assert(budget > 0, "PlanCache needs a positive byte budget");
}

std::unique_ptr<WinoPlan>
PlanCache::acquirePlan(const WinogradAlgo &algo, int batch, int inCh,
                       int outCh, int h, int w)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i]->matches(algo, batch, inCh, outCh, h, w)) {
                std::unique_ptr<WinoPlan> p = std::move(pool[i]);
                pool.erase(pool.begin() + long(i));
                poolBytes -= p->workspaceBytes();
                ++nHits;
                metrics::counterAdd("serve.plan_cache.hits");
                publishGauges();
                p->invalidateCache();
                return p;
            }
        }
        ++nMisses;
        metrics::counterAdd("serve.plan_cache.misses");
    }
    // Build outside the lock: concurrent misses on different shapes
    // should overlap. The plan acquires its slabs on first use, so a
    // parked plan is charged for what its runs used.
    return std::make_unique<WinoPlan>(algo, batch, inCh, outCh, h, w);
}

void
PlanCache::releasePlan(std::unique_ptr<WinoPlan> plan)
{
    if (!plan)
        return;
    const std::size_t bytes = plan->workspaceBytes();
    std::vector<std::unique_ptr<WinoPlan>> doomed; // freed outside mu
    {
        std::lock_guard<std::mutex> lock(mu);
        if (bytes > budget) {
            ++nEvictions;
            metrics::counterAdd("serve.plan_cache.evictions");
            doomed.push_back(std::move(plan));
        } else {
            pool.insert(pool.begin(), std::move(plan));
            poolBytes += bytes;
            while (poolBytes > budget) {
                poolBytes -= pool.back()->workspaceBytes();
                ++nEvictions;
                metrics::counterAdd("serve.plan_cache.evictions");
                doomed.push_back(std::move(pool.back()));
                pool.pop_back();
            }
        }
        publishGauges();
    }
}

std::shared_ptr<const WinoWeights>
PlanCache::transformedWeights(const std::string &tag,
                              const Tensor &spatial,
                              const WinogradAlgo &algo)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = weights.find(tag);
        if (it != weights.end())
            return it->second;
    }
    // Transform outside the lock; a concurrent duplicate build of the
    // same tag is harmless (first insert wins, the loser's slab dies).
    auto built = std::make_shared<const WinoWeights>(
        transformWeights(spatial, algo));
    std::lock_guard<std::mutex> lock(mu);
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
    // ExecPolicy suffix (empty at the fp32-dense default) keeps
    // engines running under different WINOMC_PREC / WINOMC_SPARSE
    // settings from ever aliasing a slab.
    std::string key = spec.key();
    const std::size_t us = key.find('_');
    if (us != std::string::npos)
        key.erase(0, us + 1);
    return transformedWeights(key + "_F" + std::to_string(algo.m) + "x" +
                                  std::to_string(algo.r) +
                                  execPolicySuffix(currentExecPolicy()),
                              spatial, algo);
}

std::size_t
PlanCache::parkedBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return poolBytes;
}

int
PlanCache::parkedPlans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return int(pool.size());
}

std::uint64_t
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nHits;
}

std::uint64_t
PlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nMisses;
}

std::uint64_t
PlanCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nEvictions;
}

std::uint64_t
PlanCache::weightBuilds() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nWeightBuilds;
}

void
PlanCache::clear()
{
    std::vector<std::unique_ptr<WinoPlan>> doomed;
    std::lock_guard<std::mutex> lock(mu);
    doomed.swap(pool);
    poolBytes = 0;
    weights.clear();
    publishGauges();
}

void
PlanCache::publishGauges() const
{
    metrics::gaugeSet("serve.plan_cache.bytes", double(poolBytes));
    metrics::gaugeSet("serve.plan_cache.plans", double(pool.size()));
}

} // namespace winomc::serve
