#include "winograd/plan.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/cost.hh"
#include "winograd/microkernel.hh"

namespace winomc {

namespace {

/**
 * Range scratch budget: one range's input-side plus output-side tiles
 * should sit inside a typical L2 slice, so its transform -> accumulate
 * -> inverse chain runs without round trips to DRAM. A batch whose
 * tiles fit it runs as one range.
 */
constexpr std::size_t kScratchBudgetBytes = 1024 * 1024;

/**
 * Shortest range: on the F(4,3) kernel grid (bench/wino_kernels.cpp,
 * BM_WinoEvalForward, 4-core AVX-512 Xeon), ranges under four panels
 * ran 10-30% slower than four-panel ones at 64 to 128 channels, at 1
 * and 4 threads.
 */
constexpr int kMinRangeTiles = 4 * mk::kTilePanel;

} // namespace

WinoPlan::WinoPlan(const WinogradAlgo &algo, int batch, int inCh,
                   int outCh, int h, int w)
    : alg(algo), nb(batch), ni(inCh), nj(outCh), fh(h), fw(w),
      grid(h, w, algo), cfg(execConfig())
{
    winomc_assert(batch > 0 && inCh > 0 && outCh > 0,
                  "degenerate WinoPlan configuration");
    // No slab is sized here: each stage acquires what it writes on
    // first use (acquire), so a plan holds only what its runs use.

    // Range length: the whole panels whose in+out tiles fit
    // kScratchBudgetBytes, but no fewer than kMinRangeTiles and the
    // weight-amortization floor — each range re-streams the whole
    // Winograd weight slab (a^2*I*J floats) to save a write+read round
    // trip of its tiles (a^2*(I+J) floats per tile), so the floor
    // I*J/(I+J) keeps the re-stream at <= 1/2 of the saving; without
    // it, heavy channel counts shrink ranges until weight traffic eats
    // the win. The batch then splits into that many ranges of even
    // length (whole panels), so no range is a short remainder; a batch
    // within one range runs as the whole batch.
    const int p = mk::kTilePanel;
    const std::size_t a2 = std::size_t(algo.alpha) * algo.alpha;
    const std::size_t perTile = a2 * std::size_t(inCh + outCh) *
                                sizeof(float);
    const int fit = int(kScratchBudgetBytes / perTile) / p * p;
    const int floor = std::max(
        kMinRangeTiles, int(std::int64_t(inCh) * outCh / (inCh + outCh)));
    const int most = std::max(fit, (floor + p - 1) / p * p);
    const int total = batch * grid.tiles();
    const int ranges = (total + most - 1) / most;
    rangeT = ranges == 1
                 ? total
                 : ((total + ranges - 1) / ranges + p - 1) / p * p;

    // Exact in-bounds gather footprint of one (image, channel) plane,
    // for the measured-traffic counters.
    const int a = algo.alpha;
    for (int th = 0; th < grid.tilesH; ++th) {
        const int r0 = grid.tileRow(th);
        const int rows = std::min(r0 + a, h) - std::max(r0, 0);
        for (int tw = 0; tw < grid.tilesW; ++tw) {
            const int c0 = grid.tileCol(tw);
            const int cols = std::min(c0 + a, w) - std::max(c0, 0);
            gatherElemsA += std::size_t(rows) * cols;
        }
    }
}

bool
WinoPlan::matches(const WinogradAlgo &algo, int batch, int inCh,
                  int outCh, int h, int w) const
{
    return &algo == &alg && batch == nb && inCh == ni && outCh == nj &&
           h == fh && w == fw && cfg == execConfig();
}

std::size_t
WinoPlan::workspaceBytes() const
{
    std::size_t bytes = slabBytes(held, nb, grid.tiles());
    for (const RangeTiles &s : rangeSets)
        bytes += (s.in.size() + s.out.size()) * sizeof(float) +
                 s.inHalf.size() * sizeof(std::uint16_t) +
                 s.mask.wordCount() * sizeof(std::uint64_t);
    return bytes;
}

unsigned
WinoPlan::forwardSlabs() const
{
    return (cfg.prec != Prec::F32 ? kXh : kXt) | kYt |
           (cfg.sparse ? kMask : 0u);
}

std::size_t
WinoPlan::slabBytes(unsigned slabs, int batch, int tiles) const
{
    const std::size_t a2 = std::size_t(alg.alpha) * alg.alpha;
    const std::size_t perCh = a2 * batch * tiles;
    std::size_t bytes = 0;
    if (slabs & kXt)
        bytes += perCh * ni * sizeof(float);
    if (slabs & kYt)
        bytes += perCh * nj * sizeof(float);
    if (slabs & kDYt)
        bytes += perCh * nj * sizeof(float);
    if (slabs & kDXt)
        bytes += perCh * ni * sizeof(float);
    if (slabs & kXh)
        bytes += perCh * ni * sizeof(std::uint16_t);
    if (slabs & kMask)
        bytes += ActMask::wordsFor(int(a2), ni, batch, tiles) *
                 sizeof(std::uint64_t);
    return bytes;
}

void
WinoPlan::checkBudget(std::size_t bytes, const char *what) const
{
    if (bytes <= ws::Workspace::global().limitBytes())
        return;
    ws::checkBudget(bytes, detail::concatMessage("WinoPlan(", nb, "x", ni,
                                                 "->", nj, "@", fh, "x",
                                                 fw, ") ", what));
}

void
WinoPlan::acquire(unsigned use, unsigned mode)
{
    const unsigned fresh = use & ~held;
    if (!fresh)
        return;
    checkBudget(slabBytes(mode, nb, grid.tiles()), "slabs");
    const int a = alg.alpha;
    const int nt = grid.tiles();
    if (fresh & kXt)
        Xt.reshape(a, ni, nb, nt);
    if (fresh & kYt)
        Yt.reshape(a, nj, nb, nt);
    if (fresh & kDYt)
        dYt.reshape(a, nj, nb, nt);
    if (fresh & kDXt)
        dXt.reshape(a, ni, nb, nt);
    if (fresh & kXh)
        Xh.reshape(a, ni, nb, nt);
    if (fresh & kMask)
        actMask.reshape(a * a, ni, nb, nt);
    held |= fresh;
}

void
WinoPlan::releaseEvalTiles()
{
    if (!evalTiles)
        return;
    if ((held & kXt) && Xt.offer())
        held &= ~kXt;
    if ((held & kXh) && Xh.offer())
        held &= ~kXh;
    if ((held & kYt) && Yt.offer())
        held &= ~kYt;
    if ((held & kMask) && actMask.offer())
        held &= ~kMask;
    for (RangeTiles &s : rangeSets) {
        s.in.offer();
        s.inHalf.offer();
        s.out.offer();
        s.mask.offer();
    }
}

void
WinoPlan::publishTraffic(const char *mode, const char *phase,
                         double xformBytes, double ewBytes,
                         double invBytes, double predictedBytes) const
{
    std::string base = "wino.";
    base += mode;
    base += '.';
    base += phase;
    metrics::counterAdd((base + ".xform_bytes").c_str(), xformBytes);
    metrics::counterAdd((base + ".ew_bytes").c_str(), ewBytes);
    metrics::counterAdd((base + ".inverse_bytes").c_str(), invBytes);
    metrics::counterAdd((base + ".bytes_moved").c_str(),
                        xformBytes + ewBytes + invBytes);
    metrics::counterAdd((base + ".calls").c_str(), 1.0);
    metrics::gaugeSet((base + ".predicted_bytes").c_str(),
                      predictedBytes);
}

void
WinoPlan::forwardInto(const Tensor &x, const WinoWeights &W, Tensor &y,
                      bool keepTiles)
{
    winomc_assert(x.n() == nb && x.c() == ni && x.h() == fh &&
                      x.w() == fw && y.n() == nb && y.c() == nj &&
                      y.h() == fh && y.w() == fw,
                  "forwardInto input or output shape mismatch");
    const int nt = grid.tiles();
    const int total = nb * nt;
    const int len = keepTiles ? total : rangeT;
    const int ranges = (total + len - 1) / len;
    const bool fused = ranges > 1;
    WINOMC_SPAN(fused ? "wino.fused.fwd" : "wino.phase.fwd", "wino");
    // The three stages of range r, into the plan's slabs (the one range
    // of the whole batch) or a set of range tiles; both start at lane 0.
    const auto stages = [&](WinoTiles &Xf, HalfTiles &Xs, WinoTiles &Y,
                            ActMask &mask, int r) {
        const TileRange range{r * len, std::min(len, total - r * len)};
        ActMask *zeros = cfg.sparse ? &mask : nullptr;
        const auto toY = [&](auto &X) {
            transformInputInto(x, alg, X, zeros, cfg.prec, range);
            elementwiseForwardInto(X, W, Y, 0, -1, zeros, cfg.prec,
                                   range.count);
        };
        if (cfg.prec == Prec::F32)
            toY(Xf);
        else
            toY(Xs);
        inverseTransformInto(Y, alg, y, range);
    };

    if (!fused) {
        acquire(forwardSlabs(), forwardSlabs());
        stages(Xt, Xh, Yt, actMask, 0);
    } else {
        const int a = alg.alpha;
        const int m = alg.m;
        mk::StageTimer probe("fused.fwd",
                             4.0 * a * a * a * double(ni) * total +
                                 2.0 * a * a * double(nj) * ni * total +
                                 2.0 * m * a * (a + m) * double(nj) * total);
        // Tasks of ranges, claimed by the pool threads as they come
        // free, each taking a free set of range tiles (no more tasks run
        // at once than there are threads) and running its stages
        // inline. With fewer ranges than threads, one task runs them in
        // turn with each stage parallel inside. Output tiles are
        // disjoint across ranges, so any schedule is race-free and
        // bitwise identical.
        const int threads = ThreadPool::global().threadCount();
        const std::size_t sets = ranges < threads ? 1 : std::size_t(threads);
        if (rangeSets.size() < sets) {
            checkBudget(sets * slabBytes(forwardSlabs(), 1, len),
                        "range tiles");
            rangeSets.resize(sets);
        }
        for (RangeTiles &s : rangeSets) {
            if (cfg.prec == Prec::F32)
                s.in.reshape(a, ni, 1, len);
            else
                s.inHalf.reshape(a, ni, 1, len);
            s.out.reshape(a, nj, 1, len);
            if (cfg.sparse)
                s.mask.reshape(a * a, ni, 1, len);
        }
        parallelFor(0, ranges, sets == 1 ? ranges : 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            RangeTiles *s;
            {
                std::lock_guard<std::mutex> lock(rangeMu);
                const auto free = std::find_if(
                    rangeSets.begin(), rangeSets.end(),
                    [](const RangeTiles &t) { return !t.busy; });
                winomc_assert(free != rangeSets.end(),
                              "more range tasks at once than range tiles");
                s = &*free;
                s->busy = true;
            }
            for (std::int64_t r = lo; r < hi; ++r)
                stages(s->in, s->inHalf, s->out, s->mask, int(r));
            std::lock_guard<std::mutex> lock(rangeMu);
            s->busy = false;
        });
    }
    evalTiles = !keepTiles;
    if (keepTiles) {
        // Sparse leaves Xt the same fp32 slab, bitwise. A half policy
        // bypasses it; tile-cache consumers must then scatterInput
        // (backward stays full fp32).
        haveInput = cfg.prec == Prec::F32;
        haveOutput = true;
    } else {
        invalidateCache();
    }
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double out = double(nb) * nj * fh * fw * sizeof(float);
        const double f = double(sizeof(float));
        const double gather = double(gatherElemsA) * nb * ni * f;
        const double predicted = double(
            predictedTrafficBytes(spec, alg, Phase::Fprop, fused, ranges)
                .totalBytes());
        if (fused) {
            // Gather x, stream W once per range, store y: the range
            // tiles stay cache-resident.
            publishTraffic("fused", "fwd", gather,
                           double(W.size()) * ranges * f, out, predicted);
        } else {
            // The X-tile stream at its storage width (Xt or Xh).
            const double xTile = double(slabBytes(kXt, nb, nt)) / f *
                                 double(precBytes(cfg.prec));
            publishTraffic("staged", "fwd", gather + xTile,
                           xTile + (double(W.size()) + double(Yt.size())) *
                                       f,
                           double(Yt.size()) * f + out, predicted);
        }
    }
}

void
WinoPlan::backwardDataInto(const Tensor &dy, const WinoWeights &W,
                           Tensor &dx)
{
    WINOMC_SPAN("wino.phase.bwd_data", "wino");
    transformGradOutput(dy);
    backwardDataFromCachedInto(W, dx);
}

void
WinoPlan::gradWeightsInto(const Tensor &x, const Tensor &dy,
                          WinoWeights &dW)
{
    WINOMC_SPAN("wino.phase.grad_weights", "wino");
    scatterInput(x);
    transformGradOutput(dy);
    gradWeightsFromCachedInto(dW);
}

void
WinoPlan::transformGradOutput(const Tensor &dy)
{
    acquire(kDYt, kDYt | kDXt);
    inverseTransformAdjointInto(dy, alg, dYt);
    haveGrad = true;
    gradXformUncounted = true;
}

double
WinoPlan::takeGradXformBytes()
{
    if (!gradXformUncounted)
        return 0.0;
    gradXformUncounted = false;
    return (double(nb) * nj * fh * fw + double(dYt.size())) *
           sizeof(float);
}

void
WinoPlan::gradWeightsFromCachedInto(WinoWeights &dW)
{
    winomc_assert(haveInput && haveGrad,
                  "gradWeightsFromCachedInto without cached forward "
                  "tiles and transformed grad-output");
    elementwiseGradWeightsInto(dYt, Xt, dW);
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double f = double(sizeof(float));
        // The forward (or scatterInput) produced the X tiles.
        publishTraffic(
            "staged", "grad_weights", takeGradXformBytes(),
            (double(dYt.size()) + double(Xt.size()) + double(dW.size())) *
                f,
            0.0,
            double(predictedTrafficBytes(spec, alg, Phase::UpdateGrad,
                                         false)
                       .totalBytes()));
    }
}

void
WinoPlan::backwardDataFromCachedInto(const WinoWeights &W, Tensor &dx)
{
    winomc_assert(haveGrad, "backwardDataFromCachedInto before "
                            "transformGradOutput");
    elementwiseBackwardDataInto(dYt, W, gradInputTilesMutable());
    transformInputAdjointInto(dXt, alg, dx);
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double inPlane = double(nb) * ni * fh * fw;
        const double addSweep = double(gatherElemsA) * nb * ni;
        const double f = double(sizeof(float));
        publishTraffic(
            "staged", "bwd_data", takeGradXformBytes(),
            (double(dYt.size()) + double(W.size()) +
             double(dXt.size())) *
                f,
            (double(dXt.size()) + inPlane + 2.0 * addSweep) * f,
            double(predictedTrafficBytes(spec, alg, Phase::Bprop, false)
                       .totalBytes()));
    }
}

void
WinoPlan::scatterInput(const Tensor &x)
{
    acquire(kXt, kXt);
    transformInputInto(x, alg, Xt);
    haveInput = true;
}

void
WinoPlan::gatherOutputInto(Tensor &y)
{
    inverseTransformInto(Yt, alg, y);
    haveOutput = true;
}

void
WinoPlan::gatherGradInputInto(Tensor &dx)
{
    transformInputAdjointInto(dXt, alg, dx);
}

WinoTiles &
WinoPlan::outputTilesMutable()
{
    acquire(kYt, kXt | kYt);
    return Yt;
}

WinoTiles &
WinoPlan::gradInputTilesMutable()
{
    acquire(kDXt, kDYt | kDXt);
    return dXt;
}

const WinoTiles &
WinoPlan::inputTiles() const
{
    winomc_assert(haveInput, "input tiles not populated");
    return Xt;
}

const WinoTiles &
WinoPlan::outputTiles() const
{
    winomc_assert(haveOutput,
                  "output tiles not populated (only a forward that keeps "
                  "its tiles caches them)");
    return Yt;
}

const WinoTiles &
WinoPlan::gradOutputTiles() const
{
    winomc_assert(haveGrad, "grad-output tiles not populated");
    return dYt;
}

// ------------------------------------------------------------ PlanPool

PlanPool::PlanPool(std::size_t budgetBytes,
                   const std::string &metricPrefix)
    : budget(budgetBytes),
      prefix(metricPrefix.empty() ? metricPrefix : metricPrefix + ".")
{}

void
PlanPool::lease(std::unique_ptr<WinoPlan> &slot, const WinogradAlgo &algo,
                int batch, int inCh, int outCh, int h, int w)
{
    if (slot && slot->matches(algo, batch, inCh, outCh, h, w))
        return;
    std::unique_ptr<WinoPlan> leased;
    Doomed doomed; // destroyed after mu is released
    {
        std::lock_guard<std::mutex> lock(mu);
        // Take the match before parking the displaced plan, so parking
        // can never evict the plan this lease is about to reuse.
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i]->matches(algo, batch, inCh, outCh, h, w)) {
                leased = std::move(pool[i]);
                pool.erase(pool.begin() + long(i));
                poolBytes -= leased->workspaceBytes();
                break;
            }
        }
        count(leased ? nHits : nMisses, leased ? "hits" : "misses");
        parkLocked(std::move(slot), doomed);
        publishGauges();
    }
    if (leased) {
        // The parked plan's tile caches describe whatever forward ran
        // before it was displaced — never valid for the lease.
        leased->invalidateCache();
        slot = std::move(leased);
    } else {
        // Built outside the lock: concurrent misses on different
        // shapes overlap. The plan acquires its slabs on first use, so
        // a parked plan is charged for what its runs used.
        slot = std::make_unique<WinoPlan>(algo, batch, inCh, outCh, h, w);
    }
}

void
PlanPool::park(std::unique_ptr<WinoPlan> plan)
{
    Doomed doomed;
    std::lock_guard<std::mutex> lock(mu);
    parkLocked(std::move(plan), doomed);
    publishGauges();
}

void
PlanPool::parkLocked(std::unique_ptr<WinoPlan> plan, Doomed &doomed)
{
    if (!plan)
        return;
    plan->releaseEvalTiles();
    const std::size_t cap = budgetBytes();
    const std::size_t bytes = plan->workspaceBytes();
    if (bytes > cap) {
        count(nEvictions, "evictions");
        doomed.push_back(std::move(plan));
        return;
    }
    pool.insert(pool.begin(), std::move(plan));
    poolBytes += bytes;
    while (poolBytes > cap) {
        poolBytes -= pool.back()->workspaceBytes();
        count(nEvictions, "evictions");
        doomed.push_back(std::move(pool.back()));
        pool.pop_back();
    }
}

std::size_t
PlanPool::budgetBytes() const
{
    return budget ? budget : ws::Workspace::global().limitBytes();
}

std::size_t
PlanPool::parkedBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return poolBytes;
}

int
PlanPool::parkedPlans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return int(pool.size());
}

std::uint64_t
PlanPool::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nHits;
}

std::uint64_t
PlanPool::misses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nMisses;
}

std::uint64_t
PlanPool::evictions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nEvictions;
}

void
PlanPool::clear()
{
    Doomed doomed;
    std::lock_guard<std::mutex> lock(mu);
    doomed.swap(pool);
    poolBytes = 0;
    publishGauges();
}

void
PlanPool::count(std::uint64_t &n, const char *suffix)
{
    ++n;
    if (!prefix.empty() && metrics::enabled())
        metrics::counterAdd((prefix + suffix).c_str());
}

void
PlanPool::publishGauges() const
{
    if (prefix.empty() || !metrics::enabled())
        return;
    metrics::gaugeSet((prefix + "bytes").c_str(), double(poolBytes));
    metrics::gaugeSet((prefix + "plans").c_str(), double(pool.size()));
}

// ------------------------------------------------- DWM decomposition

namespace {

/** Per-dimension decomposition units: (phase, chunk) pairs. */
struct DimUnit
{
    int ph, chunk;
};

std::vector<DimUnit>
decomposeDim(int k, int stride)
{
    std::vector<DimUnit> units;
    for (int ph = 0; ph < stride; ++ph) {
        const int taps = (k - ph + stride - 1) / stride;
        for (int c = 0; c < (taps + 2) / 3; ++c)
            units.push_back({ph, c});
    }
    return units;
}

} // namespace

std::vector<DecompTerm>
decomposeSpec(const ConvSpec &spec)
{
    const std::vector<DimUnit> rows =
        decomposeDim(spec.kernelH(), spec.strideH);
    const std::vector<DimUnit> cols =
        decomposeDim(spec.kernelW(), spec.strideW);
    std::vector<DecompTerm> terms;
    terms.reserve(rows.size() * cols.size());
    for (const DimUnit &ru : rows) {
        for (const DimUnit &cu : cols) {
            DecompTerm t;
            t.phR = ru.ph;
            t.chunkR = ru.chunk;
            t.phC = cu.ph;
            t.chunkC = cu.chunk;
            t.offR = spec.strideH * (3 * ru.chunk + 1) + ru.ph -
                     spec.padHEff();
            t.offC = spec.strideW * (3 * cu.chunk + 1) + cu.ph -
                     spec.padWEff();
            terms.push_back(t);
        }
    }
    return terms;
}

bool
decompSupported(const ConvSpec &spec)
{
    return spec.kernelH() >= 1 && spec.kernelH() <= 11 &&
           spec.kernelW() >= 1 && spec.kernelW() <= 11 &&
           spec.strideH >= 1 && spec.strideH <= 3 && spec.strideW >= 1 &&
           spec.strideW <= 3 && spec.h >= spec.kernelH() &&
           spec.w >= spec.kernelW() && spec.outH() >= 1 &&
           spec.outW() >= 1;
}

WinoDecompPlan::WinoDecompPlan(const ConvSpec &spec,
                               const WinogradAlgo &unit)
    : sp(spec), alg(unit), units(decomposeSpec(spec))
{
    winomc_assert(unit.r == 3, "decomposition terms are 3-tap units; "
                               "got an r=", unit.r, " algorithm");
    winomc_assert(decompSupported(spec),
                  "geometry not decomposable: ", spec.key());
    const int tc = terms() * sp.inCh;
    const int gh = sp.outH() + 2;
    const int gw = sp.outW() + 2;
    kerScratch.reshape(sp.outCh, tc, 3, 3);
    unitW.reshape(alg.alpha, sp.outCh, tc);
    xGather.reshape(sp.batch, tc, gh, gw);
    yInner.reshape(sp.batch, sp.outCh, gh, gw);
    inner = std::make_unique<WinoPlan>(alg, sp.batch, tc, sp.outCh, gh,
                                       gw);
}

bool
WinoDecompPlan::matches(const ConvSpec &spec,
                        const WinogradAlgo &unit) const
{
    // The inner plan carries the execution config; comparing it keeps
    // decomposed execution rebuilding across config changes like
    // plain plans do.
    return &unit == &alg && spec.batch == sp.batch &&
           spec.inCh == sp.inCh && spec.outCh == sp.outCh &&
           spec.h == sp.h && spec.w == sp.w &&
           spec.kernelH() == sp.kernelH() &&
           spec.kernelW() == sp.kernelW() &&
           spec.strideH == sp.strideH && spec.strideW == sp.strideW &&
           spec.padHEff() == sp.padHEff() &&
           spec.padWEff() == sp.padWEff() &&
           inner->config() == execConfig();
}

std::size_t
WinoDecompPlan::workspaceBytes() const
{
    return inner->workspaceBytes() +
           (kerScratch.size() + unitW.size() + xGather.size() +
            yInner.size()) *
               sizeof(float);
}

void
WinoDecompPlan::setWeights(const Tensor &w)
{
    winomc_assert(w.n() == sp.outCh && w.c() == sp.inCh &&
                      w.h() == sp.kernelH() && w.w() == sp.kernelW(),
                  "decomposition weights mismatch the spec: got ",
                  w.n(), "x", w.c(), "x", w.h(), "x", w.w());
    const int kh = sp.kernelH();
    const int kw = sp.kernelW();
    for (std::size_t u = 0; u < units.size(); ++u) {
        const DecompTerm &t = units[u];
        for (int j = 0; j < sp.outCh; ++j) {
            for (int i = 0; i < sp.inCh; ++i) {
                const int ti = int(u) * sp.inCh + i;
                for (int jr = 0; jr < 3; ++jr) {
                    const int ar =
                        sp.strideH * (3 * t.chunkR + jr) + t.phR;
                    for (int jc = 0; jc < 3; ++jc) {
                        const int ac =
                            sp.strideW * (3 * t.chunkC + jc) + t.phC;
                        kerScratch.at(j, ti, jr, jc) =
                            (ar < kh && ac < kw) ? w.at(j, i, ar, ac)
                                                 : 0.0f;
                    }
                }
            }
        }
    }
    transformWeightsInto(kerScratch, alg, unitW);
    haveWeights = true;
}

void
WinoDecompPlan::forwardInto(const Tensor &x, Tensor &y)
{
    WINOMC_SPAN("decomp.fwd", "wino");
    winomc_assert(haveWeights,
                  "WinoDecompPlan::forwardInto before setWeights");
    winomc_assert(x.n() == sp.batch && x.c() == sp.inCh &&
                      x.h() == sp.h && x.w() == sp.w,
                  "input mismatches the decomposed plan's spec");
    const int oh = sp.outH();
    const int ow = sp.outW();
    winomc_assert(y.n() == sp.batch && y.c() == sp.outCh &&
                      y.h() == oh && y.w() == ow,
                  "output mismatches the decomposed plan's spec");
    const int gh = oh + 2;
    const int gw = ow + 2;
    const int sH = sp.strideH;
    const int sW = sp.strideW;
    const int nu = terms();

    // Gather every term's strided view, one (image, term, channel)
    // plane per task, into inner channel u*I + i:
    // xg[i', j'] = x_zeroext[sH*(i'-1) + offR, sW*(j'-1) + offC]. The
    // 1-deep border carries real data where available — the inner
    // pipeline's own "same" padding applies only outside the gathered
    // map, and the border of the inner output is cropped below.
    const float *xbase = x.data();
    float *gbase = xGather.data();
    parallelFor(0, std::int64_t(sp.batch) * nu * sp.inCh, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
            const std::int64_t b = p / (std::int64_t(nu) * sp.inCh);
            const DecompTerm &t = units[std::size_t(p / sp.inCh % nu)];
            const float *xplane =
                xbase + std::size_t(b * sp.inCh + p % sp.inCh) * sp.h *
                            sp.w;
            float *gplane = gbase + std::size_t(p) * gh * gw;
            for (int gi = 0; gi < gh; ++gi) {
                float *grow = gplane + std::size_t(gi) * gw;
                const int iy = sH * (gi - 1) + t.offR;
                if (iy < 0 || iy >= sp.h) {
                    std::fill(grow, grow + gw, 0.0f);
                    continue;
                }
                const float *xrow = xplane + std::size_t(iy) * sp.w;
                if (sW == 1) {
                    // Contiguous span fast path: gj maps to
                    // ix = gj - 1 + offC.
                    const int lo2 = std::max(0, 1 - t.offC);
                    const int hi2 = std::min(gw, sp.w + 1 - t.offC);
                    std::fill(grow, grow + std::min(gw, lo2), 0.0f);
                    if (hi2 > lo2)
                        std::memcpy(grow + lo2, xrow + lo2 - 1 + t.offC,
                                    std::size_t(hi2 - lo2) *
                                        sizeof(float));
                    if (hi2 < gw)
                        std::fill(grow + std::max(lo2, hi2), grow + gw,
                                  0.0f);
                } else {
                    for (int gj = 0; gj < gw; ++gj) {
                        const int ix = sW * (gj - 1) + t.offC;
                        grow[gj] =
                            (ix >= 0 && ix < sp.w) ? xrow[ix] : 0.0f;
                    }
                }
            }
        }
    });

    inner->forwardInto(xGather, unitW, yInner, false);

    // Crop-copy the interior into y.
    const float *ibase = yInner.data();
    float *ybase = y.data();
    parallelFor(0, std::int64_t(sp.batch) * sp.outCh, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t bj = lo; bj < hi; ++bj) {
            const float *iplane = ibase + std::size_t(bj) * gh * gw;
            float *yplane = ybase + std::size_t(bj) * oh * ow;
            for (int r = 0; r < oh; ++r)
                std::memcpy(yplane + std::size_t(r) * ow,
                            iplane + std::size_t(r + 1) * gw + 1,
                            std::size_t(ow) * sizeof(float));
        }
    });
    if (metrics::enabled()) {
        metrics::counterAdd("wino.decomp.fwd.calls");
        metrics::counterAdd("wino.decomp.fwd.terms",
                            double(units.size()));
    }
}

} // namespace winomc
