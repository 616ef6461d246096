#include "winograd/plan.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "winograd/conv.hh"
#include "winograd/cost.hh"
#include "winograd/microkernel.hh"

namespace winomc {

namespace {

/**
 * Strip scratch budget: one input-side plus one output-side panel set
 * per worker should sit inside a typical L2 slice, so a whole strip's
 * transform -> accumulate -> inverse chain runs without round trips to
 * DRAM. Strips are whole tile panels; tiny grids collapse to one
 * panel-sized strip.
 */
constexpr std::size_t kScratchBudgetBytes = 512 * 1024;

/**
 * Auto-mode threshold: fuse once the staged pipeline's forward slabs
 * (Xt + Yt) overflow this. Below it the slabs are cache-resident
 * anyway and the staged path's tile caches come for free.
 */
constexpr std::size_t kFusedAutoMinSlabBytes = 1u << 20;

/** mk:: 16-bit kind of a half precision. */
int
halfKind(Prec p)
{
    return p == Prec::F16 ? mk::kHalfF16 : mk::kHalfBf16;
}

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

    // Fused strip geometry: whole tile panels, sized so one worker's
    // in+out scratch fits kScratchBudgetBytes, clamped to [one panel,
    // the panel-rounded grid].
    const std::size_t a2 = std::size_t(algo.alpha) * algo.alpha;
    const std::size_t perTile = a2 * std::size_t(inCh + outCh) *
                                sizeof(float);
    int t = int(kScratchBudgetBytes / perTile);
    // Weight-amortization floor: each strip re-streams the whole
    // Winograd weight slab (a^2*I*J floats), while fusing saves one
    // write+read round trip of the strip's slab share (a^2*(I+J)*
    // stripT floats each way). Keeping the re-stream at <= 1/4 of the
    // saving needs stripT >= 2*I*J/(I+J) — without this floor, heavy
    // channel counts shrink strips until weight traffic eats the win.
    const int amort = 2 * inCh * outCh / (inCh + outCh);
    t = std::max(t, amort);
    t = ((t + mk::kTilePanel - 1) / mk::kTilePanel) * mk::kTilePanel;
    const int ntPanels =
        ((grid.tiles() + mk::kTilePanel - 1) / mk::kTilePanel) *
        mk::kTilePanel;
    stripT = std::clamp(t, mk::kTilePanel, ntPanels);

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
    // A strip slot is the forward slab set over 1 x stripT lanes.
    return slabBytes(held, nb, grid.tiles()) +
           stripSlots.size() * slabBytes(forwardSlabs(), 1, stripT);
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
    const std::size_t panels =
        (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
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
        bytes += (panels * a2 + 63) / 64 * sizeof(std::uint64_t) * ni *
                 batch;
    return bytes;
}

void
WinoPlan::checkBudget(std::size_t bytes, const char *what) const
{
    ws::checkBudget(bytes, "WinoPlan(" + std::to_string(nb) + "x" +
                               std::to_string(ni) + "->" +
                               std::to_string(nj) + "@" +
                               std::to_string(fh) + "x" +
                               std::to_string(fw) + ") " + what);
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

bool
WinoPlan::shouldFuse(bool preserveTileCaches) const
{
    switch (cfg.fused) {
      case FusedMode::Off:
        return false;
      case FusedMode::On:
        return true;
      case FusedMode::Auto:
        break;
    }
    if (preserveTileCaches)
        return false;
    // Fuse once the staged forward slabs would overflow cache; below
    // that, staged is already cache-resident and keeps its tile caches.
    return slabBytes(kXt | kYt, nb, grid.tiles()) >= kFusedAutoMinSlabBytes;
}

std::unique_ptr<WinoPlan::RangeScratch>
WinoPlan::newScratch() const
{
    auto s = std::make_unique<RangeScratch>();
    if (cfg.prec != Prec::F32)
        s->inHalf.reshape(alg.alpha, ni, 1, stripT);
    else
        s->in.reshape(alg.alpha, ni, 1, stripT);
    s->out.reshape(alg.alpha, nj, 1, stripT);
    if (cfg.sparse)
        s->mask.reshape(alg.alpha * alg.alpha, ni, 1, stripT);
    return s;
}

WinoPlan::RangeScratch *
WinoPlan::acquireScratch()
{
    std::lock_guard<std::mutex> lk(stripMu);
    if (stripFree.empty()) {
        stripSlots.push_back(newScratch());
        return stripSlots.back().get();
    }
    RangeScratch *s = stripFree.back();
    stripFree.pop_back();
    return s;
}

void
WinoPlan::releaseScratch(RangeScratch *s)
{
    std::lock_guard<std::mutex> lk(stripMu);
    stripFree.push_back(s);
}

void
WinoPlan::ensureScratch(int n)
{
    // Pre-build the worst-case concurrent slot count before entering
    // the parallel region. Lazy growth inside acquireScratch would
    // still be correct, but how many workers are simultaneously awake
    // varies run to run — growing the pool up front keeps the
    // zero-steady-state-allocation contract deterministic instead of
    // dependent on the warm-up call's scheduling luck.
    std::lock_guard<std::mutex> lk(stripMu);
    if (int(stripSlots.size()) < n)
        checkBudget(std::size_t(n) * slabBytes(forwardSlabs(), 1, stripT),
                    "strip scratch");
    while (int(stripSlots.size()) < n) {
        stripSlots.push_back(newScratch());
        stripFree.push_back(stripSlots.back().get());
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
WinoPlan::forwardInto(const Tensor &x, const WinoWeights &W, Tensor &y)
{
    WINOMC_SPAN("wino.phase.fwd", "wino");
    acquire(forwardSlabs(), forwardSlabs());
    ActMask *mask = cfg.sparse ? &actMask : nullptr;
    if (cfg.prec != Prec::F32) {
        const int hk = halfKind(cfg.prec);
        transformInputInto(x, alg, Xh, hk, mask);
        elementwiseForwardInto(Xh, W, Yt, hk, mask);
        // The fp32 Xt slab was bypassed; tile-cache consumers must
        // scatterInput (backward stays full fp32).
        haveInput = false;
    } else {
        // Sparse leaves Xt the same fp32 slab, bitwise.
        transformInputInto(x, alg, Xt, mask);
        elementwiseForwardInto(Xt, W, Yt, 0, -1, mask);
        haveInput = true;
    }
    inverseTransformInto(Yt, alg, y);
    haveOutput = true;
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double out = double(nb) * nj * fh * fw;
        const double f = double(sizeof(float));
        // The X-tile stream at its storage width (Xt or Xh).
        const double xTile =
            double(slabBytes(kXt, nb, grid.tiles())) / f *
            double(precBytes(cfg.prec));
        publishTraffic(
            "staged", "fwd", double(gatherElemsA) * nb * ni * f + xTile,
            xTile + (double(W.size()) + double(Yt.size())) * f,
            (double(Yt.size()) + out) * f,
            double(predictedTrafficBytes(spec, alg, Phase::Fprop, false)
                       .totalBytes()));
    }
}

void
WinoPlan::forwardFusedInto(const Tensor &x, const WinoWeights &W,
                           Tensor &y)
{
    WINOMC_SPAN("wino.fused.fwd", "wino");
    winomc_assert(x.n() == nb && x.c() == ni && x.h() == fh &&
                  x.w() == fw, "forwardFusedInto input shape mismatch");
    winomc_assert(y.n() == nb && y.c() == nj && y.h() == fh &&
                  y.w() == fw, "forwardFusedInto output shape mismatch");
    winomc_assert(W.alphaEdge() == alg.alpha && W.inChannels() == ni &&
                  W.outChannels() == nj,
                  "forwardFusedInto weight shape mismatch");
    const int nt = grid.tiles();
    const int strips = stripCount();
    const int a = alg.alpha;
    const int m = alg.m;
    mk::StageTimer probe("fused.fwd",
                         4.0 * a * a * a * double(nb) * ni * nt +
                             2.0 * a * a * double(nj) * ni * nb * nt +
                             2.0 * m * a * (a + m) * double(nb) * nj * nt);

    const std::int64_t nTasks = std::int64_t(nb) * strips;
    ensureScratch(int(std::min<std::int64_t>(
        ThreadPool::global().threadCount(), nTasks)));
    const bool half = cfg.prec != Prec::F32;
    const int hk = halfKind(cfg.prec);
    // One task per (image, strip); output tiles are disjoint across
    // tasks, so any chunking is race-free and bitwise identical.
    parallelFor(0, nTasks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        RangeScratch *s = acquireScratch();
        ActMask *mask = cfg.sparse ? &s->mask : nullptr;
        for (std::int64_t task = lo; task < hi; ++task) {
            const int b = int(task / strips);
            const int t0 = int(task % strips) * stripT;
            const int tcnt = std::min(stripT, nt - t0);
            if (half)
                transformInputRange(x, alg, grid, b, t0, tcnt, s->inHalf,
                                    hk, mask);
            else
                transformInputRange(x, alg, grid, b, t0, tcnt, s->in,
                                    mask);
            if (half)
                elementwiseForwardRange(s->inHalf, W, tcnt, s->out, hk,
                                        mask, s->compact);
            else
                elementwiseForwardRange(s->in, W, tcnt, s->out, mask,
                                        s->compact);
            inverseTransformRange(s->out, alg, grid, b, t0, tcnt, y);
        }
        releaseScratch(s);
    });
    // The slabs were bypassed; previously cached tiles are now stale.
    haveInput = haveOutput = false;
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double f = double(sizeof(float));
        publishTraffic(
            "fused", "fwd", double(gatherElemsA) * nb * ni * f,
            double(W.size()) * nb * strips * f,
            double(nb) * nj * fh * fw * f,
            double(predictedTrafficBytes(spec, alg, Phase::Fprop, true,
                                         strips)
                       .totalBytes()));
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
                  "output tiles not populated (a fused forward bypasses "
                  "the tile slabs; tile-cache consumers need the staged "
                  "path, i.e. WINOMC_FUSED=auto or off)");
    return Yt;
}

const WinoTiles &
WinoPlan::gradOutputTiles() const
{
    winomc_assert(haveGrad, "grad-output tiles not populated");
    return dYt;
}

// ------------------------------------------------------------- PlanLru

PlanLru::PlanLru(int capacity) : cap(capacity)
{
    winomc_assert(capacity >= 1, "PlanLru needs capacity >= 1, got ",
                  capacity);
}

std::unique_ptr<WinoPlan>
PlanLru::acquirePlan(const WinogradAlgo &algo, int batch, int inCh,
                     int outCh, int h, int w)
{
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i]->matches(algo, batch, inCh, outCh, h, w)) {
            std::unique_ptr<WinoPlan> p = std::move(pool[i]);
            pool.erase(pool.begin() + long(i));
            // The parked plan's tile caches describe whatever forward
            // ran before it was displaced — never valid for the lease.
            p->invalidateCache();
            return p;
        }
    }
    return std::make_unique<WinoPlan>(algo, batch, inCh, outCh, h, w);
}

void
PlanLru::releasePlan(std::unique_ptr<WinoPlan> plan)
{
    if (!plan)
        return;
    pool.insert(pool.begin(), std::move(plan));
    if (int(pool.size()) > cap)
        pool.pop_back(); // evict LRU; slabs return to the workspace
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
    : sp(spec), alg(unit), units(decomposeSpec(spec)),
      kerScratch(spec.outCh, spec.inCh, 3, 3),
      xGather(spec.batch, spec.inCh, spec.outH() + 2, spec.outW() + 2),
      yTerm(spec.batch, spec.outCh, spec.outH() + 2, spec.outW() + 2)
{
    winomc_assert(unit.r == 3, "decomposition terms are 3-tap units; "
                               "got an r=", unit.r, " algorithm");
    winomc_assert(decompSupported(spec),
                  "geometry not decomposable: ", spec.key());
    unitW.reserve(units.size());
    for (std::size_t u = 0; u < units.size(); ++u)
        unitW.emplace_back(alg.alpha, sp.outCh, sp.inCh);
    inner = std::make_unique<WinoPlan>(alg, sp.batch, sp.inCh, sp.outCh,
                                       sp.outH() + 2, sp.outW() + 2);
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
    std::size_t elems =
        kerScratch.size() + xGather.size() + yTerm.size();
    for (const WinoWeights &w : unitW)
        elems += w.size();
    return inner->workspaceBytes() + elems * sizeof(float);
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
                for (int jr = 0; jr < 3; ++jr) {
                    const int ar =
                        sp.strideH * (3 * t.chunkR + jr) + t.phR;
                    for (int jc = 0; jc < 3; ++jc) {
                        const int ac =
                            sp.strideW * (3 * t.chunkC + jc) + t.phC;
                        kerScratch.at(j, i, jr, jc) =
                            (ar < kh && ac < kw) ? w.at(j, i, ar, ac)
                                                 : 0.0f;
                    }
                }
            }
        }
        transformWeightsInto(kerScratch, alg, unitW[u]);
    }
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
    const auto &K = mk::kernels();

    y.fill(0.0f);
    // Terms run serially and accumulate in list order: the sum's
    // floating-point order is fixed regardless of thread count, and
    // each term is bitwise identical staged or fused (the inner
    // plan's own contract), so the whole decomposition is bitwise
    // reproducible.
    for (std::size_t u = 0; u < units.size(); ++u) {
        const DecompTerm &t = units[u];

        // Gather the term's strided view, one (image, channel) plane
        // per task: xg[i', j'] = x_zeroext[sH*(i'-1) + offR,
        // sW*(j'-1) + offC]. The 1-deep border carries real data
        // where available — the inner pipeline's own "same" padding
        // applies only outside the gathered map, and the border rows
        // of the term output are cropped below.
        const float *xbase = x.data();
        float *gbase = xGather.data();
        parallelFor(0, std::int64_t(sp.batch) * sp.inCh, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t bi = lo; bi < hi; ++bi) {
                const float *xplane =
                    xbase + std::size_t(bi) * sp.h * sp.w;
                float *gplane = gbase + std::size_t(bi) * gh * gw;
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
                        const int hi2 =
                            std::min(gw, sp.w + 1 - t.offC);
                        std::fill(grow, grow + std::min(gw, lo2), 0.0f);
                        if (hi2 > lo2)
                            std::memcpy(grow + lo2,
                                        xrow + lo2 - 1 + t.offC,
                                        std::size_t(hi2 - lo2) *
                                            sizeof(float));
                        if (hi2 < gw)
                            std::fill(grow + std::max(lo2, hi2),
                                      grow + gw, 0.0f);
                    } else {
                        for (int gj = 0; gj < gw; ++gj) {
                            const int ix = sW * (gj - 1) + t.offC;
                            grow[gj] = (ix >= 0 && ix < sp.w)
                                           ? xrow[ix]
                                           : 0.0f;
                        }
                    }
                }
            }
        });

        if (inner->shouldFuse(false))
            inner->forwardFusedInto(xGather, unitW[u], yTerm);
        else
            inner->forwardInto(xGather, unitW[u], yTerm);
        inner->invalidateCache();

        // Crop-accumulate the term's interior into y.
        const float *tbase = yTerm.data();
        float *ybase = y.data();
        parallelFor(0, std::int64_t(sp.batch) * sp.outCh, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t bj = lo; bj < hi; ++bj) {
                const float *tplane =
                    tbase + std::size_t(bj) * gh * gw;
                float *yplane = ybase + std::size_t(bj) * oh * ow;
                for (int p = 0; p < oh; ++p)
                    K.axpy(yplane + std::size_t(p) * ow, 1.0f,
                           tplane + std::size_t(p + 1) * gw + 1,
                           std::int64_t(ow));
            }
        });
    }
    if (metrics::enabled()) {
        metrics::counterAdd("wino.decomp.fwd.calls");
        metrics::counterAdd("wino.decomp.fwd.terms",
                            double(units.size()));
    }
}

} // namespace winomc
