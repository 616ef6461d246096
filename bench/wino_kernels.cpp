/**
 * @file
 * google-benchmark timings of the numeric Winograd kernels against
 * direct convolution - the host-side counterpart of the Fig 1
 * compute-reduction story, measured on real code rather than the
 * analytic model.
 *
 * The elementwise / transform kernels and the end-to-end pipeline also
 * sweep the execution-engine thread count (1/2/4/hardware max) so the
 * scaling of the blocked GEMM path is tracked release to release. Each
 * row is labeled with the micro-kernel ISA that executed it (see
 * WINOMC_ISA); the *Scalar variants pin the scalar table at threads:1
 * so the SIMD speedup is visible inside one run.
 *
 * With WINOMC_METRICS=BENCH_wino.json the run additionally dumps the
 * per-stage timer registry (wino.xform.*, wino.ew.*) as a reproducible
 * JSON artifact; WINOMC_TRACE=wino.trace.json captures the spans for
 * chrome://tracing / Perfetto.
 *
 * --json <path> writes a compact baseline artifact: ms per kernel, the
 * executing ISA, achieved GFLOP/s, run-to-run stddev (the flag implies
 * --benchmark_repetitions=3 unless one is given explicitly), plus the
 * workspace traffic per iteration (fresh heap bytes and slab
 * acquires), so allocation regressions in the hot path are as visible
 * as time regressions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "quant/prune.hh"
#include "tensor/workspace.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

using namespace winomc;

namespace {

/**
 * Brackets a benchmark's timing loop with workspace-counter snapshots
 * and reports the per-iteration allocation traffic as user counters
 * (picked up by the console table and the --json artifact). Returns
 * the acquires/iter value so callers can assert on it.
 */
struct WsProbe
{
    ws::Stats s0 = ws::Workspace::global().stats();

    double
    report(benchmark::State &state) const
    {
        const ws::Stats s1 = ws::Workspace::global().stats();
        const double iters = double(std::max<int64_t>(
            state.iterations(), 1));
        const double acquires =
            double((s1.freshAllocs + s1.reuses) -
                   (s0.freshAllocs + s0.reuses)) /
            iters;
        state.counters["ws_fresh_bytes_per_iter"] =
            double(s1.freshBytes - s0.freshBytes) / iters;
        state.counters["ws_acquires_per_iter"] = acquires;
        return acquires;
    }
};

/** Tag the row with the executing ISA and its raw FLOP rate. */
void
reportKernelRate(benchmark::State &state, double flopsPerIter)
{
    state.SetLabel(mk::isaName(mk::activeIsa()));
    state.counters["flops_per_sec"] = benchmark::Counter(
        flopsPerIter * double(state.iterations()),
        benchmark::Counter::kIsRate);
}

struct Shapes
{
    int batch, ch, hw;
};

Shapes
shapeFor(int idx)
{
    switch (idx) {
      case 0:
        return {1, 16, 32};
      case 1:
        return {2, 32, 16};
      default:
        return {4, 8, 24};
    }
}

/** Nominal direct-conv FLOPs for an N x C -> C, hw x hw, r=3 layer:
 *  the common yardstick all conv benchmarks report their rate in. */
double
convFlops(const Shapes &s)
{
    return 2.0 * s.batch * double(s.ch) * s.ch * s.hw * s.hw * 9;
}

/** Thread sweep 1/2/4/max, deduplicated for small machines. */
void
threadArgs(benchmark::internal::Benchmark *b)
{
    b->ArgName("threads");
    std::vector<int> counts = {1, 2, 4, defaultThreadCount()};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()),
                 counts.end());
    for (int c : counts)
        b->Arg(c);
}

void
BM_DirectConv(benchmark::State &state)
{
    Shapes s = shapeFor(int(state.range(0)));
    Rng rng(1);
    Tensor x(s.batch, s.ch, s.hw, s.hw);
    Tensor w(s.ch, s.ch, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(directConvForward(x, w));
    probe.report(state);
    reportKernelRate(state, convFlops(s));
    state.SetItemsProcessed(int64_t(state.iterations()) * s.batch *
                            s.ch * s.ch * s.hw * s.hw * 9);
}
BENCHMARK(BM_DirectConv)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/**
 * Shared body for the F(2,3)/F(4,3) forward benchmarks: a persistent
 * WinoPlan acquires its slabs on the warm-up call, so the steady state
 * must not touch the workspace at all (the transient winogradForward
 * wrapper used to re-acquire 5 slabs per call).
 */
void
winogradForwardPlanned(benchmark::State &state, const WinogradAlgo &algo)
{
    Shapes s = shapeFor(int(state.range(0)));
    Rng rng(1);
    Tensor x(s.batch, s.ch, s.hw, s.hw);
    Tensor w(s.ch, s.ch, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, s.batch, s.ch, s.ch, s.hw, s.hw);
    Tensor y(s.batch, s.ch, s.hw, s.hw);
    plan.forwardInto(x, W, y); // warm-up: all slabs acquired here
    WsProbe probe;
    for (auto _ : state) {
        plan.forwardInto(x, W, y);
        benchmark::DoNotOptimize(y.data());
    }
    const double acquires = probe.report(state);
    reportKernelRate(state, convFlops(s));
    state.SetItemsProcessed(int64_t(state.iterations()) * s.batch *
                            s.ch * s.ch * s.hw * s.hw * 9);
    if (acquires > 0.5)
        state.SkipWithError(
            "persistent WinoPlan still acquires workspace slabs in "
            "steady state");
}

void
BM_WinogradConvF2(benchmark::State &state)
{
    winogradForwardPlanned(state, algoF2x2_3x3());
}
BENCHMARK(BM_WinogradConvF2)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_WinogradConvF4(benchmark::State &state)
{
    winogradForwardPlanned(state, algoF4x4_3x3());
}
BENCHMARK(BM_WinogradConvF4)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------
// Decomposed (DWM) execution vs the generalized direct kernel on
// shapes the plain F(m,3) pipeline cannot run. Both rows of a pair
// report the rate in the direct-conv-equivalent FLOPs of the SAME
// spec (2*B*I*J*outH*outW*kh*kw) — the honest yardstick: the
// decomposition performs more raw arithmetic, so a win must show up
// as lower ms/iter, not as an inflated FLOP count.

ConvSpec
decompBenchSpec(bool strided)
{
    if (strided) {
        ConvSpec s{"bench-3x3s2", 2, 64, 64, 28, 28, 3};
        s.strideH = s.strideW = 2;
        return s;
    }
    ConvSpec s{"bench-5x5", 2, 32, 32, 20, 20, 5};
    return s;
}

double
specDirectFlops(const ConvSpec &s)
{
    return 2.0 * s.batch * double(s.inCh) * s.outCh * s.outH() *
           s.outW() * s.kernelH() * s.kernelW();
}

void
decomposedForwardPlanned(benchmark::State &state, bool strided)
{
    const ConvSpec spec = decompBenchSpec(strided);
    Rng rng(1);
    Tensor x(spec.batch, spec.inCh, spec.h, spec.w);
    Tensor w(spec.outCh, spec.inCh, spec.kernelH(), spec.kernelW());
    x.fillUniform(rng);
    w.fillUniform(rng);
    WinoDecompPlan plan(spec, algoF4x4_3x3());
    plan.setWeights(w);
    Tensor y(spec.batch, spec.outCh, spec.outH(), spec.outW());
    plan.forwardInto(x, y); // warm-up: all slabs acquired here
    WsProbe probe;
    for (auto _ : state) {
        plan.forwardInto(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    const double acquires = probe.report(state);
    reportKernelRate(state, specDirectFlops(spec));
    if (acquires > 0.005)
        state.SkipWithError(
            "persistent WinoDecompPlan still acquires workspace slabs "
            "in steady state");
}

void
directForwardEx(benchmark::State &state, bool strided)
{
    const ConvSpec spec = decompBenchSpec(strided);
    Rng rng(1);
    Tensor x(spec.batch, spec.inCh, spec.h, spec.w);
    Tensor w(spec.outCh, spec.inCh, spec.kernelH(), spec.kernelW());
    x.fillUniform(rng);
    w.fillUniform(rng);
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(directConvForwardEx(
            x, w, spec.strideH, spec.strideW, spec.padHEff(),
            spec.padWEff()));
    probe.report(state);
    reportKernelRate(state, specDirectFlops(spec));
}

void
BM_WinoDecomposed5x5(benchmark::State &state)
{
    decomposedForwardPlanned(state, false);
}
BENCHMARK(BM_WinoDecomposed5x5)->Unit(benchmark::kMillisecond);

void
BM_WinoDecomposedStride2(benchmark::State &state)
{
    decomposedForwardPlanned(state, true);
}
BENCHMARK(BM_WinoDecomposedStride2)->Unit(benchmark::kMillisecond);

void
BM_DirectConv5x5(benchmark::State &state)
{
    directForwardEx(state, false);
}
BENCHMARK(BM_DirectConv5x5)->Unit(benchmark::kMillisecond);

void
BM_DirectConvStride2(benchmark::State &state)
{
    directForwardEx(state, true);
}
BENCHMARK(BM_DirectConvStride2)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------
// Threaded kernel benchmarks. Largest shape: batch 8, 64 -> 64
// channels, 32x32 feature maps, F(4x4, 3x3); batch*tiles = 512 per uv.
// -------------------------------------------------------------------

struct ElementwiseFixture
{
    ElementwiseFixture()
    {
        Rng rng(1);
        Tensor x(8, 64, 32, 32);
        Tensor w(64, 64, 3, 3);
        x.fillUniform(rng);
        w.fillUniform(rng);
        const auto &algo = algoF4x4_3x3();
        W = transformWeights(w, algo);
        X = transformInput(x, algo);
        dY = inverseTransformAdjoint(x, algo);
    }

    double
    ewFlops() const
    {
        return 2.0 * X.uvCount() * double(W.outChannels()) *
               W.inChannels() * X.batch() * X.tiles();
    }

    WinoWeights W;
    WinoTiles X, dY;
};

ElementwiseFixture &
elementwiseFixture()
{
    static ElementwiseFixture f;
    return f;
}

/** FLOPs of one inverse transform over the fixture's tile set. */
double
inverseFlops(const WinoTiles &Y, const WinogradAlgo &algo)
{
    const int a = algo.alpha;
    const int m = algo.m;
    return 2.0 * m * a * (a + m) * double(Y.batch()) * Y.channels() *
           Y.tiles();
}

void
BM_ElementwiseForward(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    auto &f = elementwiseFixture();
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(elementwiseForward(f.X, f.W));
    probe.report(state);
    reportKernelRate(state, f.ewFlops());
    // 2 flops per (uv, j, i, k) MAC.
    state.SetItemsProcessed(int64_t(state.iterations()) * f.X.uvCount() *
                            f.W.outChannels() * f.W.inChannels() *
                            f.X.batch() * f.X.tiles() * 2);
}
BENCHMARK(BM_ElementwiseForward)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_ElementwiseBackwardData(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    auto &f = elementwiseFixture();
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(elementwiseBackwardData(f.dY, f.W));
    probe.report(state);
    reportKernelRate(state, f.ewFlops());
    state.SetItemsProcessed(int64_t(state.iterations()) * f.X.uvCount() *
                            f.W.outChannels() * f.W.inChannels() *
                            f.X.batch() * f.X.tiles() * 2);
}
BENCHMARK(BM_ElementwiseBackwardData)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_ElementwiseGradWeights(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    auto &f = elementwiseFixture();
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(elementwiseGradWeights(f.dY, f.X));
    probe.report(state);
    reportKernelRate(state, f.ewFlops());
    state.SetItemsProcessed(int64_t(state.iterations()) * f.X.uvCount() *
                            f.W.outChannels() * f.W.inChannels() *
                            f.X.batch() * f.X.tiles() * 2);
}
BENCHMARK(BM_ElementwiseGradWeights)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_InputTransform(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    Rng rng(1);
    Tensor x(2, 32, 32, 32);
    x.fillUniform(rng);
    const auto &algo = algoF2x2_3x3();
    TileGrid grid(x.h(), x.w(), algo);
    const int a = algo.alpha;
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(transformInput(x, algo));
    probe.report(state);
    reportKernelRate(state, 4.0 * a * a * a * double(x.n()) * x.c() *
                                grid.tiles());
}
BENCHMARK(BM_InputTransform)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_InverseTransform(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    auto &f = elementwiseFixture();
    const auto &algo = algoF4x4_3x3();
    WinoTiles Y = elementwiseForward(f.X, f.W);
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(inverseTransform(Y, algo, 32, 32));
    probe.report(state);
    reportKernelRate(state, inverseFlops(Y, algo));
}
BENCHMARK(BM_InverseTransform)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------
// Scalar-pinned single-thread variants of the SIMD-sensitive kernels:
// the in-run baseline the auto rows are compared against.
// -------------------------------------------------------------------

void
BM_ElementwiseForwardScalar(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(1);
    ScopedExecConfig scalar([](ExecConfig &c) { c.isa = mk::Isa::Scalar; });
    auto &f = elementwiseFixture();
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(elementwiseForward(f.X, f.W));
    probe.report(state);
    reportKernelRate(state, f.ewFlops());
}
BENCHMARK(BM_ElementwiseForwardScalar)->Unit(benchmark::kMillisecond);

void
BM_ElementwiseGradWeightsScalar(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(1);
    ScopedExecConfig scalar([](ExecConfig &c) { c.isa = mk::Isa::Scalar; });
    auto &f = elementwiseFixture();
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(elementwiseGradWeights(f.dY, f.X));
    probe.report(state);
    reportKernelRate(state, f.ewFlops());
}
BENCHMARK(BM_ElementwiseGradWeightsScalar)->Unit(benchmark::kMillisecond);

void
BM_InverseTransformScalar(benchmark::State &state)
{
    ThreadPool::global().setThreadCount(1);
    ScopedExecConfig scalar([](ExecConfig &c) { c.isa = mk::Isa::Scalar; });
    auto &f = elementwiseFixture();
    const auto &algo = algoF4x4_3x3();
    WinoTiles Y = elementwiseForward(f.X, f.W);
    WsProbe probe;
    for (auto _ : state)
        benchmark::DoNotOptimize(inverseTransform(Y, algo, 32, 32));
    probe.report(state);
    reportKernelRate(state, inverseFlops(Y, algo));
}
BENCHMARK(BM_InverseTransformScalar)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------
// End-to-end pipeline benchmarks: persistent WinoPlans (zero workspace
// traffic in steady state, enforced below), staged vs fused rows so
// BENCH_wino.json carries both modes of every pipeline.
// -------------------------------------------------------------------

/** Per-stage FLOP yardsticks of the host pipeline (matching the
 *  wino.* stage timers): 2D transform, elementwise GEMM, inverse. */
double
xfFlops(const WinogradAlgo &algo, int B, int C, int t)
{
    const double a = algo.alpha;
    return 4.0 * a * a * a * B * C * t;
}

double
ewFlops(const WinogradAlgo &algo, int B, int I, int J, int t)
{
    const double a = algo.alpha;
    return 2.0 * a * a * I * J * double(B) * t;
}

double
invFlops(const WinogradAlgo &algo, int B, int C, int t)
{
    const double a = algo.alpha;
    const double m = algo.m;
    return 2.0 * m * a * (a + m) * B * C * t;
}

/** Force the fused mode of one row: staged (Off) or fused (On). */
void
forceFused(ExecConfig &c, bool fused)
{
    c.fused = fused ? FusedMode::On : FusedMode::Off;
}

/**
 * Forward pass through a persistent plan, staged or fused, on a shape
 * whose tile slabs (~127 MiB per side for Xt/Yt) overflow any cache
 * level — the configuration the fused strip pipeline exists for.
 * Steady state must not touch the workspace in either mode.
 */
void
winoForwardPlannedMode(benchmark::State &state, bool fused)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    ScopedExecConfig ovr([&](ExecConfig &c) { forceFused(c, fused); });
    const auto &algo = algoF4x4_3x3();
    Rng rng(1);
    const int B = 16, C = 96, HW = 96;
    Tensor x(B, C, HW, HW);
    Tensor w(C, C, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, B, C, C, HW, HW);
    Tensor y(B, C, HW, HW);
    auto run = [&] {
        if (fused)
            plan.forwardFusedInto(x, W, y);
        else
            plan.forwardInto(x, W, y);
    };
    run(); // warm-up: slabs / strip slots acquired here
    WsProbe probe;
    for (auto _ : state) {
        run();
        benchmark::DoNotOptimize(y.data());
    }
    const double acquires = probe.report(state);
    const int t = plan.tileGrid().tiles();
    reportKernelRate(state, xfFlops(algo, B, C, t) +
                                ewFlops(algo, B, C, C, t) +
                                invFlops(algo, B, C, t));
    if (acquires > 0.5)
        state.SkipWithError("persistent WinoPlan still acquires "
                            "workspace slabs in steady state");
}

void
BM_WinoForward(benchmark::State &state)
{
    winoForwardPlannedMode(state, false);
}
BENCHMARK(BM_WinoForward)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_WinoForwardFused(benchmark::State &state)
{
    winoForwardPlannedMode(state, true);
}
BENCHMARK(BM_WinoForwardFused)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

/**
 * One full training step of a Winograd layer through a persistent
 * plan: forward, weight gradient from the cached tiles, backward-data.
 * The single end-to-end number future PRs track. The fused variant
 * mirrors the WINOMC_FUSED=on layer schedule of nn::ConvLayer: the
 * fused forward bypasses the slabs, so the weight-gradient product
 * re-scatters the activations (scatterInput), and backward-data reuses
 * the one transformed dYt like the staged row. On this deliberately
 * small, cache-resident shape the re-scatter costs more than the slab
 * round trip saves, so the fused row reads slower here — the forward
 * pair above, on a slab-overflowing shape, is the fusion-win
 * comparison.
 */
void
winoTrainStepPlanned(benchmark::State &state, bool fused)
{
    ThreadPool::global().setThreadCount(int(state.range(0)));
    ScopedExecConfig ovr([&](ExecConfig &c) { forceFused(c, fused); });
    Rng rng(1);
    const auto &algo = algoF4x4_3x3();
    const int B = 4, C = 32, HW = 32;
    Tensor x(B, C, HW, HW);
    Tensor w(C, C, 3, 3);
    Tensor dy(B, C, HW, HW);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, B, C, C, HW, HW);
    Tensor y(B, C, HW, HW);
    Tensor dx(B, C, HW, HW);
    WinoWeights dW(algo.alpha, C, C);
    auto step = [&] {
        if (fused) {
            plan.forwardFusedInto(x, W, y);
            plan.scatterInput(x); // rebuild Xt for the weight grad
            plan.transformGradOutput(dy);
            plan.gradWeightsFromCachedInto(dW);
        } else {
            plan.forwardInto(x, W, y);
            plan.transformGradOutput(dy);
            plan.gradWeightsFromCachedInto(dW);
        }
        plan.backwardDataFromCachedInto(W, dx);
    };
    step(); // warm-up: slabs / strip slots acquired here
    WsProbe probe;
    for (auto _ : state) {
        step();
        benchmark::DoNotOptimize(y.data());
        benchmark::DoNotOptimize(dx.data());
        benchmark::DoNotOptimize(dW.raw());
    }
    const double acquires = probe.report(state);
    // Executed FLOPs of the schedule above (the fused row pays the
    // extra scatterInput transform; its rate is honest, not inflated).
    const int t = plan.tileGrid().tiles();
    const double fwd = xfFlops(algo, B, C, t) +
                       ewFlops(algo, B, C, C, t) +
                       invFlops(algo, B, C, t);
    const double grad = invFlops(algo, B, C, t) + // dy adjoint
                        ewFlops(algo, B, C, C, t);
    const double bwd = ewFlops(algo, B, C, C, t) +
                       xfFlops(algo, B, C, t);
    double flops = fwd + grad + bwd;
    if (fused)
        flops += xfFlops(algo, B, C, t); // scatterInput
    reportKernelRate(state, flops);
    if (acquires > 0.5)
        state.SkipWithError("persistent WinoPlan still acquires "
                            "workspace slabs in steady state");
}

void
BM_WinoEndToEnd(benchmark::State &state)
{
    winoTrainStepPlanned(state, false);
}
BENCHMARK(BM_WinoEndToEnd)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

void
BM_WinoEndToEndFused(benchmark::State &state)
{
    winoTrainStepPlanned(state, true);
}
BENCHMARK(BM_WinoEndToEndFused)->Apply(threadArgs)
    ->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------
// Sparse + low-precision execution rows (the quant/ hot path). Every
// row runs the full planned forward under a forced ExecConfig on one
// channel-heavy shape (B2, 128 -> 128 channels, 32x32, F(4x4,3x3) —
// the regime the zero-skip compaction targets), with the transformed
// weights magnitude-pruned to 85% and a post-ReLU-looking input so
// the activation mask has dead panels to skip. Each row reports two
// extra counters into the --json artifact:
//
//   achieved_sparsity  weight-slab zero fraction after pruning
//                      (exactly reproducible);
//   max_abs_err        max |y - y_dense_fp32| against an in-run dense
//                      fp32 reference on identical inputs. 0.0 for the
//                      sparse fp32 rows (bitwise contract); bounded by
//                      the documented per-precision envelope for the
//                      16-bit rows. winomc-bench-diff gates on this
//                      so a numerics regression fails like a slowdown.
//
// The rate is reported in dense-equivalent FLOPs — skipped work must
// show up as a higher rate / lower ms, never as a shrunken yardstick.
// -------------------------------------------------------------------

/** Shared input/weights/reference of every SPARSE_* / PREC_* row:
 *  built once, dense fp32 reference computed once. */
struct QuantFixture
{
    static constexpr int B = 2, C = 128, HW = 32;
    static constexpr double kPruneTarget = 0.85;

    Tensor x{B, C, HW, HW};
    WinoWeights W;
    Tensor yRef{B, C, HW, HW};
    double achievedSparsity = 0.0;

    QuantFixture()
    {
        const auto &algo = algoF4x4_3x3();
        Rng rng(7);
        // Post-ReLU-looking input: Gaussian, negatives clamped, whole
        // channel planes and patch blocks zeroed so full tile panels
        // go dead alongside scattered zeros.
        x.fillGaussian(rng);
        for (int n = 0; n < B; ++n)
            for (int ch = 0; ch < C; ++ch)
                for (int i = 0; i < HW; ++i)
                    for (int j = 0; j < HW; ++j) {
                        float &v = x.at(n, ch, i, j);
                        if (v < 0.0f || ch % 3 == 0 ||
                            (i / 4 + j / 4) % 2 == 0)
                            v = 0.0f;
                    }
        Tensor w(C, C, 3, 3);
        w.fillUniform(rng);
        W = transformWeights(w, algo);
        quant::magnitudePrune(W, kPruneTarget).apply(W);
        achievedSparsity = quant::winogradWeightSparsity(W);
        ScopedExecConfig dense([](ExecConfig &c) {
            c.prec = Prec::F32;
            c.sparse = false;
        });
        WinoPlan ref(algo, B, C, C, HW, HW);
        ref.forwardInto(x, W, yRef);
    }
};

QuantFixture &
quantFixture()
{
    static QuantFixture f;
    return f;
}

/**
 * Forward pass under a forced (precision, sparsity, fused) policy on
 * the shared quant fixture. The dense fp32 row (SPARSE_DenseRef) runs
 * the untouched dense kernels on the same pruned weights and sparse
 * input — the in-artifact baseline the SPARSE_/PREC_ rows are read
 * against.
 */
void
quantForwardPlanned(benchmark::State &state, Prec prec, bool sparse,
                    bool fused)
{
    ThreadPool::global().setThreadCount(defaultThreadCount());
    ScopedExecConfig pol([&](ExecConfig &c) {
        c.prec = prec;
        c.sparse = sparse;
        forceFused(c, fused);
    });
    const auto &algo = algoF4x4_3x3();
    auto &f = quantFixture();
    WinoPlan plan(algo, f.B, f.C, f.C, f.HW, f.HW);
    Tensor y(f.B, f.C, f.HW, f.HW);
    auto run = [&] {
        if (fused)
            plan.forwardFusedInto(f.x, f.W, y);
        else
            plan.forwardInto(f.x, f.W, y);
    };
    run(); // warm-up: slabs / strip slots acquired here
    WsProbe probe;
    for (auto _ : state) {
        run();
        benchmark::DoNotOptimize(y.data());
    }
    probe.report(state);
    const int t = plan.tileGrid().tiles();
    reportKernelRate(state, xfFlops(algo, f.B, f.C, t) +
                                ewFlops(algo, f.B, f.C, f.C, t) +
                                invFlops(algo, f.B, f.C, t));
    state.counters["achieved_sparsity"] = f.achievedSparsity;
    state.counters["max_abs_err"] = double(y.maxAbsDiff(f.yRef));
}

void
BM_SPARSE_DenseRef(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::F32, false, false);
}
BENCHMARK(BM_SPARSE_DenseRef)->Unit(benchmark::kMillisecond);

void
BM_SPARSE_Forward(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::F32, true, false);
}
BENCHMARK(BM_SPARSE_Forward)->Unit(benchmark::kMillisecond);

void
BM_SPARSE_ForwardFused(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::F32, true, true);
}
BENCHMARK(BM_SPARSE_ForwardFused)->Unit(benchmark::kMillisecond);

void
BM_PREC_Bf16Forward(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::Bf16, false, false);
}
BENCHMARK(BM_PREC_Bf16Forward)->Unit(benchmark::kMillisecond);

void
BM_PREC_Fp16Forward(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::F16, false, false);
}
BENCHMARK(BM_PREC_Fp16Forward)->Unit(benchmark::kMillisecond);

void
BM_PREC_Bf16SparseForward(benchmark::State &state)
{
    quantForwardPlanned(state, Prec::Bf16, true, false);
}
BENCHMARK(BM_PREC_Bf16SparseForward)->Unit(benchmark::kMillisecond);

void
BM_ToomCookGenerate(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            makeWinograd(int(state.range(0)), int(state.range(1))));
}
BENCHMARK(BM_ToomCookGenerate)->Args({2, 3})->Args({4, 3})->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- --json baseline dump

struct JsonRecord
{
    std::string name;
    std::string isa;
    std::vector<double> ms; ///< one entry per repetition
    double gflops = 0.0;    ///< last seen (identical across reps)
    double freshBytesPerIter = 0.0;
    double acquiresPerIter = 0.0;
    double achievedSparsity = 0.0; ///< quant rows only (haveQuant)
    double maxAbsErr = 0.0;        ///< quant rows only (haveQuant)
    bool haveQuant = false;
};

/** Console output as usual, plus a record of every per-iteration run
 *  for the --json artifact; repetitions of one benchmark fold into a
 *  single record so the artifact carries run-to-run stddev. */
class RecordingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration)
                continue;
            const std::string name = r.benchmark_name();
            JsonRecord *rec = nullptr;
            auto it = byName.find(name);
            if (it == byName.end()) {
                records.push_back(JsonRecord{});
                byName[name] = records.size() - 1;
                rec = &records.back();
                rec->name = name;
            } else {
                rec = &records[it->second];
            }
            rec->isa = r.report_label.empty() ? rec->isa : r.report_label;
            rec->ms.push_back(r.GetAdjustedRealTime()); // unit: ms
            auto c = r.counters.find("flops_per_sec");
            if (c != r.counters.end())
                rec->gflops = c->second / 1e9;
            c = r.counters.find("ws_fresh_bytes_per_iter");
            if (c != r.counters.end())
                rec->freshBytesPerIter = c->second;
            c = r.counters.find("ws_acquires_per_iter");
            if (c != r.counters.end())
                rec->acquiresPerIter = c->second;
            c = r.counters.find("achieved_sparsity");
            if (c != r.counters.end()) {
                rec->achievedSparsity = c->second;
                rec->haveQuant = true;
            }
            c = r.counters.find("max_abs_err");
            if (c != r.counters.end())
                rec->maxAbsErr = c->second;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<JsonRecord> records;

  private:
    std::map<std::string, size_t> byName;
};

void
meanStddev(const std::vector<double> &v, double &mean, double &stddev)
{
    mean = 0.0;
    stddev = 0.0;
    if (v.empty())
        return;
    for (double x : v)
        mean += x;
    mean /= double(v.size());
    if (v.size() < 2)
        return;
    double ss = 0.0;
    for (double x : v)
        ss += (x - mean) * (x - mean);
    stddev = std::sqrt(ss / double(v.size() - 1));
}

bool
writeJson(const std::string &path, const std::vector<JsonRecord> &recs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < recs.size(); ++i) {
        double mean = 0.0, stddev = 0.0;
        meanStddev(recs[i].ms, mean, stddev);
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"isa\": \"%s\", "
                     "\"ms_per_iter\": %.4f, \"stddev_ms\": %.4f, "
                     "\"gflops\": %.2f, "
                     "\"ws_fresh_bytes_per_iter\": %.1f, "
                     "\"ws_acquires_per_iter\": %.2f",
                     recs[i].name.c_str(), recs[i].isa.c_str(), mean,
                     stddev, recs[i].gflops, recs[i].freshBytesPerIter,
                     recs[i].acquiresPerIter);
        if (recs[i].haveQuant)
            std::fprintf(f,
                         ", \"achieved_sparsity\": %.4f, "
                         "\"max_abs_err\": %.6e",
                         recs[i].achievedSparsity, recs[i].maxAbsErr);
        std::fprintf(f, "}%s\n", i + 1 < recs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

/** Strip "--json <path>" (or "--json=<path>") from argv; returns the
 *  path or "" when the flag is absent. */
std::string
extractJsonFlag(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            path = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = extractJsonFlag(argc, argv);
    // A --json artifact should carry run-to-run stddev: default to 3
    // repetitions unless the caller chose a count themselves.
    std::vector<char *> args(argv, argv + argc);
    char repFlag[] = "--benchmark_repetitions=3";
    if (!json_path.empty()) {
        bool hasReps = false;
        for (int i = 1; i < argc; ++i)
            if (std::strncmp(argv[i], "--benchmark_repetitions", 23) == 0)
                hasReps = true;
        if (!hasReps)
            args.push_back(repFlag);
    }
    int argc2 = int(args.size());
    benchmark::Initialize(&argc2, args.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, args.data()))
        return 1;
    RecordingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_path.empty()) {
        if (writeJson(json_path, reporter.records))
            std::printf("json baseline: %s\n", json_path.c_str());
        else
            winomc_warn("cannot write json baseline to ", json_path);
    }
    // Emit the observability artifacts before returning so the dump
    // exists even if a wrapper kills the process at exit.
    winomc::metrics::dumpIfConfigured();
    winomc::trace::flushIfConfigured();
    if (!winomc::metrics::configuredPath().empty())
        std::printf("metrics dump: %s\n",
                    winomc::metrics::configuredPath().c_str());
    if (!winomc::trace::configuredPath().empty())
        std::printf("trace file:   %s\n",
                    winomc::trace::configuredPath().c_str());
    return 0;
}
