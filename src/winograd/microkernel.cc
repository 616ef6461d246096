/**
 * @file
 * Runtime ISA dispatch for the micro-kernel tables.
 *
 * Each requested level (ExecConfig::isa) is resolved once, on the
 * first kernels() call that asks for it, against what the running CPU
 * reports via cpuid and which vector TUs this binary was actually
 * built with. Anything unsatisfiable warns and falls down the ladder —
 * never crashes — mirroring the WINOMC_THREADS discipline.
 */

#include "winograd/microkernel.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <ranges>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "winograd/exec_config.hh"
#include "winograd/xform_tables.hh"

namespace winomc::mk {

namespace {

std::mutex gMu;
/** Resolved table per requested level: Scalar..Avx512, then Auto. */
std::atomic<const MicroKernels *> gResolved[5];

const MicroKernels *
tableFor(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return detail::scalarTable();
      case Isa::Avx2:
        return detail::avx2Table();
      case Isa::Avx512:
        return detail::avx512Table();
      case Isa::Auto:
        break;
    }
    return nullptr;
}

/** Does the running CPU execute this level? (Build coverage is
 *  checked separately via tableFor.) */
bool
cpuHas(Isa isa)
{
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Avx2:
        // f16c: the AVX2 TU is compiled with -mf16c for the fp16
        // decode path (every AVX2+FMA part ships it, but verify).
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("f16c");
      case Isa::Avx512:
        return __builtin_cpu_supports("avx512f");
      case Isa::Auto:
        break;
    }
    return false;
#else
    return isa == Isa::Scalar;
#endif
}

bool
usable(Isa isa)
{
    return cpuHas(isa) && tableFor(isa) != nullptr;
}

/** Tabled transform Id's sandwich matrix M (rows x cols), row-major. */
struct TabledMatrix
{
    int rows, cols;
    std::array<double, kMaxTileEdge * kMaxTileEdge> m;
};

template <int Id>
constexpr TabledMatrix
tabledMatrix()
{
    using M = xf::TabledXform<Id>;
    TabledMatrix t{M::rows, M::cols, {}};
    for (int i = 0; i < M::rows; ++i)
        for (int j = 0; j < M::cols; ++j)
            t.m[std::size_t(i * M::cols + j)] = M::at(i, j);
    return t;
}

constexpr auto kTabledMatrices =
    []<int... Id>(std::integer_sequence<int, Id...>) {
        return std::array<TabledMatrix, sizeof...(Id)>{
            tabledMatrix<Id>()...};
    }(std::make_integer_sequence<int, xf::kTabledXforms>{});

/** Is (L: p x n, R: n x p) the pair (M, M^T) of tabled matrix t? */
bool
isTabledPair(const TabledMatrix &t, const double *L, int p, int n,
             const double *R)
{
    if (t.rows != p || t.cols != n)
        return false;
    for (int i = 0; i < p; ++i)
        for (int j = 0; j < n; ++j) {
            const double v = t.m[std::size_t(i * n + j)];
            if (L[i * n + j] != v || R[j * p + i] != v)
                return false;
        }
    return true;
}

/** The widest usable level strictly below `ceiling` (Scalar, which is
 *  always usable, when nothing above it is). */
Isa
widestBelow(int ceiling)
{
    for (Isa isa : std::views::reverse(kIsaLadder))
        if (int(isa) < ceiling && usable(isa))
            return isa;
    return Isa::Scalar;
}

} // namespace

Isa
highestSupported()
{
    return widestBelow(int(Isa::Auto));
}

Isa
resolveIsa(Isa requested)
{
    if (requested == Isa::Auto)
        return highestSupported();
    if (usable(requested))
        return requested;
    const Isa fallback = widestBelow(int(requested));
    winomc_warn("WINOMC_ISA=", isaName(requested),
                cpuHas(requested) ? " not built into this binary"
                                  : " not supported by this CPU",
                "; falling back to ", isaName(fallback));
    return fallback;
}

const MicroKernels &
kernels()
{
    const Isa req = execConfig().isa;
    std::atomic<const MicroKernels *> &slot =
        gResolved[req == Isa::Auto ? 4 : int(req)];
    if (const MicroKernels *t = slot.load(std::memory_order_acquire))
        return *t;
    std::lock_guard<std::mutex> lk(gMu);
    if (const MicroKernels *t = slot.load(std::memory_order_relaxed))
        return *t;
    const MicroKernels *t = tableFor(resolveIsa(req));
    winomc_assert(t != nullptr, "ISA resolution produced no table");
    metrics::gaugeSet("kernel.isa.level", double(int(t->isa)));
    slot.store(t, std::memory_order_release);
    return *t;
}

XformBodies
xformBodies(const MicroKernels &K, const double *L, int p, int n,
            const double *R, int k, int q)
{
    XformBodies out{K.xformFromTiles, K.xformToTiles};
    if (!K.tabled || k != n || q != p)
        return out;
    for (int id = 0; id < xf::kTabledXforms; ++id) {
        if (!isTabledPair(kTabledMatrices[std::size_t(id)], L, p, n, R))
            continue;
        const XformBodies &tb = K.tabled[id];
        if (tb.fromTiles)
            out.fromTiles = tb.fromTiles;
        if (tb.toTiles)
            out.toTiles = tb.toTiles;
        break;
    }
    return out;
}

std::size_t
gradWeightsScratch(int nj, int ni, int len)
{
    const auto up = [](int v, int m) {
        return std::size_t((v + m - 1) / m * m);
    };
    const std::size_t nw = up(std::max(nj, ni), kGradPanelPad);
    const std::size_t nn = std::size_t(std::min(nj, ni));
    const std::size_t kb = up(std::min(len, kGradKBlock), kGradLanePad);
    return (nn + nw) * kb + nn * nw + 8;
}

Isa
activeIsa()
{
    return kernels().isa;
}

void
publishStageMetrics(const char *stage, double seconds, double flops)
{
    if (!metrics::enabled())
        return;
    const MicroKernels &k = kernels();
    metrics::gaugeSet("kernel.isa.level", double(int(k.isa)));
    std::string base = "kernel.";
    base += stage;
    metrics::gaugeSet((base + ".gflops").c_str(),
                      seconds > 0.0 ? flops / seconds * 1e-9 : 0.0);
    // Cumulative time and work per stage: together with the
    // perf.<stage>.* hardware counters these are the inputs of the
    // winomc-report roofline table (GFLOP/s from flops/seconds, IPC
    // and bytes/cycle from the perf counters).
    metrics::timerAdd((base + ".seconds").c_str(), seconds);
    metrics::counterAdd((base + ".flops").c_str(), flops);
    metrics::timerAdd(k.isa == Isa::Scalar ? "kernel.time.scalar"
                                           : "kernel.time.vector",
                      seconds);
}

StageTimer::StageTimer(const char *stage, double flops)
    : stage(stage), flops(flops), active(metrics::enabled())
{
    if (active) {
        start = std::chrono::steady_clock::now();
        perf0 = perf::read();
    }
}

StageTimer::~StageTimer()
{
    if (active) {
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start;
        publishStageMetrics(stage, d.count(), flops);
        // Joins kernel.<stage>.{seconds,flops} in the winomc-report
        // roofline.
        perf::publishStage(stage, perf0);
    }
}

} // namespace winomc::mk
