/**
 * @file
 * Vectorized micro-kernel table with runtime ISA dispatch.
 *
 * The hot loops of the Winograd pipeline (elementwise GEMM stages,
 * tile-side transforms, direct conv inner loop) and the nn/ secondary
 * paths (ReLU, pooling, SGD axpy) all funnel through a small set of
 * primitive kernels. Each primitive exists in up to four variants —
 * scalar, SSE2, AVX2+FMA, AVX-512F — compiled in separate translation
 * units with per-file -m flags, so one binary runs on any x86-64 host
 * and picks the widest supported unit at startup via cpuid.
 *
 * Selection: kernels() resolves ExecConfig::isa (winograd/
 * exec_config.hh, seeded from WINOMC_ISA = auto | scalar | sse2 |
 * avx2 | avx512); auto is the highest level the running CPU supports,
 * and a level the CPU or the build lacks warns and falls back down
 * the ladder, never crashes.
 *
 * Numerics policy: the scalar table reproduces today's loop structures
 * exactly — WINOMC_ISA=scalar is bitwise identical to the pre-SIMD
 * code and serves as the parity oracle. Vector variants may fuse and
 * reassociate (FMA, W-lane partial sums) but keep a fixed, lane-count-
 * determined summation order, so a given ISA level is bitwise
 * reproducible across runs and thread counts.
 */

#ifndef WINOMC_WINOGRAD_MICROKERNEL_HH
#define WINOMC_WINOGRAD_MICROKERNEL_HH

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/perfcounters.hh"

namespace winomc {
namespace mk {

/** ISA ladder, ordered so higher value = wider vectors. */
enum class Isa : int {
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Avx512 = 3,
    Auto = 99, ///< resolve to the highest level the CPU supports
};

/**
 * Lane count of the SoA tile panels used by the transform kernels.
 * Callers gather/scatter the spatial side in panels of kTilePanel
 * tiles; the kernels then sweep whole panels per transform entry.
 * 16 covers a full AVX-512 float register and two AVX2 registers.
 */
constexpr int kTilePanel = 16;

/** Largest row count per side of one MicroKernels::dotBlockDouble
 *  call (a full block keeps kDotBlock^2 accumulators per chain). */
constexpr int kDotBlock = 4;

/**
 * One resolved kernel table. All pointers are non-null; the scalar
 * table backs any primitive a vector TU does not specialize.
 */
struct MicroKernels
{
    Isa isa;
    const char *name;  ///< "scalar", "sse2", "avx2", "avx512"
    int floatLanes;    ///< packed float width of this level
    int doubleLanes;   ///< packed double width of this level

    // --- elementwise GEMM primitives (unit-stride [b*t] axis) -------

    /**
     * y[k] += sum_v w[v] * x[v][k] for k in [0, len). nv in [1, 8].
     * The register-blocked core of elementwiseForward/BackwardData.
     */
    void (*panelAccum)(float *y, const float *const *x, const float *w,
                       int nv, int len);

    /**
     * Register-blocked double-precision dot products, the core of
     * elementwiseGradWeights: acc[j * ldAcc + i] += dot(a[j], b[i])
     * over len floats, for j < na and i < nb (na, nb in
     * [1, kDotBlock]). Every pair keeps the single-pair reduction
     * order: the scalar table loops its four-chain dot per pair;
     * vector levels keep two VD chains per pair (chain 0 takes the
     * even full VD chunks, chain 1 the odd full chunks and then the
     * zero-filled tail) combined as hsum(chain0 + chain1). A block's
     * rows are loaded once per chunk for all na x nb pairs, so the
     * result per pair is bitwise the na = nb = 1 call at every level.
     */
    void (*dotBlockDouble)(double *acc, int ldAcc, const float *const *a,
                           int na, const float *const *b, int nb,
                           int len);

    // --- transform primitives (SoA across a panel of tiles) ---------

    /**
     * out = L * in * R applied per-lane across cnt (<= kTilePanel)
     * tiles. The float input is strided: entry e of lane l lives at
     * in[e * inStride + l] (WinoTiles uv-major layout: e indexes the
     * n*k transform entries, lanes are contiguous tiles). out is a
     * dense SoA double buffer out[e * kTilePanel + l] of p*q entries.
     * Dims: L is p x n, in is n x k (per lane), R is k x q.
     */
    void (*xformFromTiles)(const double *L, int p, int n,
                           const double *R, int k, int q,
                           const float *in, std::size_t inStride,
                           double *out, int cnt);

    /**
     * Mirror of xformFromTiles: dense SoA double input
     * in[e * kTilePanel + l] (n x k entries per lane), float SoA
     * output at out[e * outStride + l] (p*q entries).
     */
    void (*xformToTiles)(const double *L, int p, int n,
                         const double *R, int k, int q,
                         const double *in, float *out,
                         std::size_t outStride, int cnt);

    // --- tile-panel layout pack/unpack (spatial <-> blocked SoA) ----

    /**
     * Gather cnt (<= kTilePanel) spatial eh x ew patches into the
     * dense SoA double panel the transform kernels consume:
     * soa[(i*ew + j) * kTilePanel + l] = plane[(tr[l]+i)*w + tc[l]+j]
     * with 0.0 outside [0,h) x [0,w) (implicit padding / boundary
     * crop; tr/tc may be negative). Surplus lanes l >= cnt of every
     * entry are zeroed so whole-vector sweeps over the panel stay
     * defined. tr/tc need only cnt valid entries.
     */
    void (*packTilePanel)(double *soa, const float *plane, int h, int w,
                          const int *tr, const int *tc, int eh, int ew,
                          int cnt);

    /**
     * Scatter a dense SoA double panel back to spatial positions:
     * plane[(tr[l]+i)*w + tc[l]+j] = float(soa[(i*ew+j)*kTilePanel+l]),
     * skipping entries outside [0,h) x [0,w) (boundary crop). Lanes
     * scatter in ascending order.
     */
    void (*unpackTilePanel)(float *plane, int h, int w, const int *tr,
                            const int *tc, int eh, int ew,
                            const double *soa, int cnt);

    /**
     * Overlap-add variant of unpackTilePanel: += instead of =, lanes
     * strictly in ascending order (the summation order at overlapping
     * pixels is part of the bitwise contract).
     */
    void (*unpackAddTilePanel)(float *plane, int h, int w, const int *tr,
                               const int *tc, int eh, int ew,
                               const double *soa, int cnt);

    // --- direct conv / reduction primitives -------------------------

    /** acc[i] += w * x[i] for i in [0, n), double accumulators. */
    void (*rowAccumDouble)(double *acc, const float *x, double w, int n);

    /** Fixed-order double-precision sum of n floats. */
    double (*sumDouble)(const float *x, std::int64_t n);

    // --- nn/ secondary-path primitives ------------------------------

    /**
     * y[i] = x[i] > 0 ? x[i] : 0; if mask is non-null,
     * mask[i] = x[i] > 0 ? 1 : 0.
     */
    void (*reluForward)(float *y, float *mask, const float *x,
                        std::int64_t n);

    /** dst[i] = a[i] * b[i]. (ReLU backward: dst = dy * mask.) */
    void (*mulPairwise)(float *dst, const float *a, const float *b,
                        std::int64_t n);

    /** y[i] += a * x[i]. (SGD update with a = -lr.) */
    void (*axpy)(float *y, float a, const float *x, std::int64_t n);

    /**
     * One output row of 2x2 average pooling:
     * y[o] = 0.25f * (((r0[2o] + r0[2o+1]) + r1[2o]) + r1[2o+1])
     * for o in [0, outW). The association is fixed so every ISA level
     * reproduces the scalar result bitwise.
     */
    void (*avgPool2Row)(float *y, const float *r0, const float *r1,
                        int outW);

    // --- sparse + low-precision extensions --------------------------

    /**
     * panelAccum over a caller-compacted row subset. `origNv` is the
     * row count of the uncompacted block; the scalar kernel uses it to
     * pick the same expression shape (flat 8-term sum vs accumulate
     * loop) panelAccum would have used, so dropping rows whose terms
     * are exactly zero stays bitwise identical to the dense kernel.
     * Vector levels accumulate sequentially for every nv and ignore
     * origNv. nv may be 0 (pure no-op).
     */
    void (*panelAccumSel)(float *y, const float *const *x,
                          const float *w, int nv, int len, int origNv);

    /**
     * Whole-column variant of panelAccumSel: one pass over the y panel
     * accumulating every surviving row of the full input-channel
     * column at once. The caller compacts rows in ascending order
     * across consecutive kIUnroll register blocks; grpNv[g] is the
     * survivor count of the g-th non-empty block (empty blocks are
     * omitted) and tailOrig is the uncompacted row count of the LAST
     * group (8 for a full block, ni % 8 for a ragged tail). The scalar
     * kernel replays panelAccum's per-block expression shape inside a
     * single y read-modify-write — bitwise identical to the blocked
     * dense kernel because fp32 store/load round trips are exact.
     * Vector levels accumulate all nv rows in one sequential FMA chain
     * and ignore the grouping (same chain as the blocked calls). The
     * point: the blocked kernel re-reads each y panel ni/8 times, so
     * at high sparsity y traffic, not FLOPs, dominates; one pass makes
     * skipped rows actually buy time.
     */
    void (*panelAccumGrouped)(float *y, const float *const *x,
                              const float *w, int nv, int len,
                              const std::uint8_t *grpNv, int nGroups,
                              int tailOrig);

    /**
     * panelAccum with 16-bit activation rows: each x[v][k] is decoded
     * (kHalfBf16 | kHalfF16 -> fp32, exact) before the fp32
     * multiply-accumulate. Sequential per-row accumulation at every
     * level, so staged and fused blockings agree bitwise per ISA.
     */
    void (*panelAccumHalf)(float *y, const std::uint16_t *const *x,
                           const float *w, int nv, int len,
                           int halfKind);

    /**
     * xformToTiles with a 16-bit destination: the fp32 transform
     * result of each lane is encoded to `halfKind` with software
     * round-to-nearest-even (common/half.hh), so every ISA level
     * writes identical bits.
     */
    void (*xformToTilesHalf)(const double *L, int p, int n,
                             const double *R, int k, int q,
                             const double *in, std::uint16_t *out,
                             std::size_t outStride, int cnt,
                             int halfKind);

    /**
     * Bit e (e < entries <= 64) of the result is 1 iff lanes
     * x[e * stride + 0 .. cnt) are all exactly 0.0f (or -0.0f). Scans
     * exactly cnt <= kTilePanel lanes per entry — the mask builder for
     * the just-written SoA panel of the input transform.
     */
    std::uint64_t (*panelZeroMask)(const float *x, std::size_t stride,
                                   int entries, int cnt);

    /** panelZeroMask over 16-bit payloads: zero test is
     *  (bits & 0x7fff) == 0 (both formats encode ±0 that way). */
    std::uint64_t (*panelZeroMaskHalf)(const std::uint16_t *x,
                                       std::size_t stride, int entries,
                                       int cnt);
};

/** halfKind selector for the 16-bit microkernel variants. */
constexpr int kHalfBf16 = 0;
constexpr int kHalfF16 = 1;

/** Highest ISA level the running CPU supports (Scalar on non-x86). */
Isa highestSupported();

/**
 * Clamp a requested level to what the CPU supports. A request above
 * the hardware warns once and falls back to highestSupported().
 * Auto resolves to highestSupported().
 */
Isa resolveIsa(Isa requested);

/** Human-readable name ("scalar", "sse2", "avx2", "avx512", "auto"). */
const char *isaName(Isa isa);

/**
 * The kernel table of the live execConfig().isa. Each requested level
 * is resolved once (warning on a fallback) and cached, and the
 * kernel.isa.level gauge is published at resolution. Thread-safe;
 * after resolution a call is one config read plus one atomic load.
 */
const MicroKernels &kernels();

/** ISA level of the table kernels() returns. */
Isa activeIsa();

/**
 * Publish per-stage throughput: kernel.<stage>.gflops gauge plus the
 * kernel.time.vector / kernel.time.scalar split (nanoseconds) used by
 * the winomc-report "Kernel dispatch" table. No-op when metrics are
 * disabled.
 */
void publishStageMetrics(const char *stage, double seconds, double flops);

/**
 * RAII throughput probe: when metrics are on, times the enclosing
 * stage and publishes publishStageMetrics() plus this thread's
 * hardware-counter share (perf.<stage>.*). Costs one relaxed atomic
 * load when metrics are off.
 */
class StageTimer
{
  public:
    StageTimer(const char *stage, double flops);
    ~StageTimer();
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    const char *stage;
    double flops;
    bool active;
    std::chrono::steady_clock::time_point start;
    perf::Reading perf0;
};

namespace detail {
/**
 * Per-TU factories. Each returns a fully populated table for its
 * level, or nullptr when that TU was compiled out (non-x86 build or
 * compiler lacks the -m flag). Defined in microkernel_<level>.cc.
 */
const MicroKernels *scalarTable();
const MicroKernels *sse2Table();
const MicroKernels *avx2Table();
const MicroKernels *avx512Table();
} // namespace detail

} // namespace mk
} // namespace winomc

#endif // WINOMC_WINOGRAD_MICROKERNEL_HH
