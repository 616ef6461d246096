/**
 * @file
 * Vectorized micro-kernel table with runtime ISA dispatch.
 *
 * The hot loops of the Winograd pipeline (elementwise GEMM stages,
 * tile-side transforms, direct conv inner loop) and the nn/ secondary
 * paths (ReLU, pooling, SGD axpy) all funnel through a small set of
 * primitive kernels. Each primitive exists in three variants —
 * scalar, AVX2+FMA+F16C, AVX-512F — compiled in separate translation
 * units with per-file -m flags, so one binary runs on any x86-64 host
 * and picks the widest supported unit at startup via cpuid. Every
 * vector level has FMA and gather; a CPU without AVX2 runs the scalar
 * table.
 *
 * Selection: kernels() resolves ExecConfig::isa (winograd/
 * exec_config.hh, seeded from WINOMC_ISA = auto | scalar | avx2 |
 * avx512); auto is the highest level the running CPU supports, and a
 * level the CPU or the build lacks warns and falls back down the
 * ladder avx512 -> avx2 -> scalar, never crashes.
 *
 * Numerics policy: the scalar table reproduces today's loop structures
 * exactly — WINOMC_ISA=scalar is bitwise identical to the pre-SIMD
 * code and serves as the parity oracle. Vector variants may fuse and
 * reassociate (FMA, W-lane partial sums) but keep a fixed, lane-count-
 * determined summation order, so a given ISA level is bitwise
 * reproducible across runs and thread counts.
 *
 * Precision: the table works on fp32 tiles. 16-bit tile storage
 * (winograd/lowprec.hh) encodes once, in conv.cc, after the fp32 input
 * transform; the only entry that knows a 16-bit format is
 * panelAccumHalf, which decodes its rows on load.
 */

#ifndef WINOMC_WINOGRAD_MICROKERNEL_HH
#define WINOMC_WINOGRAD_MICROKERNEL_HH

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/perfcounters.hh"

namespace winomc {
namespace mk {

/** ISA ladder, ordered so higher value = wider vectors. The values
 *  are the kernel.isa.level gauge's. */
enum class Isa : int {
    Scalar = 0,
    Avx2 = 2,
    Avx512 = 3,
    Auto = 99, ///< resolve to the highest level the CPU supports
};

/** Every concrete level, narrowest first: the ladder resolveIsa()
 *  falls down, and the levels tests sweep. */
inline constexpr Isa kIsaLadder[] = {Isa::Scalar, Isa::Avx2, Isa::Avx512};

/**
 * Lane count of the SoA tile panels used by the transform kernels.
 * Callers gather/scatter the spatial side in panels of kTilePanel
 * tiles; the kernels then sweep whole panels per transform entry.
 * 16 covers a full AVX-512 float register and two AVX2 registers.
 */
constexpr int kTilePanel = 16;

/** Largest output-row count of one MicroKernels::rowBlockAccum call. */
constexpr int kRowBlock = 4;

/**
 * Lanes per reduction block of MicroKernels::gradWeights: each pair's
 * dot product is summed per block of kGradKBlock lanes, in ascending
 * block order. Part of the numerics, like the chain split.
 */
constexpr int kGradKBlock = 256;

/** Padding bounds of gradWeights' scratch over every level: the wide
 *  side to a multiple of kGradPanelPad columns, a block's lanes to a
 *  multiple of kGradLanePad. */
constexpr int kGradPanelPad = 16;
constexpr int kGradLanePad = 16;

/** Largest patch edge (eh, ew, and every transform dimension) the
 *  tile-panel kernels take: the alpha of F(6x6, 3x3). */
constexpr int kMaxTileEdge = 8;

/** Output channels of one MicroKernels::directRow call, and the
 *  channel width of its packed weight blocks. */
constexpr int kDirectBlock = 8;

/** One kernel column of a direct convolution row: output columns
 *  [lo, lo + n) read input row entries from, from + 1, ... */
struct DirectTap
{
    int lo, n, from;
};

/**
 * One output row of a direct convolution for a block of output
 * channels; see MicroKernels::directRow. The live kernel rows (those
 * whose input row lies inside the map) are nky consecutive ones.
 */
struct DirectRow
{
    float *out;            ///< the block's first output row
    std::size_t outStride; ///< floats between the block's output rows
    int no;                ///< output channels, 1 .. kDirectBlock
    int ow;                ///< output columns
    const float *in;       ///< channel 0's input row of the first live ky
    std::size_t inPlane;   ///< floats between input channels
    std::ptrdiff_t kyStep; ///< floats from one live ky's input row to the next
    int nc;                ///< input channels
    int nky;               ///< live kernel rows (0: the row is all +0)
    /** Packed weights [c][ky][kx][kDirectBlock] as doubles, at channel
     *  0's first live ky; a channel past `no` holds zeros. */
    const double *w;
    std::size_t wPlane;    ///< doubles between input channels of w
    const DirectTap *taps; ///< one per kernel column
    int kw;                ///< kernel columns
};

/** Signatures of the two tile-panel sandwich bodies; see
 *  MicroKernels::xformFromTiles / xformToTiles. */
using XformFromTilesFn = void (*)(const double *L, int p, int n,
                                  const double *R, int k, int q,
                                  const float *in, std::size_t inStride,
                                  double *out, int cnt);
using XformToTilesFn = void (*)(const double *L, int p, int n,
                                const double *R, int k, int q,
                                const double *in, float *out,
                                std::size_t outStride, int cnt);

/** The sandwich bodies one transform runs; see xformBodies(). */
struct XformBodies
{
    XformFromTilesFn fromTiles;
    XformToTilesFn toTiles;
};

/**
 * One resolved kernel table. All function pointers are non-null
 * (`tabled` may be); the scalar table backs any primitive a vector TU
 * does not specialize.
 */
struct MicroKernels
{
    Isa isa;
    const char *name;  ///< "scalar", "avx2", "avx512"
    int floatLanes;    ///< packed float width of this level
    int doubleLanes;   ///< packed double width of this level

    // --- elementwise GEMM primitives (unit-stride [b*t] axis) -------

    /**
     * The register-blocked core of elementwiseForward/BackwardData:
     * y[j][k] += sum_i w[j * wsJ + i * wsI] * x[i * xStride + k] for
     * j < nj (nj in [1, kRowBlock]), i < ni, k < len. The weight
     * strides let the forward (W, wsJ = ni, wsI = 1) and backward data
     * (W^T, wsJ = 1, wsI = ni) share one body. Vector levels keep an
     * nj x (4 vectors at AVX-512, 2 at AVX2) accumulator block in
     * registers over the whole reduction, so each x vector is loaded
     * once per row block and y is read and written once. Each element
     * is one chain: y's value, then one fma per input row in
     * ascending order, zero weights included. The scalar table loops
     * the pre-blocking per-row kernel over 8 input rows at a time (the
     * flat 8-term expression for a full block, an accumulate loop for
     * a ragged one) and skips a row's all-zero 8-weight block, so
     * WINOMC_ISA=scalar is unchanged.
     */
    void (*rowBlockAccum)(float *const *y, int nj, const float *x,
                          std::size_t xStride, int ni, const float *w,
                          std::ptrdiff_t wsJ, std::ptrdiff_t wsI,
                          int len);

    /**
     * The weight gradient of one uv slice (or an nj x ni block of it):
     * dw[j * ldDw + i] = float(sum_k dy[j * dyStride + k] *
     * x[i * xStride + k]) over len lanes, in double. Each pair's sum
     * is fixed at every level: one dot product per kGradKBlock-lane
     * block, added to a +0 accumulator in ascending block order. The
     * scalar table runs its four-chain dot (tail into chain 0,
     * (s0 + s1) + (s2 + s3)) pair by pair. Vector levels split a block
     * into VD::W lane classes (lanes k = q * VD::W + l) with two chains
     * each: chain 0 over the even full chunks q, chain 1 over the odd
     * ones and then the zero-filled tail chunk; a pair's block dot is
     * simd::hsum's adjacent-pair tree over the classes' c0 + c1. They
     * compute it transposed: the wider of the nj and ni sides goes
     * across vector lanes (converted and transposed to double panels
     * once per block), each fma takes one broadcast narrow-side value,
     * and the tree folds with vertical adds. A narrow side of one to
     * three rows skips the panels and transposes the pairs' class sums
     * instead. `scratch` holds gradWeightsScratch(nj, ni, len) doubles.
     */
    void (*gradWeights)(float *dw, std::size_t ldDw, const float *dy,
                        std::size_t dyStride, int nj, const float *x,
                        std::size_t xStride, int ni, int len,
                        double *scratch);

    // --- transform primitives (SoA across a panel of tiles) ---------

    /**
     * out = L * in * R applied per-lane across cnt (<= kTilePanel)
     * tiles. The float input is strided: entry e of lane l lives at
     * in[e * inStride + l] (WinoTiles uv-major layout: e indexes the
     * n*k transform entries, lanes are contiguous tiles). out is a
     * dense SoA double buffer out[e * kTilePanel + l] of p*q entries.
     * Dims: L is p x n, in is n x k (per lane), R is k x q.
     */
    XformFromTilesFn xformFromTiles;

    /**
     * Mirror of xformFromTiles: dense SoA double input
     * in[e * kTilePanel + l] (n x k entries per lane), float SoA
     * output at out[e * outStride + l] (p*q entries).
     */
    XformToTilesFn xformToTiles;

    // --- tile-panel layout pack/unpack (spatial <-> blocked SoA) ----

    /**
     * Gather cnt (<= kTilePanel) spatial eh x ew patches into the
     * dense SoA double panel the transform kernels consume:
     * soa[(i*ew + j) * kTilePanel + l] =
     *     plane[lanePlane[l] + (tr[l]+i)*w + tc[l]+j]
     * with 0.0 outside [0,h) x [0,w) (implicit padding / boundary
     * crop; tr/tc may be negative). Lane l reads the h x w plane that
     * starts lanePlane[l] floats past `plane`: all zeros for a panel
     * of one plane, image strides for a panel spanning the images of
     * a small map (so every index must fit an int). Surplus lanes
     * l >= cnt of every entry are zeroed so whole-vector sweeps over
     * the panel stay defined. tr/tc/lanePlane need only cnt valid
     * entries; eh, ew <= kMaxTileEdge.
     */
    void (*packTilePanel)(double *soa, const float *plane,
                          const int *lanePlane, int h, int w,
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

    /**
     * One direct-convolution output row for r.no output channels:
     * out[o][x] = float(sum over c, live ky, kx of w[c][ky][kx][o] *
     * in[c][ky][taps[kx].from + x - taps[kx].lo]), where tap kx adds
     * only to columns x in [lo, lo + n). Every output is one double
     * chain from +0 in ascending (c, ky, kx) order; a float * float
     * product is exact in double, so FMA and mul + add round alike and
     * every level is bitwise the scalar one. Vector levels keep a block
     * of output channels x columns in registers over the whole
     * reduction (rows wider than the block run in column chunks), load
     * and widen each input slice once per tap for every channel, and
     * mask the lanes outside a tap's columns out of the load and the
     * fma (an inf or NaN weight at a border tap adds nothing there).
     * The scalar table sweeps the same order over rows of double
     * accumulators, 64 columns at a time.
     */
    void (*directRow)(const DirectRow &r);

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
     * The sparse forward's whole-column kernel: y[k] += sum_v w[v] *
     * x[v][k] over the surviving (weight nonzero, activation live)
     * rows of one output row's input column, in one pass over y. The
     * caller compacts rows in ascending order across consecutive
     * 8-row blocks; grpNv[g] is the survivor count of the g-th
     * non-empty block (empty blocks are omitted) and tailOrig is the
     * uncompacted row count of the LAST group (8 for a full block,
     * ni % 8 for a ragged tail). The scalar kernel replays the scalar
     * rowBlockAccum's per-block expression shape (flat 8-term sum vs
     * accumulate loop) inside a single y read-modify-write; vector
     * levels run one sequential FMA chain over all nv rows and ignore
     * the grouping. Dropped terms are exact zeros for finite inputs,
     * so either way the result is bitwise the dense kernel's. Vector
     * levels share this body with panelAccumHalf.
     */
    void (*panelAccumGrouped)(float *y, const float *const *x,
                              const float *w, int nv, int len,
                              const std::uint8_t *grpNv, int nGroups,
                              int tailOrig);

    /**
     * panelAccumGrouped without the grouping, over 16-bit activation
     * rows: each x[v][k] is decoded (kHalfBf16 | kHalfF16 -> fp32,
     * exact) before the fp32 multiply-accumulate. Sequential per-row
     * accumulation at every level, so any lane blocking (whole batch or
     * tile range) agrees bitwise per ISA. The format is picked once per call.
     */
    void (*panelAccumHalf)(float *y, const std::uint16_t *const *x,
                           const float *w, int nv, int len,
                           int halfKind);

    /**
     * Sandwich bodies specialized on the compile-time coefficients of
     * the tabled transforms (xform_tables.hh), indexed by tabled Id,
     * or nullptr at a level without them (the scalar oracle). Within
     * an entry only the bodies its orientation runs are set. Reach
     * them through xformBodies(), never by Id.
     */
    const XformBodies *tabled;

    /**
     * Bit i (i < n <= 64) of the result is 1 iff w[i] != 0.0f (NaN
     * counts, ±0 does not): the sparse forward's weight-row scan, one
     * vector compare per VF::W weights.
     */
    std::uint64_t (*nonzeroMask)(const float *w, int n);

    /**
     * Bit e (e < entries <= 64) of the result is 1 iff lanes
     * x[e * stride + 0 .. cnt) are all exactly 0.0f (or -0.0f). Scans
     * exactly cnt <= kTilePanel lanes per entry — the mask builder for
     * the just-written SoA panel of the input transform.
     */
    std::uint64_t (*panelZeroMask)(const float *x, std::size_t stride,
                                   int entries, int cnt);
};

/**
 * The bodies that compute out = L * in * R (L: p x n, R: k x q) at
 * K's level. When (L, R) equals a tabled transform pair (B^T / B or
 * A^T / A of F(2,3), F(4,3) or F(6,3)) and K specializes it, the
 * result holds straight-line bodies over compile-time coefficients:
 * a 0 coefficient folds away and +-1 becomes an add or subtract, but
 * each entry keeps the dense chain order (acc = +0, then one fma per
 * term in ascending order) with only the exact +0 terms dropped, so
 * for finite inputs every body is bitwise the generic one. Matching
 * is by value, so F(2,5), whose B^T is F(4,3)'s, runs the F(4,3)
 * input bodies; anything else (F(2,5)'s A^T, the scalar level) gets
 * K's generic bodies. Compares up to 128 doubles: resolve once per
 * stage call.
 */
XformBodies xformBodies(const MicroKernels &K, const double *L, int p,
                        int n, const double *R, int k, int q);

/**
 * Doubles of scratch MicroKernels::gradWeights takes for an nj x ni
 * block over len lanes, at any level: the narrow rows and the wide
 * panels of one padded lane block, the padded accumulators, and 64
 * bytes of alignment slack. For nj, ni multiples of 16 and
 * len >= kGradKBlock that is (nj + ni) * kGradKBlock + nj * ni (+ 8).
 */
std::size_t gradWeightsScratch(int nj, int ni, int len);

/** halfKind selector of MicroKernels::panelAccumHalf. */
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

/** Human-readable name ("scalar", "avx2", "avx512", "auto"). */
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
const MicroKernels *avx2Table();
const MicroKernels *avx512Table();
} // namespace detail

} // namespace mk
} // namespace winomc

#endif // WINOMC_WINOGRAD_MICROKERNEL_HH
