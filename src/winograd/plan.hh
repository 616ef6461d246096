/**
 * @file
 * Shape-bound Winograd execution plans.
 *
 * A WinoPlan binds one (algorithm, batch, in_ch -> out_ch, H, W)
 * configuration, precomputes the tile grid, and owns the
 * Winograd-domain slabs the pipeline uses (input, output, grad-output
 * and grad-input tiles, and the range tiles of a forward too large for
 * cache), each acquired when the first stage that writes it runs. All
 * stage execution goes through the destination-passing kernels of
 * winograd/conv.hh, so after one warm-up run, repeated steps over the
 * same shape perform zero heap allocations in the Winograd path — the
 * plan is the host-side analogue of the paper's statically scheduled
 * SRAM working set.
 *
 * Lifecycle: layers lease a plan from a PlanPool on the first forward
 * and lease again only when the incoming shape stops matching
 * (matches()); the pool parks displaced plans for reuse, and a plan
 * parked after an eval forward hands its tile slabs back to the
 * workspace pool (releaseEvalTiles()). Each slab acquisition validates
 * the working set of the mode about to run against
 * WINOMC_WORKSPACE_LIMIT_MB, failing loudly instead of OOM-ing.
 *
 * Thread-safety contract: a plan parallelizes *internally* (each stage
 * fans out across the common/parallel.hh pool) but is not reentrant —
 * concurrent calls into one plan race on its slabs. One plan per layer
 * (or per cluster in MPT) is the intended usage; results are bitwise
 * identical for any thread count.
 */

#ifndef WINOMC_WINOGRAD_PLAN_HH
#define WINOMC_WINOGRAD_PLAN_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/conv_spec.hh"
#include "winograd/exec_config.hh"
#include "winograd/lowprec.hh"
#include "winograd/tiling.hh"

namespace winomc {

class WinoPlan
{
  public:
    WinoPlan(const WinogradAlgo &algo, int batch, int inCh, int outCh,
             int h, int w);

    /**
     * Does this plan cover the given shape under the live execConfig()?
     * A plan executes under the config it captured at construction,
     * so any config change makes it stop matching: plan pools rebuild,
     * never alias, across a change of any field.
     */
    bool matches(const WinogradAlgo &algo, int batch, int inCh,
                 int outCh, int h, int w) const;

    /** The execution config captured at construction. */
    const ExecConfig &config() const { return cfg; }

    const TileGrid &tileGrid() const { return grid; }
    int batch() const { return nb; }
    int inChannels() const { return ni; }
    int outChannels() const { return nj; }
    int height() const { return fh; }
    int width() const { return fw; }

    /** Bytes of the slabs and range tiles held now (0 for a fresh
     *  plan; flat once each mode it runs has run once). A plan parked
     *  after an eval forward keeps only the slabs the workspace pool
     *  had no room for (releaseEvalTiles()). */
    std::size_t workspaceBytes() const;

    /**
     * If the last forwardInto kept no tiles, offer the forward slabs
     * (Xt or Xh, Yt, the sparse mask) and the range tiles back to the
     * workspace pool: they are that call's dead scratch, and pooled they serve
     * whichever plan runs next. A slab the pool has no room for stays
     * with the plan, so a tight WINOMC_WORKSPACE_LIMIT_MB never turns
     * the next forward into a heap allocation. PlanPool calls this
     * when it parks a plan; train-mode plans keep their slabs.
     */
    void releaseEvalTiles();

    // -----------------------------------------------------------------
    // One-shot pipelines. Each fully rewrites the slabs it touches.
    // -----------------------------------------------------------------

    /**
     * y = winograd_conv(x, W), one tile range at a time (§4.11): the
     * batch's B x T tiles split into ranges of len tiles (the last may
     * be shorter), and each range runs the input transform, the
     * element-wise products and the inverse transform.
     *
     *  - keepTiles (a train-mode forward, whose backward reads the
     *    tiles), or a batch within rangeTiles(): one range, the whole
     *    batch, into the plan's slabs, each stage parallel inside.
     *    keepTiles leaves inputTiles()/outputTiles() caching the
     *    transformed activations of x; an eval forward keeps its slabs
     *    only until the plan is parked (releaseEvalTiles()).
     *  - otherwise rangeCount() > 1 ranges as parallel tasks, each
     *    running its stages inline into a free set of the plan's range
     *    tiles (with fewer ranges than pool threads, in turn, each
     *    stage parallel inside); the slabs are not touched. Published
     *    as the wino.fused.fwd span and counters.
     *
     * Any range length is bitwise the whole batch. Executes under
     * config(): a sparse fp32 config routes through the zero-skipping
     * kernels (bitwise identical output, Xt still cached); a half
     * policy stores the transformed activations in 16 bits — the fp32
     * Xt slab is then NOT populated (inputCached() stays false) and
     * callers needing input tiles must scatterInput. A forward that
     * keeps no tiles drops the tile caches.
     */
    void forwardInto(const Tensor &x, const WinoWeights &W, Tensor &y,
                     bool keepTiles = true);
    /** dx from dy: transformGradOutput + backwardDataFromCachedInto. */
    void backwardDataInto(const Tensor &dy, const WinoWeights &W,
                          Tensor &dx);
    /** dW (assigned, not accumulated) from x and dy: scatterInput +
     *  transformGradOutput + gradWeightsFromCachedInto. */
    void gradWeightsInto(const Tensor &x, const Tensor &dy,
                         WinoWeights &dW);

    /**
     * Tiles per range of a forward that keeps no tiles. At most the
     * whole panels whose input + output tiles fit the range tiles'
     * budget, but no fewer than four panels and the
     * weight-amortization floor; the batch splits into that many
     * ranges of even length (whole panels), or is one range when it
     * fits. Ranges span images.
     */
    int rangeTiles() const { return rangeT; }
    /** Ranges of such a forward: ceil(batch x tiles / rangeTiles()). */
    int rangeCount() const
    {
        return (nb * grid.tiles() + rangeT - 1) / rangeT;
    }

    // -----------------------------------------------------------------
    // Staged training-step API: forwardInto caches the input tiles;
    // transformGradOutput computes the grad-output tiles once, and both
    // gradient products then reuse them without re-transforming.
    // -----------------------------------------------------------------

    /** dYt = A dy A^T per tile; prerequisite of the FromCached calls. */
    void transformGradOutput(const Tensor &dy);
    /** dW (assigned) from the cached X tiles and grad-output tiles.
     *  Publishes wino.staged.grad_weights traffic. */
    void gradWeightsFromCachedInto(WinoWeights &dW);
    /** dx from the grad-output tiles through W^T and the input adjoint.
     *  Publishes wino.staged.bwd_data traffic. Whichever of the two
     *  FromCached calls runs first after transformGradOutput counts
     *  the dy -> dYt transform bytes, so they are counted once. */
    void backwardDataFromCachedInto(const WinoWeights &W, Tensor &dx);

    // -----------------------------------------------------------------
    // Partial-execution access (mpt::MptConvLayer): scatterInput and
    // transformGradOutput move into the Winograd domain, the gathers
    // move back; each MPT group then runs the uv-ranged element-wise
    // kernels of winograd/conv.hh directly on its slice of the
    // plan-owned slabs.
    // -----------------------------------------------------------------

    /** Xt = B^T x B per tile (marks the input cache valid). */
    void scatterInput(const Tensor &x);
    /** y = inverse transform of the (accumulated) output tiles. */
    void gatherOutputInto(Tensor &y);
    /** dx = overlap-add adjoint of the (accumulated) grad-input tiles. */
    void gatherGradInputInto(Tensor &dx);

    const WinoTiles &inputTiles() const;
    const WinoTiles &outputTiles() const;
    const WinoTiles &gradOutputTiles() const;
    /** The Yt / dXt slabs for the groups to write, sized on first use. */
    WinoTiles &outputTilesMutable();
    WinoTiles &gradInputTilesMutable();

    /** Is the input-tile cache populated (by forwardInto/scatterInput)? */
    bool inputCached() const { return haveInput; }
    /** Drop cache-validity (e.g. after an inference-only forward). */
    void invalidateCache() { haveInput = haveOutput = haveGrad = false; }

  private:
    /** One task's tiles of a multi-range forward, batch dimension 1. */
    struct RangeTiles
    {
        WinoTiles in;      ///< [a²][I][1][rangeT]
        HalfTiles inHalf;  ///< 16-bit in-side (half policies only)
        WinoTiles out;     ///< [a²][J][1][rangeT]
        ActMask mask;      ///< range-local zero mask (sparse policies)
        bool busy = false; ///< claimed by a running task (rangeMu)
    };

    /** The plan-owned slabs, as bits of a set. */
    enum Slab : unsigned { kXt = 1, kYt = 2, kDYt = 4, kDXt = 8, kXh = 16,
                           kMask = 32 };
    /** The slabs a staged forward under config() writes. */
    unsigned forwardSlabs() const;
    /** Bytes of the slab set `slabs` over batch x tiles lanes: the
     *  plan's slabs (nb x grid.tiles()) or one range's (1 x rangeT). */
    std::size_t slabBytes(unsigned slabs, int batch, int tiles) const;
    /**
     * Size the slabs of `use` not yet held. Before the first sizing,
     * the working set of `mode` — every slab of the stage sequence
     * `use` belongs to — is checked against the workspace budget.
     */
    void acquire(unsigned use, unsigned mode);
    /** ws::checkBudget naming this plan and `what` in the message. */
    void checkBudget(std::size_t bytes, const char *what) const;

    /** Publish wino.<mode>.<phase> traffic counters + predicted gauge
     *  (no-op when metrics are disabled). Args are bytes, so streams
     *  of different element widths (fp32 vs 16-bit tiles) add up
     *  honestly. */
    void publishTraffic(const char *mode, const char *phase,
                        double xformBytes, double ewBytes,
                        double invBytes, double predictedBytes) const;
    /** The dy -> dYt transform bytes if still uncounted (then marks
     *  them counted), else 0. */
    double takeGradXformBytes();

    const WinogradAlgo &alg;
    int nb, ni, nj, fh, fw;
    TileGrid grid;
    ExecConfig cfg; ///< execution config captured at construction

    WinoTiles Xt;  ///< transformed input activations [a²][I][N][T]
    WinoTiles Yt;  ///< pre-inverse output tiles       [a²][J][N][T]
    WinoTiles dYt; ///< transformed output gradients   [a²][J][N][T]
    WinoTiles dXt; ///< Winograd-domain input grads    [a²][I][N][T]
    HalfTiles Xh;  ///< 16-bit input tiles (half policies only)
    ActMask actMask; ///< activation zero mask (sparse policies only)
    unsigned held = 0; ///< the Slab bits sized so far

    bool haveInput = false;  ///< Xt holds the last forward's input
    bool haveOutput = false; ///< Yt holds the last forward's output
    bool haveGrad = false;   ///< dYt holds the last backward's grads
    /** The last forwardInto kept no tiles, so the forward slabs hold
     *  only dead scratch. */
    bool evalTiles = false;
    /** transformGradOutput ran and no traffic counter has its bytes. */
    bool gradXformUncounted = false;

    int rangeT = 0; ///< tiles per range of an eval forward
    /** A multi-range forward's tiles: one set per task that can run at
     *  once, so their number depends only on the thread count, and a
     *  repeat acquires nothing. */
    std::vector<RangeTiles> rangeSets;
    std::mutex rangeMu; ///< guards the sets' busy flags
    /** Exact in-bounds input-gather elements per (image, channel)
     *  plane: sum over tiles of the a x a window's overlap with the
     *  plane. Used by the measured-traffic counters. */
    std::size_t gatherElemsA = 0;
};

/**
 * The one place displaced plans are parked for reuse: every
 * nn::ConvLayer owns a pool, an MPT layer leases all its clusters'
 * plans from one, and a serving engine re-points its layers at a
 * shared serve::PlanCache (a PlanPool plus the transformed-weight
 * memo) so concurrent model instances draw from one pool.
 *
 * Shape churn is why it exists: alternating batch shapes (A/B/A/B
 * serving traffic) would otherwise rebuild the layer plan on every
 * flip, bouncing multi-MB slab sets off the workspace pool; a parked
 * plan makes the whole rotation allocation-free after one warm-up of
 * each shape.
 *
 * Leases are exclusive (a WinoPlan is not reentrant): lease() moves a
 * matching parked plan out of the pool — so one pool can hold and
 * hand out several plans of the same shape — and a re-issued plan
 * always comes back with its tile caches invalidated (they describe
 * activations of an earlier lease). Parked plans are bounded by bytes,
 * not by count: past the budget the least-recently-parked plans are
 * destroyed (their slabs return to the workspace), and a plan larger
 * than the whole budget is never parked. Thread-safe; plans are built
 * and destroyed outside the lock.
 */
class PlanPool
{
  public:
    /**
     * @param budgetBytes ceiling on parked-plan bytes; 0 rides the
     *        workspace retention limit (WINOMC_WORKSPACE_LIMIT_MB),
     *        read at every park, so a later limit change applies too
     * @param metricPrefix publish `<prefix>.hits` / `.misses` /
     *        `.evictions` counters and `.bytes` / `.plans` gauges;
     *        empty publishes nothing
     */
    explicit PlanPool(std::size_t budgetBytes = 0,
                      const std::string &metricPrefix = {});
    PlanPool(const PlanPool &) = delete;
    PlanPool &operator=(const PlanPool &) = delete;

    /**
     * Point `slot` at a plan for the configuration: keep it if it
     * still matches, else park it and lease a match — a parked one
     * when the pool holds it (hit), a freshly built one otherwise
     * (miss). An empty slot just leases.
     */
    void lease(std::unique_ptr<WinoPlan> &slot, const WinogradAlgo &algo,
               int batch, int inCh, int outCh, int h, int w);

    /** Park a displaced plan for reuse (null is ignored). */
    void park(std::unique_ptr<WinoPlan> plan);

    /** The live byte budget (the workspace limit when built with 0). */
    std::size_t budgetBytes() const;
    std::size_t parkedBytes() const;
    int parkedPlans() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;

    /** Destroy every parked plan (slabs return to the workspace). */
    void clear();

  private:
    using Doomed = std::vector<std::unique_ptr<WinoPlan>>;

    /** Park `plan` and evict past the budget into `doomed` (callers
     *  hold mu and destroy `doomed` after releasing it). */
    void parkLocked(std::unique_ptr<WinoPlan> plan, Doomed &doomed);
    /** ++n and, when publishing, the `<prefix><suffix>` counter. */
    void count(std::uint64_t &n, const char *suffix);
    void publishGauges() const; // callers hold mu

    const std::size_t budget; ///< 0: the live workspace limit
    const std::string prefix; ///< metric name prefix; empty: none
    mutable std::mutex mu;
    std::vector<std::unique_ptr<WinoPlan>> pool; ///< MRU first
    std::size_t poolBytes = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nEvictions = 0;
};

// ---------------------------------------------------------------------
// DWM-style decomposition (DESIGN.md §4.14): a convolution with kernel
// taps beyond 3 and/or stride beyond 1 is rewritten as a SUM of small
// 3x3 stride-1 "same" convolutions over gathered input views — the
// terms become input channels of one ordinary F(m,3) tile-range
// forward, so every geometry the terms cover inherits the fast path
// (and its bitwise thread-invariance) instead of falling back to
// direct.
// ---------------------------------------------------------------------

/**
 * One decomposition term. Per dimension, tap index a of the original
 * kernel maps to phase ph = a % stride and position p = a / stride;
 * positions are chunked in threes (chunk c covers p in [3c, 3c+3)),
 * and each (ph, c) pair becomes a 3-tap unit kernel
 *   k_u[j] = w[stride * (3c + j) + ph]   (zero where out of range)
 * convolved over the strided input view
 *   x_u[i] = x_zeroext[stride * i + off],  off = stride*(3c+1) + ph - pad.
 * The 2D term is the product of one row and one column unit.
 */
struct DecompTerm
{
    int phR, chunkR; ///< row phase / chunk
    int phC, chunkC; ///< column phase / chunk
    int offR, offC;  ///< input-view offsets (may be negative)
};

/** The term list of a spec (row-major over (row unit, col unit)). */
std::vector<DecompTerm> decomposeSpec(const ConvSpec &spec);

/**
 * Can this geometry run decomposed? Requires positive output size,
 * kernels up to 11 taps and strides up to 3 per dimension (beyond that
 * the term count outgrows any benefit over direct).
 */
bool decompSupported(const ConvSpec &spec);

/**
 * Shape-bound decomposed execution plan.
 *
 * Every term convolves the same (outH+2) x (outW+2) gathered view,
 * where the +2 border absorbs the inner pipeline's "same" zero padding
 * (the shifted views carry real data where the inner padding would
 * otherwise clip it; the border of the output is an inner-padding
 * artifact and is cropped). So the T terms' views of the C input
 * channels are stacked as T*C input channels (term-major) of one inner
 * WinoPlan(unit, batch, T*C -> outCh, outH+2, outW+2), and the term sum
 * is the inner GEMM's channel reduction: one input transform, one
 * element-wise product per uv and one inverse transform per forward.
 * The result is bitwise identical for any thread count and any inner
 * range length (the inner plan's contract).
 *
 * Steady state allocates nothing: the gather and output maps, the
 * transformed weights and the inner plan slabs all persist for the
 * plan's lifetime. Like WinoPlan, not reentrant.
 */
class WinoDecompPlan
{
  public:
    /** @param unit the F(m,3) algorithm every term executes with */
    WinoDecompPlan(const ConvSpec &spec, const WinogradAlgo &unit);

    /** Does this plan cover the given spec (name ignored) and unit? */
    bool matches(const ConvSpec &spec, const WinogradAlgo &unit) const;

    int terms() const { return int(units.size()); }
    const WinogradAlgo &unitAlgo() const { return alg; }
    const ConvSpec &spec() const { return sp; }
    const WinoPlan &innerPlan() const { return *inner; }

    /** Plan-owned bytes: inner plan slabs + unit-kernel staging +
     *  gather/output maps + Winograd weights. */
    std::size_t workspaceBytes() const;

    /** Split spatial weights (J, I, kh, kw) into the terms' unit
     *  kernels and transform them. Call once, and again whenever
     *  weights change. */
    void setWeights(const Tensor &w);

    /** y = conv(x): one inner forward over every term's view. */
    void forwardInto(const Tensor &x, Tensor &y);

  private:
    ConvSpec sp;
    const WinogradAlgo &alg;
    std::vector<DecompTerm> units;
    Tensor kerScratch; ///< (J, T*I, 3, 3) spatial unit-kernel staging
    WinoWeights unitW; ///< kerScratch transformed, [uv][J][T*I]
    Tensor xGather;    ///< (B, T*I, outH+2, outW+2) strided views
    Tensor yInner;     ///< (B, J, outH+2, outW+2) inner output
    std::unique_ptr<WinoPlan> inner;
    bool haveWeights = false;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_PLAN_HH
