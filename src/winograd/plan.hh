/**
 * @file
 * Shape-bound Winograd execution plans.
 *
 * A WinoPlan binds one (algorithm, batch, in_ch -> out_ch, H, W)
 * configuration, precomputes the tile grid, and owns the
 * Winograd-domain slabs the pipeline uses (input, output, grad-output
 * and grad-input tiles, fused strip scratch), each acquired when the
 * first stage that writes it runs. All stage execution goes through
 * the destination-passing kernels of winograd/conv.hh, so after one
 * warm-up run, repeated steps over the same shape perform zero heap
 * allocations in the Winograd path — the plan is the host-side analogue
 * of the paper's statically scheduled SRAM working set.
 *
 * Lifecycle: layers build a plan lazily on the first forward and rebuild
 * only when the incoming shape stops matching (matches()). Each slab
 * acquisition validates the working set of the mode about to run
 * against WINOMC_WORKSPACE_LIMIT_MB, failing loudly instead of OOM-ing.
 *
 * Thread-safety contract: a plan parallelizes *internally* (each stage
 * fans out across the common/parallel.hh pool) but is not reentrant —
 * concurrent calls into one plan race on its slabs. One plan per layer
 * (or per cluster in MPT) is the intended usage; results are bitwise
 * identical for any thread count.
 */

#ifndef WINOMC_WINOGRAD_PLAN_HH
#define WINOMC_WINOGRAD_PLAN_HH

#include <memory>
#include <mutex>
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

    /** Bytes held now: the slabs and strip scratch acquired so far (0
     *  for a fresh plan; flat once each mode it runs has run once). */
    std::size_t workspaceBytes() const;

    // -----------------------------------------------------------------
    // One-shot pipelines (the free winograd* wrappers route through
    // transient plans built on these). Each fully rewrites the slabs it
    // touches; forwardInto leaves inputTiles()/outputTiles() caching the
    // transformed activations of x.
    // -----------------------------------------------------------------

    /**
     * y = winograd_conv(x, W); caches X and Y tiles in the plan.
     * Executes under config(): a sparse fp32 config routes through the
     * zero-skipping kernels (bitwise identical output, Xt still
     * cached); a half policy stores the transformed activations in 16
     * bits — the fp32 Xt slab is then NOT populated (inputCached()
     * stays false) and callers needing input tiles must scatterInput.
     */
    void forwardInto(const Tensor &x, const WinoWeights &W, Tensor &y);
    /** dx from dy: transformGradOutput + backwardDataFromCachedInto. */
    void backwardDataInto(const Tensor &dy, const WinoWeights &W,
                          Tensor &dx);
    /** dW (assigned, not accumulated) from x and dy: scatterInput +
     *  transformGradOutput + gradWeightsFromCachedInto. */
    void gradWeightsInto(const Tensor &x, const Tensor &dy,
                         WinoWeights &dW);

    // -----------------------------------------------------------------
    // Fused tile-strip forward (§4.11): transform -> per-(K,C) panel
    // accumulation -> inverse transform run per L2-sized strip of the
    // tile grid, touching only per-worker strip scratch — the
    // Xt/Yt slabs are never acquired. Bitwise identical to the staged
    // forward at every ISA level and for any thread count. Leaves the
    // plan's tile caches invalid (there are no slab tiles to cache);
    // callers needing inputTiles()/outputTiles() must use the staged
    // path.
    // -----------------------------------------------------------------

    /**
     * Resolve the captured config().fused for this plan. Pass
     * preserveTileCaches = true when the caller will later read the
     * plan's tile caches (e.g. a train-mode layer forward): Auto then
     * refuses to fuse; only an explicit FusedMode::On overrides it.
     */
    bool shouldFuse(bool preserveTileCaches) const;

    /** y = winograd_conv(x, W) per cache-resident tile strip. */
    void forwardFusedInto(const Tensor &x, const WinoWeights &W,
                          Tensor &y);

    /** Tiles per strip (multiple of mk::kTilePanel). */
    int stripTiles() const { return stripT; }
    /** Strips per image: ceil(tiles / stripTiles()). */
    int stripCount() const
    {
        return (grid.tiles() + stripT - 1) / stripT;
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
    /**
     * Per-worker strip scratch: one input-side (fp32 or 16-bit) and one
     * output-side tile set of stripT tiles, batch dimension 1. Slots
     * are created lazily (first fused call at a given concurrency warms
     * the pool) and kept for the plan's lifetime, so fused steady state
     * allocates nothing.
     */
    struct RangeScratch
    {
        WinoTiles in;  ///< [a²][I][1][stripT]
        WinoTiles out; ///< [a²][J][1][stripT]
        HalfTiles inHalf; ///< 16-bit in-side (half policies only)
        ActMask mask;     ///< strip-local zero mask (sparse policies)
        CompactScratch compact; ///< zero-skipping step buffers
    };

    /** The plan-owned slabs, as bits of a set. */
    enum Slab : unsigned { kXt = 1, kYt = 2, kDYt = 4, kDXt = 8, kXh = 16,
                           kMask = 32 };
    /** The slabs a staged forward under config() writes. */
    unsigned forwardSlabs() const;
    /** Bytes of the slab set `slabs` over batch x tiles lanes: the
     *  plan's slabs (nb x grid.tiles()) or one strip slot (1 x stripT). */
    std::size_t slabBytes(unsigned slabs, int batch, int tiles) const;
    /**
     * Size the slabs of `use` not yet held. Before the first sizing,
     * the working set of `mode` — every slab of the stage sequence
     * `use` belongs to — is checked against the workspace budget.
     */
    void acquire(unsigned use, unsigned mode);
    /** ws::checkBudget naming this plan and `what` in the message. */
    void checkBudget(std::size_t bytes, const char *what) const;

    std::unique_ptr<RangeScratch> newScratch() const;
    RangeScratch *acquireScratch();
    void releaseScratch(RangeScratch *s);
    void ensureScratch(int n);

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
    /** transformGradOutput ran and no traffic counter has its bytes. */
    bool gradXformUncounted = false;

    int stripT = 0; ///< tiles per fused strip (multiple of kTilePanel)
    /** Exact in-bounds input-gather elements per (image, channel)
     *  plane: sum over tiles of the a x a window's overlap with the
     *  plane. Used by the measured-traffic counters. */
    std::size_t gatherElemsA = 0;

    std::vector<std::unique_ptr<RangeScratch>> stripSlots;
    std::vector<RangeScratch *> stripFree; ///< guarded by stripMu
    std::mutex stripMu;
};

/**
 * Where a layer's plans come from.
 *
 * Plans are exclusive while leased (a WinoPlan is not reentrant), so
 * the interface moves ownership both ways: acquirePlan() hands the
 * caller a plan matching the configuration — a cached one when the
 * source holds a match, a freshly built one otherwise — and
 * releasePlan() parks a displaced plan for future reuse instead of
 * destroying it. A re-issued plan always comes back with its tile
 * caches invalidated (they describe activations of an earlier lease).
 *
 * Every nn::ConvLayer owns a small PlanLru by default; a serving
 * engine can re-point layers at a shared, thread-safe source
 * (serve::PlanCache) so concurrent model instances draw from one pool.
 */
class PlanSource
{
  public:
    virtual ~PlanSource() = default;

    /** Lease a plan covering the configuration (cached or new). */
    virtual std::unique_ptr<WinoPlan>
    acquirePlan(const WinogradAlgo &algo, int batch, int inCh,
                int outCh, int h, int w) = 0;

    /**
     * Descriptor route of the same lease: a WinoPlan binds the
     * unit-stride "same" geometry, so the spec must satisfy
     * samePadded(). This is the spelling layers and the serving engine
     * use, so the descriptor — not loose ints — carries the cache key.
     */
    std::unique_ptr<WinoPlan>
    acquirePlan(const ConvSpec &spec, const WinogradAlgo &algo)
    {
        winomc_assert(spec.samePadded(),
                      "WinoPlan lease needs a stride-1 same-padded "
                      "spec; got ", spec.key());
        return acquirePlan(algo, spec.batch, spec.inCh, spec.outCh,
                           spec.h, spec.w);
    }

    /** Park a displaced plan for reuse. null is accepted and ignored,
     *  so callers can unconditionally hand back `std::move(slot)`. */
    virtual void releasePlan(std::unique_ptr<WinoPlan> plan) = 0;
};

/**
 * Small MRU-ordered plan pool — the default PlanSource of every
 * Winograd layer, and the fix for shape-churn allocation thrash:
 * alternating batch shapes (A/B/A/B serving traffic) used to rebuild
 * the layer plan on every flip, bouncing multi-MB slab sets off the
 * workspace pool; parking displaced plans here makes any rotation
 * over up to `capacity` shapes allocation-free after one warm-up of
 * each shape. Not thread-safe (per-layer, like the layer itself);
 * eviction destroys the least-recently-used plan, returning its slabs
 * to the workspace pool.
 */
class PlanLru : public PlanSource
{
  public:
    static constexpr int kDefaultCapacity = 4;

    explicit PlanLru(int capacity = kDefaultCapacity);

    std::unique_ptr<WinoPlan> acquirePlan(const WinogradAlgo &algo,
                                          int batch, int inCh, int outCh,
                                          int h, int w) override;
    void releasePlan(std::unique_ptr<WinoPlan> plan) override;

    /** Parked plans (excludes any currently leased). */
    int size() const { return int(pool.size()); }
    int capacity() const { return cap; }
    /** Destroy every parked plan (slabs return to the workspace). */
    void clear() { pool.clear(); }

  private:
    int cap;
    std::vector<std::unique_ptr<WinoPlan>> pool; ///< MRU first
};

// ---------------------------------------------------------------------
// DWM-style decomposition (DESIGN.md §4.14): a convolution with kernel
// taps beyond 3 and/or stride beyond 1 is rewritten as a SUM of small
// 3x3 stride-1 "same" convolutions over gathered input views — each
// term runs through the ordinary F(m,3) staged/fused strip pipelines,
// so every geometry the terms cover inherits the fast path (and its
// bitwise thread-invariance) instead of falling back to direct.
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
 * Owns one inner WinoPlan shared by every term — all terms convolve
 * the same (batch, inCh -> outCh, outH+2, outW+2) gathered view, where
 * the +2 border absorbs the inner pipeline's "same" zero padding (the
 * shifted views carry real data where the inner padding would
 * otherwise clip it; the border rows of each term's output are
 * inner-padding artifacts and are cropped by the accumulation). Terms
 * execute serially in term-list order and accumulate row-by-row with
 * the fixed-chain axpy kernel, so results are bitwise identical for
 * any thread count and for staged vs fused inner execution.
 *
 * Steady state allocates nothing: the gather/accumulate tensors, the
 * per-term transformed weights, and the inner plan slabs all persist
 * for the plan's lifetime. Like WinoPlan, not reentrant.
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

    /** Plan-owned bytes: inner plan slabs + gather/accumulate maps +
     *  per-term Winograd weights. */
    std::size_t workspaceBytes() const;

    /** Split spatial weights (J, I, kh, kw) into per-term transformed
     *  unit weights. Call once, and again whenever weights change. */
    void setWeights(const Tensor &w);

    /** y = conv(x) as the ordered sum of the decomposition terms. */
    void forwardInto(const Tensor &x, Tensor &y);

  private:
    ConvSpec sp;
    const WinogradAlgo &alg;
    std::vector<DecompTerm> units;
    std::vector<WinoWeights> unitW; ///< one transformed set per term
    Tensor kerScratch; ///< (J, I, 3, 3) spatial unit-kernel staging
    Tensor xGather;    ///< (B, I, outH+2, outW+2) strided view
    Tensor yTerm;      ///< (B, J, outH+2, outW+2) term output
    std::unique_ptr<WinoPlan> inner;
    bool haveWeights = false;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_PLAN_HH
