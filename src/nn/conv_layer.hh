/**
 * @file
 * Trainable convolution layer with four execution modes:
 *
 *  - Direct:        spatial weights, direct convolution;
 *  - WinogradSpatial: spatial weights, executed through the Winograd
 *                   pipeline (Fig 2(a)) - gradients map back through the
 *                   weight-transform adjoint;
 *  - WinogradLayer: the paper's Winograd layer (Fig 2(b), [29]) - the
 *                   parameters ARE the Winograd-domain weights W and are
 *                   updated there directly;
 *  - Auto:          spatial weights with generalized geometry (any
 *                   kernel size, stride, rectangular filters); the
 *                   execution algorithm - direct, plain F(m,3), or the
 *                   DWM decomposition into F(m,3) units - is picked per
 *                   shape by the winograd/tuner.hh auto-tuner
 *                   (WINOMC_TUNE), no manual mode hint needed.
 *
 * The three manual modes compute the same function at initialization;
 * WinogradLayer then evolves in a (slightly larger) parameter space.
 *
 * Winograd execution goes through a lazily-built WinoPlan (or
 * WinoDecompPlan) bound to the incoming shape: the plan owns every tile
 * slab and the layer keeps its gradient scratch, so steady-state
 * training steps allocate nothing.
 *
 * Training through an Auto layer is supported wherever the gradients
 * are defined on the fast path's geometry: stride-1 odd square kernels
 * (gradients run through the Winograd adjoints for 3x3, the direct
 * kernels for decomposed shapes). Strided or rectangular-kernel Auto
 * layers are inference-only and assert loudly in backward().
 */

#ifndef WINOMC_NN_CONV_LAYER_HH
#define WINOMC_NN_CONV_LAYER_HH

#include <array>
#include <memory>

#include "nn/module.hh"
#include "quant/prune.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/plan.hh"
#include "winograd/tuner.hh"

namespace winomc::nn {

enum class ConvMode { Direct, WinogradSpatial, WinogradLayer, Auto };

class ConvLayer : public Module
{
  public:
    /**
     * Manual-mode constructor (square odd r, stride 1, "same").
     * @param in_ch, out_ch  channels
     * @param r              odd filter edge
     * @param mode           execution / weight-domain mode (not Auto —
     *                       Auto layers carry no algorithm hint; use
     *                       the geometry constructor)
     * @param algo           Winograd algorithm (ignored for Direct)
     */
    ConvLayer(int in_ch, int out_ch, int r, ConvMode mode,
              const WinogradAlgo &algo, Rng &rng);

    /**
     * Auto-mode constructor: generalized geometry, tuner-selected
     * execution. Padding is "same"-style ((k-1)/2 per dimension);
     * output is (H + 2*pad - kh)/strideH + 1 on each axis.
     */
    ConvLayer(int in_ch, int out_ch, int kernel_h, int kernel_w,
              int stride_h, int stride_w, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &dy) override;
    void step(float lr) override;
    size_t paramCount() const override;
    std::string name() const override;

    ConvMode mode() const { return convMode; }
    /** Input channels forward() accepts. */
    int inChannels() const { return inCh; }
    /** Spatial weights (valid in every mode but WinogradLayer). */
    const Tensor &spatialWeights() const { return w; }
    /** Winograd-domain weights (valid in Winograd modes); the shared
     *  slab when shareWinoWeights() is in effect. */
    const WinoWeights &winoWeights() const { return effectiveW(); }
    /** Cached pre-activation Winograd tiles from the last forward (for
     *  the activation-prediction experiments). */
    const WinoTiles &lastOutputTiles() const;
    /** The current execution plan (null before the first Winograd-mode
     *  forward). */
    const WinoPlan *plan() const { return execPlan.get(); }
    /** The current decomposed plan (Auto mode, null unless the tuner
     *  picked the decomposition). */
    const WinoDecompPlan *decomposedPlan() const
    {
        return decompPlan.get();
    }
    /** The tuner's decision for the last Auto-mode shape (valid once a
     *  forward ran). */
    const tune::AlgoChoice &autoChoice() const { return choice; }

    /**
     * Lease plans from an external pool — e.g. the serving engine's
     * shared serve::PlanCache — instead of the layer's own. The
     * current plan (if any) is handed back to the pool it came from
     * first. Pass nullptr to restore the layer's own pool. The pool
     * must outlive the layer (or a final setPlanSource(nullptr)).
     */
    void setPlanSource(PlanPool *src);

    /**
     * Winograd-domain magnitude pruning (WinogradLayer mode only — the
     * parameters must live in the Winograd domain): zeroes the
     * smallest-|W| fraction of the transformed weights and pins them.
     * The per-coefficient mask is kept and applied to the Winograd-
     * domain weight gradient in backward(), so pruned coefficients
     * receive exactly-zero updates and stay dead through any number of
     * further SGD steps. Returns the achieved sparsity.
     */
    double pruneWinogradWeights(double sparsity);

    /** The active prune mask (null until pruneWinogradWeights ran). */
    const quant::PruneMask *winoPruneMask() const
    {
        return pruneMask.get();
    }

    /**
     * Adopt shared, frozen Winograd-domain weights (manual Winograd
     * modes only): the layer serves forwards from *shared instead of
     * its own W, so replicas of one model skip the per-replica weight
     * transform entirely (the serving plan cache hands every replica
     * the same transformed slab). The layer becomes inference-only —
     * step() on a shared layer dies. Pass nullptr to return to the
     * layer-owned weights.
     */
    void shareWinoWeights(std::shared_ptr<const WinoWeights> shared);

  private:
    /** The incoming shape as a generalized descriptor (Auto mode). */
    ConvSpec autoSpec(const Tensor &x) const;
    /** Consult the tuner and (re)bind the chosen algorithm's state. */
    void ensureChoice(const ConvSpec &spec);
    /** The plain-Winograd forward body shared by the manual Winograd
     *  modes and Auto-with-Winograd. */
    Tensor winogradForwardBody(const Tensor &x, bool train);
    /** The direct forward shared by Direct mode and Auto-with-direct
     *  ("same"-style pads (k - 1) / 2). */
    Tensor forwardDirect(const Tensor &x, bool train);
    Tensor forwardAuto(const Tensor &x, bool train);

    /** The active plan pool (external override or the own pool). */
    PlanPool &planPool() { return planSrc ? *planSrc : ownPool; }

    /** Winograd-domain weights to execute with (shared, the bound
     *  tile size's in Auto, or own). */
    const WinoWeights &effectiveW() const
    {
        if (sharedW)
            return *sharedW;
        return convMode == ConvMode::Auto && alg ? autoW[autoSlot(alg->m)]
                                                 : W;
    }
    /** autoW's slot of tile size m (2, 4 or 6). */
    static int autoSlot(int m) { return m / 2 - 1; }
    /** Auto: bring the bound tile size's weights up to date with w. */
    void refreshAutoW();

    int inCh, outCh, r;
    int kh, kw;     ///< kernel extents (== r in the manual modes)
    int sH, sW;     ///< strides (1 in the manual modes)
    ConvMode convMode;
    /** Execution algorithm: fixed in the manual Winograd modes, tuner-
     *  bound in Auto (null for Direct and before the first forward). */
    const WinogradAlgo *alg;

    // Each gradient is allocated by the first backward that uses it.
    Tensor w;       ///< spatial parameters (all modes but WinogradLayer)
    Tensor dw;      ///< spatial gradient (all modes but WinogradLayer)
    WinoWeights W;  ///< Winograd-domain parameters (Winograd execution)
    WinoWeights dW; ///< Winograd-domain gradient (WinogradLayer)
    bool haveGrad = false;

    std::unique_ptr<WinoPlan> execPlan; ///< shape-bound slabs + grid
    std::unique_ptr<WinoDecompPlan> decompPlan; ///< Auto decomposition
    PlanPool ownPool;            ///< parks displaced plans (shape churn)
    PlanPool *planSrc = nullptr; ///< external override, else ownPool
    std::shared_ptr<const WinoWeights> sharedW; ///< frozen shared weights
    WinoWeights gScratch; ///< Winograd weight-grad scratch (first backward)
    Tensor dwScratch;     ///< spatial weight-grad scratch (first backward)
    /** Auto: Winograd-domain weights per tile size ever bound, so a
     *  shape flip between tile sizes re-transforms nothing; a slot is
     *  stale after step() until its tile size is bound again. */
    std::array<WinoWeights, 3> autoW;
    std::array<bool, 3> autoWStale{};

    tune::AlgoChoice choice; ///< Auto: the tuner's decision
    bool haveChoice = false;
    bool decompWeightsDirty = true; ///< re-split weights before forward
    int tunedB = 0, tunedH = 0, tunedW = 0; ///< shape the choice binds

    /** Pinned-zero Winograd coefficients (pruneWinogradWeights). */
    std::unique_ptr<quant::PruneMask> pruneMask;

    Tensor cachedX;    ///< input (direct-gradient paths / half train)
    /** True iff the activations the backward pass needs were cached by
     *  a train-mode forward and not clobbered since. */
    bool trainCached = false;
    int lastH = 0, lastW = 0;
};

} // namespace winomc::nn

#endif // WINOMC_NN_CONV_LAYER_HH
