#include "nn/conv_layer.hh"

#include "common/metrics.hh"
#include "winograd/microkernel.hh"

namespace winomc::nn {

ConvLayer::ConvLayer(int in_ch, int out_ch, int r_, ConvMode mode,
                     const WinogradAlgo &algo_, Rng &rng)
    : inCh(in_ch), outCh(out_ch), r(r_), kh(r_), kw(r_), sH(1), sW(1),
      convMode(mode), alg(&algo_), w(out_ch, in_ch, r_, r_)
{
    winomc_assert(r_ % 2 == 1, "ConvLayer needs odd filter size");
    winomc_assert(mode != ConvMode::Auto,
                  "Auto layers carry no algorithm hint; use the "
                  "geometry constructor");
    if (mode != ConvMode::Direct) {
        winomc_assert(alg->r == r_, "algorithm r=", alg->r,
                      " mismatches layer r=", r_);
    }
    w.fillKaiming(rng);
    if (mode != ConvMode::Direct)
        W = transformWeights(w, *alg);
}

ConvLayer::ConvLayer(int in_ch, int out_ch, int kernel_h, int kernel_w,
                     int stride_h, int stride_w, Rng &rng)
    : inCh(in_ch), outCh(out_ch),
      r(kernel_h == kernel_w ? kernel_h : 0), kh(kernel_h),
      kw(kernel_w), sH(stride_h), sW(stride_w),
      convMode(ConvMode::Auto), alg(nullptr),
      w(out_ch, in_ch, kernel_h, kernel_w)
{
    winomc_assert(kernel_h >= 1 && kernel_w >= 1 && stride_h >= 1 &&
                      stride_w >= 1,
                  "bad Auto conv geometry: kernel ", kernel_h, "x",
                  kernel_w, " stride ", stride_h, "x", stride_w);
    w.fillKaiming(rng);
}

void
ConvLayer::setPlanSource(PlanPool *src)
{
    if (src == planSrc)
        return;
    planPool().park(std::move(execPlan));
    planSrc = src;
}

double
ConvLayer::pruneWinogradWeights(double sparsity)
{
    winomc_assert(convMode == ConvMode::WinogradLayer,
                  "pruneWinogradWeights needs WinogradLayer mode: only "
                  "there are the parameters the Winograd-domain slab "
                  "itself");
    winomc_assert(!sharedW,
                  "cannot prune shared frozen Winograd weights");
    pruneMask = std::make_unique<quant::PruneMask>(
        quant::magnitudePrune(W, sparsity));
    pruneMask->apply(W);
    if (metrics::enabled())
        metrics::gaugeSet("quant.prune.weight_sparsity",
                          pruneMask->sparsity());
    return pruneMask->sparsity();
}

void
ConvLayer::shareWinoWeights(std::shared_ptr<const WinoWeights> shared)
{
    if (shared) {
        winomc_assert(convMode == ConvMode::WinogradSpatial ||
                          convMode == ConvMode::WinogradLayer,
                      "shareWinoWeights needs a manual Winograd mode");
        winomc_assert(shared->alphaEdge() == alg->alpha &&
                          shared->outChannels() == outCh &&
                          shared->inChannels() == inCh,
                      "shared Winograd weights mismatch the layer: got ",
                      shared->alphaEdge(), "/", shared->outChannels(),
                      "/", shared->inChannels(), ", want ", alg->alpha,
                      "/", outCh, "/", inCh);
    }
    sharedW = std::move(shared);
}

ConvSpec
ConvLayer::autoSpec(const Tensor &x) const
{
    ConvSpec s{};
    s.name = "auto";
    s.batch = x.n();
    s.inCh = inCh;
    s.outCh = outCh;
    s.h = x.h();
    s.w = x.w();
    s.r = (kh == kw) ? kh : 0;
    s.kh = kh;
    s.kw = kw;
    s.strideH = sH;
    s.strideW = sW;
    return s;
}

void
ConvLayer::ensureChoice(const ConvSpec &spec)
{
    if (haveChoice && tunedB == spec.batch && tunedH == spec.h &&
        tunedW == spec.w)
        return;
    const tune::AlgoChoice next = tune::selectAlgorithm(spec);
    const bool algoChanged =
        !haveChoice || next.kind != choice.kind || next.m != choice.m;
    choice = next;
    haveChoice = true;
    tunedB = spec.batch;
    tunedH = spec.h;
    tunedW = spec.w;
    if (!algoChanged)
        return;
    // (Re)bind the algorithm. State of the losing algorithms is kept —
    // a shape flip back needs only the stale-flag refresh, not a
    // rebuild.
    switch (choice.kind) {
      case tune::AlgoKind::Direct:
        alg = nullptr;
        break;
      case tune::AlgoKind::Winograd:
        alg = &algoForTile(choice.m);
        break;
      case tune::AlgoKind::Decomposed:
        alg = &algoForTile(choice.m);
        decompWeightsDirty = true;
        break;
    }
}

void
ConvLayer::refreshAutoW()
{
    const int s = autoSlot(alg->m);
    if (autoW[size_t(s)].size() == 0)
        autoW[size_t(s)] = transformWeights(w, *alg);
    else if (autoWStale[size_t(s)])
        transformWeightsInto(w, *alg, autoW[size_t(s)]);
    autoWStale[size_t(s)] = false;
}

Tensor
ConvLayer::winogradForwardBody(const Tensor &x, bool train)
{
    winomc_assert(alg, "Winograd forward without a bound algorithm");
    planPool().lease(execPlan, *alg, x.n(), inCh, outCh, x.h(), x.w());
    Tensor y(x.n(), outCh, x.h(), x.w());
    // A train-mode forward keeps the plan's tiles for the gradient
    // products; an eval forward lets the plan split the batch into
    // cache-sized tile ranges when it is larger than one.
    execPlan->forwardInto(x, effectiveW(), y, train);
    // A half-precision forward leaves the fp32 input-tile cache
    // unpopulated; backward then rebuilds it from the raw activations.
    if (train && !execPlan->inputCached())
        cachedX = x;
    return y;
}

Tensor
ConvLayer::forwardAuto(const Tensor &x, bool train)
{
    const ConvSpec spec = autoSpec(x);
    ensureChoice(spec);
    switch (choice.kind) {
      case tune::AlgoKind::Direct:
        return forwardDirect(x, train);
      case tune::AlgoKind::Winograd:
        refreshAutoW();
        return winogradForwardBody(x, train);
      case tune::AlgoKind::Decomposed: {
        if (!decompPlan || !decompPlan->matches(spec, *alg)) {
            decompPlan = std::make_unique<WinoDecompPlan>(spec, *alg);
            decompWeightsDirty = true;
        }
        if (decompWeightsDirty) {
            decompPlan->setWeights(w);
            decompWeightsDirty = false;
        }
        if (train)
            cachedX = x;
        Tensor y(x.n(), outCh, spec.outH(), spec.outW());
        decompPlan->forwardInto(x, y);
        return y;
      }
    }
    winomc_assert(false, "unreachable conv algorithm kind");
    return Tensor();
}

Tensor
ConvLayer::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() == inCh, "ConvLayer expected ", inCh,
                  " channels, got ", x.c());
    winomc_assert(!(train && sharedW),
                  "train-mode forward on a ConvLayer with shared frozen "
                  "Winograd weights (inference-only)");
    lastH = x.h();
    lastW = x.w();
    trainCached = train;

    if (convMode == ConvMode::Auto)
        return forwardAuto(x, train);

    if (convMode == ConvMode::Direct)
        return forwardDirect(x, train);
    return winogradForwardBody(x, train);
}

Tensor
ConvLayer::forwardDirect(const Tensor &x, bool train)
{
    if (train)
        cachedX = x;
    return directConvForward(x, w, sH, sW, (kh - 1) / 2, (kw - 1) / 2);
}

Tensor
ConvLayer::backward(const Tensor &dy)
{
    winomc_assert(trainCached,
                  "ConvLayer::backward without a train-mode forward: "
                  "the cached activations are stale");
    haveGrad = true;

    // Auto layers whose fast path is direct or decomposed take direct
    // gradients (the decomposition shares the spatial parameters, so
    // the adjoint of the direct convolution IS its adjoint); the
    // direct kernels bind stride-1 odd square "same" geometry.
    const bool directGrads =
        convMode == ConvMode::Direct ||
        (convMode == ConvMode::Auto &&
         choice.kind != tune::AlgoKind::Winograd);
    if (directGrads) {
        if (convMode == ConvMode::Auto) {
            winomc_assert(sH == 1 && sW == 1 && kh == kw && kh % 2 == 1,
                          "training through a strided or rectangular "
                          "Auto conv is unsupported (kernel ", kh, "x",
                          kw, ", stride ", sH, "x", sW, ")");
        }
        if (dw.size() == 0)
            dw = Tensor(outCh, inCh, kh, kw);
        dw += directConvGradWeights(cachedX, dy, kh);
        return directConvBackwardData(dy, w);
    }

    // A half-precision forward bypassed the fp32 input-tile slab, so
    // the cache the weight-gradient product needs does not exist yet —
    // rebuild it from the cached activations (backward is full fp32).
    if (!execPlan->inputCached())
        execPlan->scatterInput(cachedX);
    execPlan->transformGradOutput(dy);
    if (gScratch.alphaEdge() != alg->alpha)
        gScratch = WinoWeights(alg->alpha, outCh, inCh);
    execPlan->gradWeightsFromCachedInto(gScratch);
    if (convMode == ConvMode::WinogradLayer) {
        // Pinned pruned coefficients take exactly-zero gradient, so
        // they stay dead through the SGD update.
        if (pruneMask)
            pruneMask->apply(gScratch);
        if (dW.size() == 0)
            dW = WinoWeights(alg->alpha, outCh, inCh);
        dW += gScratch;
    } else {
        // Chain through W = G w G^T back to the spatial parameters.
        if (dwScratch.size() == 0)
            dwScratch = Tensor(outCh, inCh, kh, kw);
        transformWeightsAdjointInto(gScratch, *alg, dwScratch);
        if (dw.size() == 0)
            dw = Tensor(outCh, inCh, kh, kw);
        dw += dwScratch;
    }
    // Both gradient products consume the one dYt transform above; the
    // backward-data GEMM then spans every batch x tiles lane at once.
    Tensor dx(dy.n(), inCh, lastH, lastW);
    execPlan->backwardDataFromCachedInto(effectiveW(), dx);
    return dx;
}

void
ConvLayer::step(float lr)
{
    winomc_assert(!sharedW,
                  "step() on a ConvLayer with shared frozen Winograd "
                  "weights (inference-only)");
    if (!haveGrad)
        return;
    haveGrad = false;
    const mk::MicroKernels &K = mk::kernels();
    switch (convMode) {
      case ConvMode::Direct:
        K.axpy(w.data(), -lr, dw.data(), std::int64_t(w.size()));
        dw.fill(0.0f);
        break;
      case ConvMode::WinogradSpatial:
        K.axpy(w.data(), -lr, dw.data(), std::int64_t(w.size()));
        dw.fill(0.0f);
        transformWeightsInto(w, *alg, W);
        break;
      case ConvMode::WinogradLayer:
        K.axpy(W.raw(), -lr, dW.raw(), std::int64_t(W.size()));
        dW.fill(0.0f);
        break;
      case ConvMode::Auto:
        K.axpy(w.data(), -lr, dw.data(), std::int64_t(w.size()));
        dw.fill(0.0f);
        // The fast paths' derived weights refresh lazily: the next
        // forward re-transforms (or re-splits) what it runs with.
        autoWStale.fill(true);
        decompWeightsDirty = true;
        break;
    }
}

const WinoTiles &
ConvLayer::lastOutputTiles() const
{
    winomc_assert(execPlan != nullptr,
                  "lastOutputTiles before any Winograd-mode forward");
    return execPlan->outputTiles();
}

size_t
ConvLayer::paramCount() const
{
    if (convMode == ConvMode::WinogradLayer)
        return W.size();
    return w.size();
}

std::string
ConvLayer::name() const
{
    switch (convMode) {
      case ConvMode::Direct:
        return "conv_direct";
      case ConvMode::WinogradSpatial:
        return "conv_wino_spatial";
      case ConvMode::WinogradLayer:
        return "conv_wino_layer";
      case ConvMode::Auto:
        return "conv_auto";
    }
    return "conv";
}

} // namespace winomc::nn
