/**
 * @file
 * Value-returning forms of the Winograd stages and pipelines, for tests
 * that compare whole results. Each stage form shapes a fresh
 * destination and runs the library's destination-passing kernel on it;
 * each one-shot pipeline runs a transient WinoPlan.
 */

#ifndef WINOMC_TESTS_EW_FORMS_HH
#define WINOMC_TESTS_EW_FORMS_HH

#include "winograd/conv.hh"
#include "winograd/plan.hh"

namespace winomc::test {

/** Input x (B, I, H, W) -> Winograd-domain tiles X = B^T x_patch B. */
inline WinoTiles
transformInput(const Tensor &x, const WinogradAlgo &algo)
{
    TileGrid grid(x.h(), x.w(), algo);
    WinoTiles out(algo.alpha, x.c(), x.n(), grid.tiles());
    transformInputInto(x, algo, out);
    return out;
}

/** Adjoint of transformInput: overlap-add dX into a (B, I, h, w) dx. */
inline Tensor
transformInputAdjoint(const WinoTiles &dX, const WinogradAlgo &algo, int h,
                      int w)
{
    Tensor dx(dX.batch(), dX.channels(), h, w);
    transformInputAdjointInto(dX, algo, dx);
    return dx;
}

/** Adjoint of transformWeights: dw = G^T dW G, (J, I, r, r). */
inline Tensor
transformWeightsAdjoint(const WinoWeights &dW, const WinogradAlgo &algo)
{
    Tensor dw(dW.outChannels(), dW.inChannels(), algo.r, algo.r);
    transformWeightsAdjointInto(dW, algo, dw);
    return dw;
}

/** Y tiles -> spatial output (B, J, h, w), cropping. */
inline Tensor
inverseTransform(const WinoTiles &Y, const WinogradAlgo &algo, int h, int w)
{
    Tensor y(Y.batch(), Y.channels(), h, w);
    inverseTransformInto(Y, algo, y);
    return y;
}

/** Adjoint of inverseTransform: dY = A dy_tile A^T per tile. */
inline WinoTiles
inverseTransformAdjoint(const Tensor &dy, const WinogradAlgo &algo)
{
    TileGrid grid(dy.h(), dy.w(), algo);
    WinoTiles dY(algo.alpha, dy.c(), dy.n(), grid.tiles());
    inverseTransformAdjointInto(dy, algo, dY);
    return dY;
}

inline WinoTiles
elementwiseForward(const WinoTiles &X, const WinoWeights &W)
{
    WinoTiles Y(X.alphaEdge(), W.outChannels(), X.batch(), X.tiles());
    elementwiseForwardInto(X, W, Y);
    return Y;
}

inline WinoTiles
elementwiseBackwardData(const WinoTiles &dY, const WinoWeights &W)
{
    WinoTiles dX(dY.alphaEdge(), W.inChannels(), dY.batch(), dY.tiles());
    elementwiseBackwardDataInto(dY, W, dX);
    return dX;
}

inline WinoWeights
elementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X)
{
    WinoWeights dW(X.alphaEdge(), dY.channels(), X.channels());
    elementwiseGradWeightsInto(dY, X, dW);
    return dW;
}

/** y = winograd_conv(x, W); W already in the Winograd domain. */
inline Tensor
winogradForward(const Tensor &x, const WinoWeights &W,
                const WinogradAlgo &algo)
{
    WinoPlan plan(algo, x.n(), W.inChannels(), W.outChannels(), x.h(),
                  x.w());
    Tensor y(x.n(), W.outChannels(), x.h(), x.w());
    // Transient plan, nobody reads its tile caches afterwards.
    plan.forwardInto(x, W, y, false);
    return y;
}

/** dx from dy through the Winograd pipeline adjoint; "same" conv, so
 *  dy and dx share the spatial size (h, w). */
inline Tensor
winogradBackwardData(const Tensor &dy, const WinoWeights &W,
                     const WinogradAlgo &algo, int h, int w)
{
    winomc_assert(dy.h() == h && dy.w() == w,
                  "winogradBackwardData: \"same\" conv implies dy and dx "
                  "share spatial size");
    WinoPlan plan(algo, dy.n(), W.inChannels(), W.outChannels(), h, w);
    Tensor dx(dy.n(), W.inChannels(), h, w);
    plan.backwardDataInto(dy, W, dx);
    return dx;
}

/** Winograd-layer weight gradient dW from x and dy. */
inline WinoWeights
winogradGradWeights(const Tensor &x, const Tensor &dy,
                    const WinogradAlgo &algo)
{
    WinoPlan plan(algo, x.n(), x.c(), dy.c(), x.h(), x.w());
    WinoWeights dW(algo.alpha, dy.c(), x.c());
    plan.gradWeightsInto(x, dy, dW);
    return dW;
}

} // namespace winomc::test

#endif // WINOMC_TESTS_EW_FORMS_HH
