/**
 * @file
 * Winograd transformed convolution: forward, backward-data, and weight
 * gradient, for both weight domains the paper discusses:
 *
 *  - spatial weights (Fig 2(a)): parameters are w; W = G w G^T is
 *    recomputed from w and gradients map back via the transform adjoint;
 *  - the Winograd layer (Fig 2(b), reference [29]): parameters are W
 *    themselves and are updated directly in the Winograd domain.
 *
 * All gradients are exact adjoints of the forward linear maps, verified
 * against numerical differentiation in the tests. Backward-data through
 * the adjoint equals the textbook "convolve dy with flipped weights".
 */

#ifndef WINOMC_WINOGRAD_CONV_HH
#define WINOMC_WINOGRAD_CONV_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/lowprec.hh"
#include "winograd/tiling.hh"

namespace winomc {

/** Spatial weights (J, I, r, r) -> Winograd weights W = G w G^T. */
WinoWeights transformWeights(const Tensor &w, const WinogradAlgo &algo);

// ---------------------------------------------------------------------
// Destination-passing stage kernels
//
// One entry per stage of the pipeline: the input transform, the
// element-wise products of Equation (2) and the inverse transform,
// plus their adjoints. The caller owns the (pre-shaped) destination,
// so execution plans (winograd/plan.hh) can reuse workspace slabs
// across batches with zero steady-state allocation. The element-wise
// kernels zero-fill (forward, backward data) or assign (weight
// gradient) only the uv slices [uv0, uv1) they compute — uv1 < 0
// means alpha^2 — so the N_g groups of an MPT cluster (mpt/) each run
// the single-node kernel on their own slice of one shared destination.
// transformInputAdjointInto zero-fills each plane of dx (its
// overlap-add target) in the task that adds into it; the others fully
// assign. Results are bitwise identical for any thread count.
//
// The input-side stages take the transformed activations in either
// storage, BasicWinoTiles<T> with T = float or std::uint16_t, and the
// storage precision `prec`: Prec::F32 for float tiles (the default),
// Prec::F16 or Prec::Bf16 for 16-bit tiles.
// ---------------------------------------------------------------------

/**
 * Input x (B, I, H, W) -> Winograd-domain tiles X = B^T x_patch B, with
 * implicit "same" zero padding. With a mask (pre-shaped by the plan),
 * also rebuilds the per-panel activation zero mask the sparse
 * element-wise products read: each (channel, image) plane region is
 * cleared by its single writer. A 16-bit destination's mask is built
 * from the encoded panels.
 */
template <class T>
void transformInputInto(const Tensor &x, const WinogradAlgo &algo,
                        BasicWinoTiles<T> &out, ActMask *mask = nullptr,
                        Prec prec = Prec::F32);
/** Spatial size is taken from the pre-shaped dx. */
void transformInputAdjointInto(const WinoTiles &dX,
                               const WinogradAlgo &algo, Tensor &dx);
void transformWeightsInto(const Tensor &w, const WinogradAlgo &algo,
                          WinoWeights &out);
void transformWeightsAdjointInto(const WinoWeights &dW,
                                 const WinogradAlgo &algo, Tensor &dw);
/**
 * Element-wise dot products of Equation (2): per uv,
 * Y[uv] (J x BT) = W[uv] (J x I) * X[uv] (I x BT), accumulated in
 * fp32. A non-null mask (from transformInputInto) enables
 * zero-skipping: weight-zero and mask-zero rows are compacted away.
 */
template <class T>
void elementwiseForwardInto(const BasicWinoTiles<T> &X,
                            const WinoWeights &W, WinoTiles &Y,
                            int uv0 = 0, int uv1 = -1,
                            const ActMask *mask = nullptr,
                            Prec prec = Prec::F32);
/** Backward data: dX[uv] (I x BT) = W[uv]^T (I x J) * dY[uv] (J x BT). */
void elementwiseBackwardDataInto(const WinoTiles &dY,
                                 const WinoWeights &W, WinoTiles &dX,
                                 int uv0 = 0, int uv1 = -1);
/**
 * Winograd-domain weight gradient:
 * dW[uv] (J x I) = dY[uv] (J x BT) * X[uv]^T (BT x I).
 */
void elementwiseGradWeightsInto(const WinoTiles &dY, const WinoTiles &X,
                                WinoWeights &dW, int uv0 = 0,
                                int uv1 = -1);
/** Spatial size is taken from the pre-shaped y. */
void inverseTransformInto(const WinoTiles &Y, const WinogradAlgo &algo,
                          Tensor &y);
void inverseTransformAdjointInto(const Tensor &dy,
                                 const WinogradAlgo &algo, WinoTiles &dY);

// ---------------------------------------------------------------------
// Tile-range stage kernels (DESIGN.md §4.11)
//
// conv.cc keeps one body per stage. The staged kernels above run it
// under parallelFor on whole images — (image, channel) planes for the
// transforms, numbered channel-major so each uv plane of the tiles is
// walked in address order; (uv, row-block) tasks for the element-wise
// products — and the functions below run the same bodies serially on
// the tile range [t0, t0 + tcnt) of ONE image `b`, for WinoPlan's
// fused strip loop (the parallel unit, so these stay free of
// parallelFor work).
// Range scratch tiles are shaped (alpha, channels, 1, >= tcnt): tile
// t0 + l lives in lane l. Strips start on whole kTilePanel panels, so
// fused and staged execution issue the same per-element operations
// and agree bitwise at every ISA level by construction.
//
// Sparse fp32 execution is bitwise identical to dense: the activation
// mask and the weight compaction only ever drop terms whose product
// is an exact ±0, and the micro-kernels preserve the dense expression
// shapes (see mk::panelAccumGrouped). The 16-bit policies run the
// fp32 input transform and encode its result once, in conv.cc, to
// bf16/f16 (software round-to-nearest-even, the same bits at every ISA
// level); mk::panelAccumHalf decodes the rows exactly and accumulates
// in fp32, deterministic per ISA. Caveat: the ±0-drop argument needs finite inputs — inf/NaN
// activations can differ (0 * inf), matching the documented
// error-bound contract.
// ---------------------------------------------------------------------

/** Gather + input-transform the range of image b into Xs; with a mask
 *  (shaped like Xs), also rebuilds it. */
template <class T>
void transformInputRange(const Tensor &x, const WinogradAlgo &algo,
                         const TileGrid &grid, int b, int t0, int tcnt,
                         BasicWinoTiles<T> &Xs, ActMask *mask = nullptr,
                         Prec prec = Prec::F32);
/** Inverse-transform + store the range of Ys into image b of y. */
void inverseTransformRange(const WinoTiles &Ys, const WinogradAlgo &algo,
                           const TileGrid &grid, int b, int t0, int tcnt,
                           Tensor &y);

/**
 * Working buffers of the zero-skipping element-wise step: the
 * compacted activation rows and weights, the per-8-row-block survivor
 * counts, and the row liveness under the mask (one bit per row).
 * Grown on first use and reused, so a caller that passes the same
 * buffers to every range call (one per fused strip worker) stops
 * allocating after the first strip. Dense fp32 ranges leave them
 * untouched.
 */
struct CompactScratch
{
    std::vector<const float *> rows;
    std::vector<const std::uint16_t *> halfRows;
    std::vector<float> weights;
    std::vector<std::uint8_t> groups;
    std::vector<std::uint64_t> live;
};

/** Ys[uv] = W[uv] * Xs[uv] over lanes [0, kn), every uv; a non-null
 *  mask (from transformInputRange) enables zero-skipping. */
template <class T>
void elementwiseForwardRange(const BasicWinoTiles<T> &Xs,
                             const WinoWeights &W, int kn, WinoTiles &Ys,
                             const ActMask *mask, CompactScratch &scratch,
                             Prec prec = Prec::F32);

/** Reference direct convolution, "same", stride 1 (w: J, I, r, r, r
 *  odd): the general form below with pads (r - 1) / 2. */
Tensor directConvForward(const Tensor &x, const Tensor &w);

/** Direct backward data: dx = dy (*) flip(w), odd square w. */
Tensor directConvBackwardData(const Tensor &dy, const Tensor &w);

/** Direct weight gradient: dw[j,i] = sum_b dy[b,j] (*) x[b,i], odd r. */
Tensor directConvGradWeights(const Tensor &x, const Tensor &dy, int r);

/**
 * General direct convolution: arbitrary stride, explicit zero padding,
 * rectangular filters (w: J, I, kh, kw), output
 * (B, J, (H + 2*padH - kh)/strideH + 1, ...). Double-precision
 * accumulation per output element in a fixed (i, ky, kx) order, so
 * this, the "same" form and backward data are bitwise the same on
 * every ISA and thread count. It is the parity oracle of the DWM
 * decomposition tests and the path of Auto layers the tuner sends to
 * direct convolution.
 */
Tensor directConvForward(const Tensor &x, const Tensor &w, int strideH,
                         int strideW, int padH, int padW);

} // namespace winomc

#endif // WINOMC_WINOGRAD_CONV_HH
