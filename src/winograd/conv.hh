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
// The forward stages also run on a tile range (DESIGN.md §4.11): the
// whole batch by default, or a run of tiles that may span images into
// the first lanes of a smaller tile set, which is how WinoPlan streams
// a large forward through cache-sized scratch. Every tile's operations
// are the same wherever its lane sits, so any range is bitwise the
// whole batch at every ISA level.
//
// The input-side stages take the transformed activations in either
// storage, BasicWinoTiles<T> with T = float or std::uint16_t, and the
// storage precision `prec`: Prec::F32 for float tiles (the default),
// Prec::F16 or Prec::Bf16 for 16-bit tiles.
//
// Sparse fp32 execution is bitwise identical to dense: the activation
// mask and the weight compaction only ever drop terms whose product
// is an exact ±0, and the micro-kernels preserve the dense expression
// shapes (see mk::panelAccumGrouped). The 16-bit policies run the
// fp32 input transform and encode its result once, in conv.cc, to
// bf16/f16 (software round-to-nearest-even, the same bits at every ISA
// level); mk::panelAccumHalf decodes the rows exactly and accumulates
// in fp32, deterministic per ISA. Caveat: the ±0-drop argument needs
// finite inputs — inf/NaN activations can differ (0 * inf), matching
// the documented error-bound contract.
// ---------------------------------------------------------------------

/**
 * A run of a batch's tiles, numbered flat (tile t of image b is
 * b * tiles + t): tiles [first, first + count) — count < 0 means
 * through the last — held in lanes [lane, lane + count) of a tile set,
 * whose (batch x tiles) rows are numbered the same way. `lane` starts
 * a plane of that set (a multiple of its tiles()). The default is the
 * whole batch in a tile set of its own shape.
 */
struct TileRange
{
    int first = 0;
    int count = -1;
    int lane = 0;
};

/**
 * Input x (B, I, H, W) -> Winograd-domain tiles X = B^T x_patch B, with
 * implicit "same" zero padding, for the tiles of `range`. With a mask
 * (shaped like out), also rebuilds the per-panel activation zero mask
 * the sparse element-wise products read: each plane region of the
 * range is cleared by its single writer. A 16-bit destination's mask is
 * built from the encoded panels.
 */
template <class T>
void transformInputInto(const Tensor &x, const WinogradAlgo &algo,
                        BasicWinoTiles<T> &out, ActMask *mask = nullptr,
                        Prec prec = Prec::F32, TileRange range = {});
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
 * fp32, over lanes [0, lanes) of X and Y (lanes < 0: all of them). A
 * non-null mask (from transformInputInto) enables zero-skipping:
 * weight-zero and mask-zero rows are compacted away.
 */
template <class T>
void elementwiseForwardInto(const BasicWinoTiles<T> &X,
                            const WinoWeights &W, WinoTiles &Y,
                            int uv0 = 0, int uv1 = -1,
                            const ActMask *mask = nullptr,
                            Prec prec = Prec::F32, int lanes = -1);
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
/** Inverse-transform the tiles of `range` from Y into the pre-shaped
 *  y, whose spatial size it takes. */
void inverseTransformInto(const WinoTiles &Y, const WinogradAlgo &algo,
                          Tensor &y, TileRange range = {});
void inverseTransformAdjointInto(const Tensor &dy,
                                 const WinogradAlgo &algo, WinoTiles &dY);

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
