/**
 * @file
 * Shape descriptor of one convolution layer.
 *
 * Historically this described only the paper's unit of evaluation — a
 * stride-1 "same" convolution — and the header claimed square feature
 * maps and filters even though `h`/`w` were already independent. The
 * descriptor is now general: feature maps may be rectangular, kernels
 * may be rectangular (`kh`/`kw` override the square edge `r`), and
 * stride/padding are explicit. Every default reproduces the old
 * behaviour, so the paper specs (`{name, B, I, J, H, W, r}` aggregates)
 * keep meaning exactly what they did: stride 1, "same" zero padding,
 * square r x r filters.
 */

#ifndef WINOMC_WINOGRAD_CONV_SPEC_HH
#define WINOMC_WINOGRAD_CONV_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>

namespace winomc {

/**
 * One convolution layer:
 *   input  (batch, inCh, h, w)
 *   weight (outCh, inCh, kernelH(), kernelW())
 *   output (batch, outCh, outH(), outW())
 */
struct ConvSpec
{
    std::string name;
    int batch;   ///< B
    int inCh;    ///< I
    int outCh;   ///< J
    int h;       ///< input feature-map height
    int w;       ///< input feature-map width
    int r;       ///< square filter edge (odd); superseded by kh/kw != 0

    // Generalized geometry. The defaults reproduce the legacy contract
    // (square r x r filter, stride 1, "same" padding), so existing
    // seven-field aggregate initializers are unchanged in meaning.
    int kh = 0;       ///< filter height; 0 = use `r`
    int kw = 0;       ///< filter width;  0 = use `r`
    int strideH = 1;  ///< vertical stride (>= 1)
    int strideW = 1;  ///< horizontal stride (>= 1)
    int padH = -1;    ///< top/bottom zero padding; -1 = (kernelH()-1)/2
    int padW = -1;    ///< left/right zero padding; -1 = (kernelW()-1)/2

    int kernelH() const { return kh > 0 ? kh : r; }
    int kernelW() const { return kw > 0 ? kw : r; }
    int padHEff() const { return padH >= 0 ? padH : (kernelH() - 1) / 2; }
    int padWEff() const { return padW >= 0 ? padW : (kernelW() - 1) / 2; }

    /** Output height: floor((h + 2*pad - k) / stride) + 1. */
    int outH() const
    {
        return (h + 2 * padHEff() - kernelH()) / strideH + 1;
    }
    /** Output width (same formula along w). */
    int outW() const
    {
        return (w + 2 * padWEff() - kernelW()) / strideW + 1;
    }

    bool unitStride() const { return strideH == 1 && strideW == 1; }
    bool squareKernel() const { return kernelH() == kernelW(); }
    /** The legacy contract: stride 1 and output size == input size. */
    bool samePadded() const
    {
        return unitStride() && outH() == h && outW() == w;
    }

    /**
     * Canonical shape identity (name excluded): the key of the tuning
     * cache (winograd/tuner.hh) and of descriptor-keyed plan/weight
     * lookups. Single token, no '.' (metric names split on dots).
     */
    std::string
    key() const
    {
        const std::pair<const char *, int> parts[] = {
            {"b", batch},       {"_c", inCh},      {"x", outCh},
            {"_in", h},         {"x", w},          {"_k", kernelH()},
            {"x", kernelW()},   {"_s", strideH},   {"x", strideW},
            {"_p", padHEff()},  {"x", padWEff()}};
        std::string s;
        for (const auto &[tag, v] : parts)
            s.append(tag).append(std::to_string(v));
        return s;
    }

    /** Spatial-domain weight element count I*J*kernelH*kernelW. */
    uint64_t
    weightElems() const
    {
        return uint64_t(inCh) * outCh * kernelH() * kernelW();
    }
    /** Input feature-map element count B*I*H*W. */
    uint64_t
    inputElems() const
    {
        return uint64_t(batch) * inCh * h * w;
    }
    /** Output feature-map element count B*J*outH*outW. */
    uint64_t
    outputElems() const
    {
        return uint64_t(batch) * outCh * outH() * outW();
    }
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_CONV_SPEC_HH
