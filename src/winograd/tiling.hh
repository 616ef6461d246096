/**
 * @file
 * Tiling geometry for Winograd convolution and the Winograd-domain tile
 * container.
 *
 * An H x W feature map convolved "same" (stride 1, pad (r-1)/2) with an
 * F(m,r) algorithm decomposes into ceil(H/m) x ceil(W/m) overlapping
 * input tiles of alpha x alpha (stride m), each producing an m x m patch
 * of the output.
 */

#ifndef WINOMC_WINOGRAD_TILING_HH
#define WINOMC_WINOGRAD_TILING_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "tensor/workspace.hh"
#include "winograd/algo.hh"

namespace winomc {

/** Tile grid geometry for one feature-map plane. */
struct TileGrid
{
    int h, w;        ///< spatial feature-map size (output == input, "same")
    int m;           ///< outputs per tile edge
    int alpha;       ///< input tile edge
    int pad;         ///< zero padding on each border, (r-1)/2
    int tilesH;      ///< ceil(h / m)
    int tilesW;      ///< ceil(w / m)

    TileGrid(int h, int w, const WinogradAlgo &algo);

    int tiles() const { return tilesH * tilesW; }
    /** Top-left input coordinate (may be negative: padding) of a tile. */
    int tileRow(int th) const { return th * m - pad; }
    int tileCol(int tw) const { return tw * m - pad; }
};

/**
 * Winograd-domain tiles for a batch of feature maps, stored as T: fp32
 * (WinoTiles) or 16-bit f16/bf16 bit patterns (HalfTiles, which the
 * microkernels decode to fp32 on load and accumulate in fp32).
 *
 * Layout: [uv][channel][batch][tile] with uv = u * alpha + v, so that the
 * element-wise dot product of Equation (2) is, per uv, a dense
 * (channels) x (batch * tiles) matrix. This mirrors the paper's Figure 3:
 * T^2 independent matrix multiplications.
 *
 * Storage is a pooled ws::Slab; a moved-from tile set has shape 0.
 */
template <class T>
class BasicWinoTiles
{
  public:
    BasicWinoTiles() = default;
    BasicWinoTiles(int alpha, int channels, int batch, int tiles)
    {
        reshape(alpha, channels, batch, tiles);
    }

    BasicWinoTiles(const BasicWinoTiles &) = default;
    BasicWinoTiles &operator=(const BasicWinoTiles &) = default;
    BasicWinoTiles(BasicWinoTiles &&o) noexcept
        : d(std::exchange(o.d, {})), data(std::move(o.data))
    {
    }
    BasicWinoTiles &
    operator=(BasicWinoTiles &&o) noexcept
    {
        d = std::exchange(o.d, {});
        data = std::move(o.data);
        return *this;
    }

    /** Rebind shape, reusing the slab when capacity allows. Contents
     *  are zeroed iff the shape changed. */
    void
    reshape(int alpha, int channels, int batch, int tiles)
    {
        winomc_assert(alpha > 0 && channels > 0 && batch > 0 && tiles > 0,
                      "degenerate WinoTiles shape");
        const Dims next{alpha, channels, batch, tiles};
        if (d == next)
            return;
        d = next;
        data.assignZero(size_t(alpha) * alpha * channels * batch * tiles);
    }

    /** Hand the slab back to the workspace pool if it has room (the
     *  tiles then have shape 0); else keep them. Returns whether it
     *  went back. */
    bool
    offer()
    {
        if (!data.offer())
            return false;
        d = {};
        return true;
    }

    int alphaEdge() const { return d.alpha; }
    int uvCount() const { return d.alpha * d.alpha; }
    int channels() const { return d.nch; }
    int batch() const { return d.nb; }
    int tiles() const { return d.nt; }
    size_t size() const { return data.size(); }

    T &at(int uv, int c, int b, int t) { return data[index(uv, c, b, t)]; }
    T
    at(int uv, int c, int b, int t) const
    {
        return data[index(uv, c, b, t)];
    }

    /** Contiguous (batch * tiles) row for a given (uv, channel). */
    T *row(int uv, int c) { return data.data() + index(uv, c, 0, 0); }
    const T *
    row(int uv, int c) const
    {
        return data.data() + index(uv, c, 0, 0);
    }

    void fill(T v) { std::fill(data.begin(), data.end(), v); }

    /**
     * Pointer to element (uv=0, c, b, t); element (uv, c, b, t) lives
     * uv * uvStride() elements further on. The micro-kernel transforms
     * walk all uv entries of a panel of consecutive tiles through this
     * base + stride pair.
     */
    T *
    uvBase(int c, int b, int t)
    {
        return data.data() + index(0, c, b, t);
    }
    const T *
    uvBase(int c, int b, int t) const
    {
        return data.data() + index(0, c, b, t);
    }
    size_t uvStride() const { return (size_t(d.nch) * d.nb) * d.nt; }

  private:
    struct Dims
    {
        int alpha = 0, nch = 0, nb = 0, nt = 0;
        bool operator==(const Dims &) const = default;
    };

    size_t
    index(int uv, int c, int b, int t) const
    {
        winomc_assert(uv >= 0 && uv < uvCount() && c >= 0 && c < d.nch &&
                      b >= 0 && b < d.nb && t >= 0 && t < d.nt,
                      "WinoTiles index out of range");
        return ((size_t(uv) * d.nch + c) * d.nb + b) * d.nt + t;
    }

    Dims d;
    ws::Slab<T> data;
};

/** fp32 Winograd-domain tiles. */
using WinoTiles = BasicWinoTiles<float>;
/** 16-bit Winograd-domain tiles: f16 or bf16 bit patterns (the
 *  container does not care which). */
using HalfTiles = BasicWinoTiles<std::uint16_t>;

/**
 * Winograd-domain weights: [uv][out_ch][in_ch]. The per-uv slice is the
 * (J x I) matrix of Equation (2).
 */
class WinoWeights
{
  public:
    WinoWeights() = default;
    WinoWeights(int alpha, int out_ch, int in_ch)
    {
        reshape(alpha, out_ch, in_ch);
    }

    WinoWeights(const WinoWeights &) = default;
    WinoWeights &operator=(const WinoWeights &) = default;
    WinoWeights(WinoWeights &&o) noexcept
        : d(std::exchange(o.d, {})), data(std::move(o.data))
    {
    }
    WinoWeights &
    operator=(WinoWeights &&o) noexcept
    {
        d = std::exchange(o.d, {});
        data = std::move(o.data);
        return *this;
    }

    /** Rebind shape, reusing the slab when capacity allows. Contents
     *  are zeroed iff the shape changed. */
    void reshape(int alpha, int out_ch, int in_ch);

    int alphaEdge() const { return d.alpha; }
    int uvCount() const { return d.alpha * d.alpha; }
    int outChannels() const { return d.nj; }
    int inChannels() const { return d.ni; }
    size_t size() const { return data.size(); }

    float &at(int uv, int j, int i) { return data[index(uv, j, i)]; }
    float at(int uv, int j, int i) const { return data[index(uv, j, i)]; }

    void fill(float v) { std::fill(data.begin(), data.end(), v); }

    /** Flat backing store (for whole-buffer updates like SGD axpy). */
    float *raw() { return data.data(); }
    const float *raw() const { return data.data(); }

    WinoWeights &operator+=(const WinoWeights &o);
    WinoWeights &operator*=(float s);
    float maxAbsDiff(const WinoWeights &o) const;

  private:
    struct Dims
    {
        int alpha = 0, nj = 0, ni = 0;
        bool operator==(const Dims &) const = default;
    };

    size_t
    index(int uv, int j, int i) const
    {
        winomc_assert(uv >= 0 && uv < uvCount() && j >= 0 && j < d.nj &&
                      i >= 0 && i < d.ni, "WinoWeights index out of range");
        return (size_t(uv) * d.nj + j) * d.ni + i;
    }

    Dims d;
    ws::Slab<float> data;
};

/**
 * Element-wise mean of Winograd-domain tile sets: the *modified join*
 * of Section VII-A executed in the Winograd domain. Because the mean is
 * linear it commutes with the inverse transform, so joining here saves
 * one tile gather per joined branch (the tests prove the equality).
 */
WinoTiles tileMean(const std::vector<const WinoTiles *> &inputs);

} // namespace winomc

#endif // WINOMC_WINOGRAD_TILING_HH
