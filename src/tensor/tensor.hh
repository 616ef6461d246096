/**
 * @file
 * Dense 4D tensor in NCHW layout.
 *
 * This is the numeric substrate for the convolution / Winograd kernels.
 * Scalars are float (the paper's workers compute in FP32); the Winograd
 * transform matrices are generated in exact rational arithmetic and
 * applied in double before rounding, so the tensors only ever see the
 * final FP32 values.
 */

#ifndef WINOMC_TENSOR_TENSOR_HH
#define WINOMC_TENSOR_TENSOR_HH

#include <array>
#include <cstddef>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/workspace.hh"

namespace winomc {

/**
 * Dense tensor with up to four dimensions (n, c, h, w), NCHW layout.
 * Lower-rank tensors set the leading dims to 1 (e.g. a matrix is
 * (1, 1, h, w)).
 *
 * Storage is a ws::Slab: construction acquires a pooled slab,
 * destruction releases it, so steady-state shapes never touch the heap.
 * Copy assignment reuses the destination's capacity when it suffices;
 * a moved-from tensor has shape (0, 0, 0, 0).
 */
class Tensor
{
  public:
    Tensor() : dims{0, 0, 0, 0} {}
    Tensor(int n, int c, int h, int w);
    /** 2D convenience constructor: (1, 1, h, w). */
    Tensor(int h, int w) : Tensor(1, 1, h, w) {}

    Tensor(const Tensor &) = default;
    Tensor &operator=(const Tensor &) = default;
    Tensor(Tensor &&o) noexcept
        : dims(std::exchange(o.dims, {})), buf(std::move(o.buf))
    {
    }
    Tensor &
    operator=(Tensor &&o) noexcept
    {
        dims = std::exchange(o.dims, {});
        buf = std::move(o.buf);
        return *this;
    }

    /**
     * Rebind to a new shape, reusing the slab when it has capacity.
     * Contents are zeroed iff the shape changed; same-shape reshapes
     * leave the data untouched.
     */
    void reshape(int n, int c, int h, int w);

    int n() const { return dims[0]; }
    int c() const { return dims[1]; }
    int h() const { return dims[2]; }
    int w() const { return dims[3]; }
    size_t size() const { return buf.size(); }
    bool sameShape(const Tensor &o) const;

    float &
    at(int in, int ic, int ih, int iw)
    {
        return buf[index(in, ic, ih, iw)];
    }
    float
    at(int in, int ic, int ih, int iw) const
    {
        return buf[index(in, ic, ih, iw)];
    }
    /** 2D accessors on a (1,1,h,w) tensor. */
    float &at(int ih, int iw) { return at(0, 0, ih, iw); }
    float at(int ih, int iw) const { return at(0, 0, ih, iw); }

    float *data() { return buf.data(); }
    const float *data() const { return buf.data(); }

    void fill(float v);
    void fillUniform(Rng &rng, float lo = -1.0f, float hi = 1.0f);
    void fillGaussian(Rng &rng, float mean = 0.0f, float sigma = 1.0f);
    /** Kaiming-style init for conv weights (fan_in = c*h*w). */
    void fillKaiming(Rng &rng);

    Tensor &operator+=(const Tensor &o);
    Tensor &operator-=(const Tensor &o);
    Tensor &operator*=(float s);

    /** Largest absolute element. */
    float absMax() const;
    /** Largest absolute elementwise difference. */
    float maxAbsDiff(const Tensor &o) const;
    /** Standard deviation of the elements. */
    float stddev() const;

  private:
    size_t
    index(int in, int ic, int ih, int iw) const
    {
        winomc_assert(in >= 0 && in < dims[0] && ic >= 0 && ic < dims[1] &&
                      ih >= 0 && ih < dims[2] && iw >= 0 && iw < dims[3],
                      "tensor index (", in, ",", ic, ",", ih, ",", iw,
                      ") out of (", dims[0], ",", dims[1], ",", dims[2],
                      ",", dims[3], ")");
        return ((size_t(in) * dims[1] + ic) * dims[2] + ih) * dims[3] + iw;
    }

    std::array<int, 4> dims;
    ws::Slab<float> buf;
};

} // namespace winomc

#endif // WINOMC_TENSOR_TENSOR_HH
