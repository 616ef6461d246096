#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>

namespace winomc {

Tensor::Tensor(int n, int c, int h, int w) : dims{n, c, h, w}
{
    winomc_assert(n >= 0 && c >= 0 && h >= 0 && w >= 0,
                  "negative tensor dim");
    buf.resize(size_t(n) * c * h * w);
}

void
Tensor::reshape(int n, int c, int h, int w)
{
    winomc_assert(n >= 0 && c >= 0 && h >= 0 && w >= 0,
                  "negative tensor dim");
    const std::array<int, 4> shape{n, c, h, w};
    if (dims == shape)
        return;
    dims = shape;
    buf.assignZero(size_t(n) * c * h * w);
}

bool
Tensor::sameShape(const Tensor &o) const
{
    return dims == o.dims;
}

void
Tensor::fill(float v)
{
    std::fill(buf.begin(), buf.end(), v);
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : buf)
        v = float(rng.uniform(lo, hi));
}

void
Tensor::fillGaussian(Rng &rng, float mean, float sigma)
{
    for (auto &v : buf)
        v = float(rng.gaussian(mean, sigma));
}

void
Tensor::fillKaiming(Rng &rng)
{
    double fan_in = double(dims[1]) * dims[2] * dims[3];
    double sigma = std::sqrt(2.0 / std::max(fan_in, 1.0));
    fillGaussian(rng, 0.0f, float(sigma));
}

Tensor &
Tensor::operator+=(const Tensor &o)
{
    winomc_assert(sameShape(o), "tensor += shape mismatch");
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] += o.buf[i];
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &o)
{
    winomc_assert(sameShape(o), "tensor -= shape mismatch");
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] -= o.buf[i];
    return *this;
}

Tensor &
Tensor::operator*=(float s)
{
    for (auto &v : buf)
        v *= s;
    return *this;
}

float
Tensor::absMax() const
{
    float m = 0.0f;
    for (auto v : buf)
        m = std::max(m, std::abs(v));
    return m;
}

float
Tensor::maxAbsDiff(const Tensor &o) const
{
    winomc_assert(sameShape(o), "maxAbsDiff shape mismatch");
    float m = 0.0f;
    for (size_t i = 0; i < buf.size(); ++i)
        m = std::max(m, std::abs(buf[i] - o.buf[i]));
    return m;
}

float
Tensor::stddev() const
{
    if (buf.empty())
        return 0.0f;
    double mean = 0.0;
    for (auto v : buf)
        mean += v;
    mean /= double(buf.size());
    double var = 0.0;
    for (auto v : buf)
        var += (v - mean) * (v - mean);
    return float(std::sqrt(var / double(buf.size())));
}

} // namespace winomc
