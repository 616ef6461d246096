#include "nn/basic_layers.hh"

#include <algorithm>
#include <cmath>

#include "winograd/microkernel.hh"

namespace winomc::nn {

Tensor
ReLU::forward(const Tensor &x, bool train)
{
    Tensor y(x.n(), x.c(), x.h(), x.w());
    if (train)
        mask.reshape(x.n(), x.c(), x.h(), x.w()); // overwritten whole
    const mk::MicroKernels &K = mk::kernels();
    K.reluForward(y.data(), train ? mask.data() : nullptr, x.data(),
                  std::int64_t(x.size()));
    return y;
}

Tensor
ReLU::backward(const Tensor &dy)
{
    winomc_assert(dy.sameShape(mask), "ReLU backward shape mismatch");
    Tensor dx(dy.n(), dy.c(), dy.h(), dy.w());
    mk::kernels().mulPairwise(dx.data(), dy.data(), mask.data(),
                              std::int64_t(dy.size()));
    return dx;
}

Tensor
MaxPool2::forward(const Tensor &x, bool train)
{
    inH = x.h();
    inW = x.w();
    const int oh = x.h() / 2, ow = x.w() / 2;
    winomc_assert(oh > 0 && ow > 0, "maxpool2 input too small");
    Tensor y(x.n(), x.c(), oh, ow);
    if (train)
        argmax = Tensor(x.n(), x.c(), oh, ow);
    for (int b = 0; b < x.n(); ++b) {
        for (int c = 0; c < x.c(); ++c) {
            for (int i = 0; i < oh; ++i) {
                for (int j = 0; j < ow; ++j) {
                    float best = x.at(b, c, 2 * i, 2 * j);
                    int arg = 0;
                    for (int k = 1; k < 4; ++k) {
                        float v = x.at(b, c, 2 * i + k / 2,
                                       2 * j + k % 2);
                        if (v > best) {
                            best = v;
                            arg = k;
                        }
                    }
                    y.at(b, c, i, j) = best;
                    if (train)
                        argmax.at(b, c, i, j) = float(arg);
                }
            }
        }
    }
    return y;
}

Tensor
MaxPool2::backward(const Tensor &dy)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    for (int b = 0; b < dy.n(); ++b) {
        for (int c = 0; c < dy.c(); ++c) {
            for (int i = 0; i < dy.h(); ++i) {
                for (int j = 0; j < dy.w(); ++j) {
                    int k = int(argmax.at(b, c, i, j));
                    dx.at(b, c, 2 * i + k / 2, 2 * j + k % 2) +=
                        dy.at(b, c, i, j);
                }
            }
        }
    }
    return dx;
}

Tensor
AvgPool2::forward(const Tensor &x, bool)
{
    inH = x.h();
    inW = x.w();
    const int oh = x.h() / 2, ow = x.w() / 2;
    winomc_assert(oh > 0 && ow > 0, "avgpool2 input too small");
    Tensor y(x.n(), x.c(), oh, ow);
    const mk::MicroKernels &K = mk::kernels();
    const float *xp = x.data();
    float *yp = y.data();
    for (int b = 0; b < x.n(); ++b) {
        for (int c = 0; c < x.c(); ++c) {
            const float *plane =
                xp + ((size_t(b) * x.c() + c) * x.h()) * x.w();
            float *yplane = yp + ((size_t(b) * x.c() + c) * oh) * ow;
            for (int i = 0; i < oh; ++i)
                K.avgPool2Row(yplane + size_t(i) * ow,
                              plane + size_t(2 * i) * x.w(),
                              plane + size_t(2 * i + 1) * x.w(), ow);
        }
    }
    return y;
}

Tensor
AvgPool2::backward(const Tensor &dy)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const int oh = dy.h(), ow = dy.w();
    const float *g = dy.data();
    float *plane = dx.data();
    for (int bc = 0; bc < dy.n() * dy.c(); ++bc, plane += size_t(inH) * inW)
        for (int i = 0; i < oh; ++i, g += ow) {
            float *r0 = plane + size_t(2 * i) * inW;
            float *r1 = r0 + inW;
            for (int j = 0; j < ow; ++j) {
                const float v = 0.25f * g[j];
                r0[2 * j] = r0[2 * j + 1] = r1[2 * j] = r1[2 * j + 1] = v;
            }
        }
    return dx;
}

Tensor
GlobalAvgPool::forward(const Tensor &x, bool)
{
    inH = x.h();
    inW = x.w();
    Tensor y(x.n(), x.c(), 1, 1);
    const float scale = 1.0f / float(x.h() * x.w());
    const mk::MicroKernels &K = mk::kernels();
    const std::int64_t plane = std::int64_t(x.h()) * x.w();
    const float *xp = x.data();
    for (int b = 0; b < x.n(); ++b)
        for (int c = 0; c < x.c(); ++c)
            y.at(b, c, 0, 0) =
                float(K.sumDouble(
                    xp + (size_t(b) * x.c() + c) * size_t(plane),
                    plane)) *
                scale;
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &dy)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const float scale = 1.0f / float(inH * inW);
    const size_t plane = size_t(inH) * inW;
    for (int bc = 0; bc < dy.n() * dy.c(); ++bc)
        std::fill_n(dx.data() + size_t(bc) * plane, plane,
                    dy.data()[bc] * scale);
    return dx;
}

Dense::Dense(int in_features, int out_features, Rng &rng)
    : inF(in_features), outF(out_features), w(1, 1, out_features,
      in_features), b(1, 1, 1, out_features),
      dw(1, 1, out_features, in_features), db(1, 1, 1, out_features)
{
    float sigma = std::sqrt(2.0f / float(in_features));
    w.fillGaussian(rng, 0.0f, sigma);
}

Tensor
Dense::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() * x.h() * x.w() == inF, "Dense expected ", inF,
                  " features, got ", x.c() * x.h() * x.w());
    xc = x.c();
    xh = x.h();
    xw = x.w();
    Tensor flat(x.n(), 1, 1, inF);
    for (int n = 0; n < x.n(); ++n) {
        int f = 0;
        for (int c = 0; c < x.c(); ++c)
            for (int i = 0; i < x.h(); ++i)
                for (int j = 0; j < x.w(); ++j)
                    flat.at(n, 0, 0, f++) = x.at(n, c, i, j);
    }
    if (train)
        cachedX = flat;

    Tensor y(x.n(), 1, 1, outF);
    for (int n = 0; n < x.n(); ++n) {
        for (int o = 0; o < outF; ++o) {
            double acc = b.at(0, 0, 0, o);
            for (int f = 0; f < inF; ++f)
                acc += double(w.at(0, 0, o, f)) * flat.at(n, 0, 0, f);
            y.at(n, 0, 0, o) = float(acc);
        }
    }
    return y;
}

Tensor
Dense::backward(const Tensor &dy)
{
    const int B = dy.n();
    for (int n = 0; n < B; ++n) {
        for (int o = 0; o < outF; ++o) {
            float g = dy.at(n, 0, 0, o);
            db.at(0, 0, 0, o) += g;
            for (int f = 0; f < inF; ++f)
                dw.at(0, 0, o, f) += g * cachedX.at(n, 0, 0, f);
        }
    }
    Tensor dx(B, xc, xh, xw);
    for (int n = 0; n < B; ++n) {
        int f = 0;
        for (int c = 0; c < xc; ++c) {
            for (int i = 0; i < xh; ++i) {
                for (int j = 0; j < xw; ++j) {
                    double acc = 0.0;
                    for (int o = 0; o < outF; ++o)
                        acc += double(w.at(0, 0, o, f)) * dy.at(n, 0, 0, o);
                    dx.at(n, c, i, j) = float(acc);
                    ++f;
                }
            }
        }
    }
    return dx;
}

void
Dense::step(float lr)
{
    // SGD axpy: w += (-lr) * dw. Bitwise identical to the legacy
    // `dw *= -lr; w += dw` sequence on the scalar path (sign flip and
    // subtract commute exactly in IEEE-754).
    const mk::MicroKernels &K = mk::kernels();
    K.axpy(w.data(), -lr, dw.data(), std::int64_t(w.size()));
    dw.fill(0.0f);
    K.axpy(b.data(), -lr, db.data(), std::int64_t(b.size()));
    db.fill(0.0f);
}

size_t
Dense::paramCount() const
{
    return w.size() + b.size();
}

} // namespace winomc::nn
