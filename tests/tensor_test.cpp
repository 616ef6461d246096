/**
 * @file
 * Tests for the tensor / small-matrix substrate and the pooled
 * ws::Slab every tensor, tile and mask buffer is held in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "tensor/matrix.hh"
#include "tensor/tensor.hh"
#include "tensor/workspace.hh"
#include "winograd/lowprec.hh"
#include "winograd/tiling.hh"

namespace winomc {
namespace {

TEST(Tensor, ShapeAndIndexing)
{
    Tensor t(2, 3, 4, 5);
    EXPECT_EQ(t.n(), 2);
    EXPECT_EQ(t.c(), 3);
    EXPECT_EQ(t.h(), 4);
    EXPECT_EQ(t.w(), 5);
    EXPECT_EQ(t.size(), 120u);
    t.at(1, 2, 3, 4) = 7.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2, 3, 4), 7.0f);
    EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 0.0f);
}

TEST(Tensor, TwoDConvenience)
{
    Tensor m(3, 4);
    m.at(2, 3) = 1.5f;
    EXPECT_FLOAT_EQ(m.at(0, 0, 2, 3), 1.5f);
    EXPECT_EQ(m.n(), 1);
    EXPECT_EQ(m.h(), 3);
}

TEST(Tensor, ArithmeticOps)
{
    Tensor a(1, 1, 2, 2), b(1, 1, 2, 2);
    a.fill(2.0f);
    b.fill(3.0f);
    a += b;
    EXPECT_FLOAT_EQ(a.at(0, 0, 1, 1), 5.0f);
    a -= b;
    EXPECT_FLOAT_EQ(a.at(0, 0, 0, 1), 2.0f);
    a *= 0.5f;
    EXPECT_FLOAT_EQ(a.at(0, 0, 0, 0), 1.0f);
}

TEST(Tensor, Reductions)
{
    Tensor a(1, 1, 1, 4);
    a.at(0, 0) = -3.0f;
    a.at(0, 1) = 1.0f;
    a.at(0, 2) = 2.0f;
    a.at(0, 3) = 0.0f;
    EXPECT_FLOAT_EQ(a.absMax(), 3.0f);
    Tensor b = a;
    b.at(0, 2) = 5.0f;
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 3.0f);
    EXPECT_NEAR(a.stddev(), std::sqrt(3.5), 1e-5);
}

TEST(Tensor, KaimingInitScale)
{
    Rng rng(21);
    Tensor w(64, 32, 3, 3); // fan_in = 288
    w.fillKaiming(rng);
    EXPECT_NEAR(w.stddev(), std::sqrt(2.0 / 288.0), 0.005);
}

TEST(Matrix, InitializerAndTranspose)
{
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.cols(), 3);
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
}

TEST(Matrix, Product)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, IdentityNeutral)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix i = Matrix::identity(2);
    EXPECT_LT((a * i).maxAbsDiff(a), 1e-15);
    EXPECT_LT((i * a).maxAbsDiff(a), 1e-15);
}

TEST(Matrix, AbsAndAddSub)
{
    Matrix a{{-1, 2}, {3, -4}};
    Matrix b = a.abs();
    EXPECT_DOUBLE_EQ(b.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(b.at(1, 1), 4.0);
    Matrix s = a + b;
    EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(s.at(0, 1), 4.0);
    Matrix d = a - b;
    EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);
    Matrix h = 0.5 * b;
    EXPECT_DOUBLE_EQ(h.at(1, 1), 2.0);
}

// ------------------------------------------------------------- ws::Slab

ws::Stats
poolStats()
{
    return ws::Workspace::global().stats();
}

template <class T>
bool
allZero(const T *p, std::size_t n)
{
    return std::all_of(p, p + n, [](T v) { return v == T(0); });
}

TEST(Slab, PooledAcquireIsZeroFilled)
{
    {
        ws::Slab<float> dirty(1000);
        std::fill(dirty.begin(), dirty.end(), 7.0f);
    }
    const ws::Stats before = poolStats();
    ws::Slab<float> s(1000); // dirty's 1024-float class: a pool reuse
    EXPECT_EQ(poolStats().reuses, before.reuses + 1);
    EXPECT_EQ(poolStats().freshAllocs, before.freshAllocs);
    ASSERT_EQ(s.size(), 1000u);
    EXPECT_TRUE(allZero(s.data(), s.size()));
}

TEST(Slab, CopyAssignIntoEnoughCapacityAllocatesNothing)
{
    ws::Slab<float> src(500);
    std::iota(src.begin(), src.end(), 1.0f);
    ws::Slab<float> dst(1000);
    const ws::Stats before = poolStats();
    dst = src;
    EXPECT_EQ(poolStats().freshAllocs, before.freshAllocs);
    EXPECT_EQ(poolStats().reuses, before.reuses);
    EXPECT_EQ(poolStats().bytesInUse, before.bytesInUse);
    ASSERT_EQ(dst.size(), 500u);
    EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin()));
}

TEST(Slab, DestructionReturnsBytesInUseToBaseline)
{
    const std::size_t base = poolStats().bytesInUse;
    {
        ws::Slab<float> a(3000);
        ws::Slab<std::uint16_t> b(77);
        ws::Slab<double> c(a.size());
        EXPECT_GE(poolStats().bytesInUse,
                  base + 3000 * sizeof(float) + 77 * 2 + 3000 * 8);
    }
    EXPECT_EQ(poolStats().bytesInUse, base);
}

template <class T>
void
roundTrip()
{
    ws::Slab<T> s(100);
    ASSERT_EQ(s.size(), 100u);
    EXPECT_TRUE(allZero(s.data(), s.size()));
    for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = T(3 * i + 1);
    ws::Slab<T> copy(s);
    ws::Slab<T> moved(std::move(copy));
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(copy.data(), nullptr);
    s.resize(100); // same size: contents kept
    for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_EQ(s[i], T(3 * i + 1)) << i;
        ASSERT_EQ(moved[i], T(3 * i + 1)) << i;
    }
    moved.resize(300); // grows past the capacity
    ASSERT_EQ(moved.size(), 300u);
    EXPECT_TRUE(allZero(moved.data(), moved.size()));
    s.resize(40); // shrinks within it
    ASSERT_EQ(s.size(), 40u);
    EXPECT_TRUE(allZero(s.data(), s.size()));
}

TEST(Slab, TypedElementsRoundTripAndReadZerosAfterResize)
{
    roundTrip<double>();
    roundTrip<std::uint16_t>();
    roundTrip<std::uint64_t>();
}

// A defaulted move would leave the dims over an empty slab, so the
// same-shape reshape below would skip the allocation.
TEST(Slab, MovedFromContainersReshapeToAFullZeroedBuffer)
{
    Tensor t(2, 3, 4, 5);
    t.fill(1.0f);
    Tensor t2(std::move(t));
    EXPECT_EQ(t.n() + t.c() + t.h() + t.w(), 0);
    EXPECT_EQ(t.size(), 0u);
    t.reshape(2, 3, 4, 5);
    ASSERT_EQ(t.size(), 120u);
    EXPECT_TRUE(allZero(t.data(), t.size()));
    Tensor t3;
    t3 = std::move(t2);
    EXPECT_EQ(t2.size(), 0u);
    EXPECT_EQ(t2.n() + t2.c() + t2.h() + t2.w(), 0);
    EXPECT_EQ(t3.at(1, 2, 3, 4), 1.0f);

    WinoTiles x(4, 2, 3, 5);
    x.fill(1.0f);
    WinoTiles x2(std::move(x));
    EXPECT_EQ(x.alphaEdge() + x.channels() + x.batch() + x.tiles(), 0);
    EXPECT_EQ(x.size(), 0u);
    x.reshape(4, 2, 3, 5);
    ASSERT_EQ(x.size(), 16u * 2 * 3 * 5);
    EXPECT_TRUE(allZero(x.uvBase(0, 0, 0), x.size()));

    HalfTiles h(4, 2, 3, 5);
    h.fill(0x3c00);
    HalfTiles h2;
    h2 = std::move(h);
    EXPECT_EQ(h.alphaEdge() + h.channels() + h.batch() + h.tiles(), 0);
    EXPECT_EQ(h.size(), 0u);
    EXPECT_EQ(h2.at(15, 1, 2, 4), 0x3c00);
    h.reshape(4, 2, 3, 5);
    ASSERT_EQ(h.size(), 16u * 2 * 3 * 5);
    EXPECT_TRUE(allZero(h.uvBase(0, 0, 0), h.size()));

    WinoWeights w(4, 3, 2);
    w.fill(1.0f);
    WinoWeights w2(std::move(w));
    EXPECT_EQ(w.alphaEdge() + w.outChannels() + w.inChannels(), 0);
    EXPECT_EQ(w.size(), 0u);
    w.reshape(4, 3, 2);
    ASSERT_EQ(w.size(), 16u * 3 * 2);
    EXPECT_TRUE(allZero(w.raw(), w.size()));
}

TEST(Slab, HalfTilesAndActMaskComeFromThePool)
{
    std::size_t base = poolStats().bytesInUse;
    HalfTiles h;
    h.reshape(4, 8, 2, 64);
    EXPECT_GE(poolStats().bytesInUse,
              base + h.size() * sizeof(std::uint16_t));

    base = poolStats().bytesInUse;
    ActMask m;
    m.reshape(16, 8, 2, 64);
    ASSERT_GT(m.wordCount(), 0u);
    EXPECT_GE(poolStats().bytesInUse,
              base + m.wordCount() * sizeof(std::uint64_t));
}

} // namespace
} // namespace winomc
