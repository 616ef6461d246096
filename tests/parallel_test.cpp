/**
 * @file
 * Unit tests for the shared thread pool / parallelFor primitive, plus
 * thread-count parity tests proving the numeric Winograd kernels are
 * bitwise identical between WINOMC_THREADS=1 and WINOMC_THREADS=8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"

#include "ew_forms.hh"

using namespace winomc;
using test::elementwiseForward;
using test::elementwiseBackwardData;
using test::elementwiseGradWeights;
using test::transformInput;
using test::transformInputAdjoint;
using test::inverseTransform;
using test::inverseTransformAdjoint;
using test::transformWeightsAdjoint;

TEST(ParseThreadCount, AcceptsPositiveIntegers)
{
    EXPECT_EQ(parseThreadCount("1"), 1);
    EXPECT_EQ(parseThreadCount("8"), 8);
    EXPECT_EQ(parseThreadCount("128"), 128);
}

TEST(ParseThreadCount, RejectsGarbage)
{
    EXPECT_EQ(parseThreadCount(nullptr), 0);
    EXPECT_EQ(parseThreadCount(""), 0);
    EXPECT_EQ(parseThreadCount("0"), 0);
    EXPECT_EQ(parseThreadCount("-4"), 0);
    EXPECT_EQ(parseThreadCount("abc"), 0);
    EXPECT_EQ(parseThreadCount("4x"), 0);
    EXPECT_EQ(parseThreadCount("1.5"), 0);
    EXPECT_EQ(parseThreadCount(" "), 0);
}

TEST(ParseThreadCount, ClampsOversizedValues)
{
    // Too large (including strtol overflow) clamps to the ceiling
    // instead of crashing or spawning an absurd pool.
    EXPECT_EQ(parseThreadCount("999999999"), kMaxThreadCount);
    EXPECT_EQ(parseThreadCount("4097"), kMaxThreadCount);
    EXPECT_EQ(parseThreadCount("99999999999999999999999"),
              kMaxThreadCount);
    EXPECT_EQ(parseThreadCount("4096"), kMaxThreadCount);
    // Negative overflow is non-positive, not oversized.
    EXPECT_EQ(parseThreadCount("-99999999999999999999999"), 0);
}

TEST(ParseThreadCount, TrailingWhitespaceIsTolerated)
{
    EXPECT_EQ(parseThreadCount("8 "), 8);
    EXPECT_EQ(parseThreadCount(" 8"), 8);
    EXPECT_EQ(parseThreadCount("8\t"), 8);
}

TEST(ThreadPool, SetThreadCountRestoresDefaultOnNonPositive)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.threadCount(), 2);
    pool.setThreadCount(-7);
    EXPECT_EQ(pool.threadCount(), defaultThreadCount());
    pool.setThreadCount(3);
    EXPECT_EQ(pool.threadCount(), 3);
}

TEST(ParseThreadCount, DefaultIsAtLeastOne)
{
    EXPECT_GE(defaultThreadCount(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesNeverInvoke)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    auto count = [&](std::int64_t, std::int64_t) { ++calls; };
    pool.parallelFor(0, 0, 1, count);
    pool.parallelFor(5, 5, 1, count);
    pool.parallelFor(10, 3, 1, count);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(8);
    const int n = 10007; // prime: never divides evenly into chunks
    std::vector<int> hits(n, 0);
    pool.parallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            ++hits[size_t(i)]; // chunks are disjoint, so no race
    });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
}

TEST(ParallelFor, ChunksAreContiguousAndRespectGrain)
{
    ThreadPool pool(4);
    const std::int64_t n = 1000, grain = 64;
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallelFor(0, n, grain,
                     [&](std::int64_t lo, std::int64_t hi) {
        std::lock_guard<std::mutex> g(mu);
        chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_FALSE(chunks.empty());
    EXPECT_EQ(chunks.front().first, 0);
    EXPECT_EQ(chunks.back().second, n);
    int undersized = 0;
    for (size_t i = 0; i < chunks.size(); ++i) {
        if (i + 1 < chunks.size()) {
            EXPECT_EQ(chunks[i].second, chunks[i + 1].first);
        }
        if (chunks[i].second - chunks[i].first < grain)
            ++undersized;
    }
    EXPECT_LE(undersized, 1); // only the tail chunk may be short
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline)
{
    ThreadPool pool(4);
    int calls = 0;
    std::thread::id where;
    pool.parallelFor(0, 10, 100, [&](std::int64_t lo, std::int64_t hi) {
        ++calls;
        where = std::this_thread::get_id();
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 10);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(where, std::this_thread::get_id());
}

TEST(ParallelFor, OneThreadIsFullySerialInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    int calls = 0;
    std::thread::id where;
    pool.parallelFor(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
        ++calls;
        where = std::this_thread::get_id();
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 1000);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(where, std::this_thread::get_id());
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    const int outer = 16, inner = 100;
    std::vector<std::int64_t> sums(outer, 0);
    pool.parallelFor(0, outer, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t o = lo; o < hi; ++o) {
            const std::thread::id me = std::this_thread::get_id();
            pool.parallelFor(0, inner, 1,
                             [&](std::int64_t ilo, std::int64_t ihi) {
                // Nested bodies must stay on the calling worker.
                EXPECT_EQ(std::this_thread::get_id(), me);
                for (std::int64_t i = ilo; i < ihi; ++i)
                    sums[size_t(o)] += i;
            });
        }
    });
    for (int o = 0; o < outer; ++o)
        EXPECT_EQ(sums[size_t(o)], inner * (inner - 1) / 2);
}

TEST(ParallelFor, PropagatesExceptionsAndSurvives)
{
    ThreadPool pool(4);
    auto boom = [&](std::int64_t lo, std::int64_t) {
        if (lo == 0)
            throw std::runtime_error("chunk failed");
    };
    EXPECT_THROW(pool.parallelFor(0, 1000, 1, boom), std::runtime_error);
    // Pool is still serviceable after an exception.
    std::atomic<std::int64_t> total{0};
    pool.parallelFor(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
        total += hi - lo;
    });
    EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, PropagatesExceptionsSerially)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(0, 10, 1,
                                  [](std::int64_t, std::int64_t) {
                     throw std::runtime_error("serial failure");
                 }),
                 std::runtime_error);
}

TEST(ThreadPool, SetThreadCountResizes)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.threadCount(), 2);
    pool.setThreadCount(6);
    EXPECT_EQ(pool.threadCount(), 6);
    std::atomic<std::int64_t> total{0};
    pool.parallelFor(0, 5000, 1, [&](std::int64_t lo, std::int64_t hi) {
        total += hi - lo;
    });
    EXPECT_EQ(total.load(), 5000);
    pool.setThreadCount(1);
    EXPECT_EQ(pool.threadCount(), 1);
    pool.parallelFor(0, 10, 1, [&](std::int64_t lo, std::int64_t hi) {
        total += hi - lo;
    });
    EXPECT_EQ(total.load(), 5010);
}

TEST(ThreadPool, GlobalIsSingletonWithPositiveCount)
{
    ThreadPool &a = ThreadPool::global();
    ThreadPool &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.threadCount(), 1);
}

// ---------------------------------------------------------------------
// Thread-count parity: every numeric kernel must produce bitwise
// identical results with 1 thread and with 8 threads, including shapes
// whose work-item count is smaller than the thread count.
// ---------------------------------------------------------------------

namespace {

struct ParityShape
{
    int batch, chIn, chOut, hw;
};

// Deliberately includes tiny/odd shapes: hw=2 is a single F(2x2) tile,
// hw=5/hw=6 give odd tile grids with fewer (batch, channel) slices
// than the 8 worker threads. Even entries run F(2,3), odd ones F(4,3).
// The last four walk the staged transforms' channel-major task order
// with more images than channels: ragged last panels (hw=22: 121
// tiles under F(2,3); hw=24: 36 under F(4,3)), and one channel whose
// panels span images (hw=6: 9 tiles; hw=8: 4 tiles).
const ParityShape kShapes[] = {
    {1, 1, 1, 2},
    {1, 3, 5, 5},
    {1, 2, 3, 6},
    {2, 5, 4, 7},
    {3, 4, 2, 12},
    {2, 8, 8, 16},
    {5, 3, 4, 22},
    {5, 3, 4, 24},
    {16, 1, 2, 6},
    {16, 1, 2, 8},
};

void
expectTilesEqual(const WinoTiles &a, const WinoTiles &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (int uv = 0; uv < a.uvCount(); ++uv)
        for (int c = 0; c < a.channels(); ++c)
            for (int bi = 0; bi < a.batch(); ++bi)
                for (int t = 0; t < a.tiles(); ++t)
                    ASSERT_EQ(a.at(uv, c, bi, t), b.at(uv, c, bi, t))
                        << what << " uv=" << uv << " c=" << c;
}

void
expectWeightsEqual(const WinoWeights &a, const WinoWeights &b,
                   const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (int uv = 0; uv < a.uvCount(); ++uv)
        for (int j = 0; j < a.outChannels(); ++j)
            for (int i = 0; i < a.inChannels(); ++i)
                ASSERT_EQ(a.at(uv, j, i), b.at(uv, j, i))
                    << what << " uv=" << uv << " j=" << j << " i=" << i;
}

void
expectTensorsEqual(const Tensor &a, const Tensor &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    const float *pa = a.data();
    const float *pb = b.data();
    for (size_t k = 0; k < a.size(); ++k)
        ASSERT_EQ(pa[k], pb[k]) << what << " flat index " << k;
}

struct KernelOutputs
{
    WinoTiles X, Y, dY, dX;
    WinoWeights W, dW;
    Tensor y, dx, dw, directY, directDx, directDw;
};

KernelOutputs
runAllKernels(const ParityShape &s, const WinogradAlgo &algo)
{
    Rng rng(0xBADC0FFEuLL + uint64_t(s.hw));
    Tensor x(s.batch, s.chIn, s.hw, s.hw);
    Tensor w(s.chOut, s.chIn, 3, 3);
    Tensor dy(s.batch, s.chOut, s.hw, s.hw);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);

    KernelOutputs o;
    o.W = transformWeights(w, algo);
    o.X = transformInput(x, algo);
    o.Y = elementwiseForward(o.X, o.W);
    o.y = inverseTransform(o.Y, algo, s.hw, s.hw);
    o.dY = inverseTransformAdjoint(dy, algo);
    o.dX = elementwiseBackwardData(o.dY, o.W);
    o.dx = transformInputAdjoint(o.dX, algo, s.hw, s.hw);
    o.dW = elementwiseGradWeights(o.dY, o.X);
    o.dw = transformWeightsAdjoint(o.dW, algo);
    o.directY = directConvForward(x, w);
    o.directDx = directConvBackwardData(dy, w);
    o.directDw = directConvGradWeights(x, dy, 3);
    return o;
}

class ThreadParity : public ::testing::TestWithParam<int>
{
  protected:
    void TearDown() override
    {
        ThreadPool::global().setThreadCount(0); // back to default
    }
};

TEST_P(ThreadParity, KernelsBitwiseIdenticalAcrossThreadCounts)
{
    const ParityShape s = kShapes[size_t(GetParam())];
    const WinogradAlgo &algo =
        (GetParam() % 2 == 0) ? algoF2x2_3x3() : algoF4x4_3x3();

    ThreadPool::global().setThreadCount(1);
    KernelOutputs serial = runAllKernels(s, algo);
    ThreadPool::global().setThreadCount(8);
    KernelOutputs threaded = runAllKernels(s, algo);

    expectWeightsEqual(serial.W, threaded.W, "transformWeights");
    expectTilesEqual(serial.X, threaded.X, "transformInput");
    expectTilesEqual(serial.Y, threaded.Y, "elementwiseForward");
    expectTensorsEqual(serial.y, threaded.y, "inverseTransform");
    expectTilesEqual(serial.dY, threaded.dY, "inverseTransformAdjoint");
    expectTilesEqual(serial.dX, threaded.dX, "elementwiseBackwardData");
    expectTensorsEqual(serial.dx, threaded.dx, "transformInputAdjoint");
    expectWeightsEqual(serial.dW, threaded.dW, "elementwiseGradWeights");
    expectTensorsEqual(serial.dw, threaded.dw, "transformWeightsAdjoint");
    expectTensorsEqual(serial.directY, threaded.directY,
                       "directConvForward");
    expectTensorsEqual(serial.directDx, threaded.directDx,
                       "directConvBackwardData");
    expectTensorsEqual(serial.directDw, threaded.directDw,
                       "directConvGradWeights");
}

INSTANTIATE_TEST_SUITE_P(Shapes, ThreadParity,
                         ::testing::Range(0, int(std::size(kShapes))));

} // namespace
