/**
 * @file
 * The measured acceptance gate of sparse execution: at 85% weight
 * sparsity the zero-skipping forward beats the dense fp32 forward, and
 * the quant.* skip counters show real skipping.
 *
 * A binary of its own, registered RUN_SERIAL: its margin is 10-25% of
 * a ~2 ms forward, which a min-of-7 cannot resolve while other test
 * processes contend for the same cores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "common/metrics.hh"
#include "winograd/plan.hh"

#include "sparse_fixtures.hh"

namespace winomc {
namespace {

TEST(SparseExec, SkipCountersAndSparseSpeedupAtHighSparsity)
{
    // The perf acceptance gate: at >= 70% weight sparsity (plus
    // ReLU-style activation zeros) the sparse forward must beat the
    // dense fp32 forward on the same shape, and the quant.* counters
    // must show real skipping. Timed as min-of-N on a shape large
    // enough to swamp per-call overhead.
    // Channel-heavy shape: the elementwise GEMM (where sparsity pays)
    // dominates the transforms, as in the deep layers the paper
    // prunes. Measured margin at this shape is ~20%, so the < below
    // has real cushion against timer noise.
    ExecScope guard(fp32Dense);
    const WinogradAlgo algo = makeWinograd(4, 3);
    const int B = 2, C = 128, K = 128, H = 32;
    Rng rng(3137);
    Tensor x = reluSparseInput(B, C, H, H, rng);
    const WinoWeights W = prunedWeights(K, C, 3, algo, 0.85, rng);
    EXPECT_GE(quant::winogradWeightSparsity(W), 0.84);
    Tensor y(B, K, H, H);

    WinoPlan dense(algo, B, C, K, H, H); // under the fp32-dense guard
    ScopedExecConfig sparseScope(withSparse(true));
    WinoPlan sparse(algo, B, C, K, H, H);

    // Counter check around one instrumented run.
    const bool wasEnabled = metrics::enabled();
    metrics::setEnabled(true);
    metrics::reset();
    sparse.forwardInto(x, W, y);
    double rows_total = 0, rows_skipped = 0, panels_zero = 0;
    for (const auto &s : metrics::snapshot()) {
        if (s.name == "quant.ew.rows_total")
            rows_total = s.value;
        else if (s.name == "quant.ew.rows_skipped")
            rows_skipped = s.value;
        else if (s.name == "quant.mask.panels_zero")
            panels_zero = s.value;
    }
    metrics::reset();
    metrics::setEnabled(wasEnabled);
    EXPECT_GT(rows_total, 0.0);
    EXPECT_GT(panels_zero, 0.0);
    // At 85% weight sparsity the row compaction must be dropping well
    // over half of the candidate rows.
    EXPECT_GT(rows_skipped, 0.5 * rows_total);

    // Min-of-N per side over interleaved dense/sparse reps, so a host
    // slowdown (other processes, frequency drift) hits both sides
    // instead of whichever happened to be timing at the time.
    auto timeMs = [&](WinoPlan &plan) {
        const auto t0 = std::chrono::steady_clock::now();
        plan.forwardInto(x, W, y);
        const std::chrono::duration<double, std::milli> d =
            std::chrono::steady_clock::now() - t0;
        return d.count();
    };
    dense.forwardInto(x, W, y); // warm the slabs
    double dense_ms = 1e30, sparse_ms = 1e30;
    for (int i = 0; i < 7; ++i) {
        dense_ms = std::min(dense_ms, timeMs(dense));
        sparse_ms = std::min(sparse_ms, timeMs(sparse));
    }
    RecordProperty("dense_ms", std::to_string(dense_ms));
    RecordProperty("sparse_ms", std::to_string(sparse_ms));
    // The timing gate holds for vector dispatch, where the sparse
    // path's single y-pass removes the traffic the blocked dense
    // kernel re-reads. Under pinned scalar dispatch (WINOMC_ISA=
    // scalar CI pass) the dense kernel is not bandwidth-bound and the
    // compaction scan has no SIMD to amortize against, so sparse can
    // lose there — correctness (bitwise parity, counters above) is
    // still enforced; only the speed claim is vector-scoped.
    if (mk::activeIsa() != mk::Isa::Scalar) {
        EXPECT_LT(sparse_ms, dense_ms)
            << "sparse execution must beat dense fp32 at 85% sparsity";
    }
}

} // namespace
} // namespace winomc
