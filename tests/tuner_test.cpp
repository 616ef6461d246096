/**
 * @file
 * Generalized-descriptor + auto-tuner tests: ConvSpec geometry and the
 * legacy seven-field contract, the survey
 * numeric-safety bounds, analytic selection on the paper layers (F(4,3)
 * with no manual hint), DWM decomposition term counts and forward
 * parity against the generalized direct oracle (5x5, 7x7, stride-2,
 * rectangular, ragged shapes; bitwise across thread counts, with
 * one-range and multi-range inner plans), the on-disk tuning-cache
 * round trip,
 * and ConvMode::Auto end to end (selection, parity, training, zero
 * steady-state allocation).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/conv_layer.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "winograd/tuner.hh"
#include "workloads/layers.hh"

#include "exec_scope.hh"
#include "metrics_probe.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

using test::withIsa;

/** An analytic-mode ExecScope over a clean, cache-less tuner (the
 *  memo and cache path are reset again on exit). */
struct TunerGuard : test::ExecScope
{
    TunerGuard() : ExecScope(test::withTune(tune::TuneMode::Analytic))
    {
        resetTuner();
    }
    ~TunerGuard() { resetTuner(); }

    static void
    resetTuner()
    {
        tune::setTuneCachePath(nullptr);
        tune::resetTunerForTest();
    }
};

ConvSpec
makeSpec(int b, int i, int j, int h, int w, int kh, int kw, int sh,
         int sw)
{
    ConvSpec s{"t", b, i, j, h, w, 0};
    s.kh = kh;
    s.kw = kw;
    s.strideH = sh;
    s.strideW = sw;
    return s;
}

// ------------------------------------------------------ ConvSpec geometry

TEST(ConvSpecGeometry, LegacySevenFieldContractIsUnchanged)
{
    ConvSpec s{"Mid-A", 256, 128, 128, 56, 56, 3};
    EXPECT_EQ(s.kernelH(), 3);
    EXPECT_EQ(s.kernelW(), 3);
    EXPECT_EQ(s.padHEff(), 1);
    EXPECT_EQ(s.outH(), 56);
    EXPECT_EQ(s.outW(), 56);
    EXPECT_TRUE(s.unitStride());
    EXPECT_TRUE(s.squareKernel());
    EXPECT_TRUE(s.samePadded());
    EXPECT_EQ(s.weightElems(), 128u * 128u * 9u);
    EXPECT_EQ(s.outputElems(), 256u * 128u * 56u * 56u);
}

TEST(ConvSpecGeometry, StrideAndExplicitPaddingShapeTheOutput)
{
    ConvSpec stem = makeSpec(2, 3, 64, 224, 224, 7, 7, 2, 2);
    stem.padH = stem.padW = 3;
    EXPECT_EQ(stem.outH(), 112);
    EXPECT_EQ(stem.outW(), 112);
    EXPECT_FALSE(stem.samePadded());

    ConvSpec rect = makeSpec(1, 2, 3, 11, 9, 5, 3, 1, 1);
    EXPECT_EQ(rect.padHEff(), 2);
    EXPECT_EQ(rect.padWEff(), 1);
    EXPECT_EQ(rect.outH(), 11);
    EXPECT_EQ(rect.outW(), 9);
    EXPECT_FALSE(rect.squareKernel());
    EXPECT_TRUE(rect.samePadded());
}

TEST(ConvSpecGeometry, KeyIsCanonicalDotFreeAndNameBlind)
{
    ConvSpec a = makeSpec(4, 8, 16, 13, 13, 3, 3, 2, 2);
    ConvSpec b = a;
    b.name = "different";
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.key(), "b4_c8x16_in13x13_k3x3_s2x2_p1x1");
    EXPECT_EQ(a.key().find('.'), std::string::npos);
}

// --------------------------------------------------------- numeric safety

TEST(NumericSafety, SurveyBoundsAdmitUpToF6AndRejectF8)
{
    EXPECT_TRUE(tune::numericallySafe(2, 3));
    EXPECT_TRUE(tune::numericallySafe(4, 3));
    EXPECT_TRUE(tune::numericallySafe(6, 3));
    EXPECT_FALSE(tune::numericallySafe(8, 3));
    // Error grows monotonically with the tile size.
    EXPECT_LT(tune::winogradMaxRelError(2, 3),
              tune::winogradMaxRelError(4, 3));
    EXPECT_LT(tune::winogradMaxRelError(4, 3),
              tune::winogradMaxRelError(6, 3));
    EXPECT_LT(tune::winogradMaxRelError(6, 3),
              tune::winogradMaxRelError(8, 3));
}

// ------------------------------------------------------ analytic selection

TEST(TunerSelection, PaperLayersPickF4WithNoManualHint)
{
    TunerGuard guard;
    for (const ConvSpec &spec : workloads::tableTwoLayers(8)) {
        tune::AlgoChoice c = tune::selectAlgorithm(spec);
        EXPECT_EQ(c.kind, tune::AlgoKind::Winograd) << spec.name;
        EXPECT_EQ(c.m, 4) << spec.name;
        EXPECT_GT(c.predictedMs, 0.0) << spec.name;
    }
}

TEST(TunerSelection, GeneralizedShapesDecomposeAndOneByOneStaysDirect)
{
    TunerGuard guard;
    for (const ConvSpec &spec :
         {makeSpec(4, 48, 64, 28, 28, 5, 5, 1, 1),
          makeSpec(4, 64, 64, 28, 28, 7, 7, 1, 1),
          makeSpec(4, 64, 64, 56, 56, 3, 3, 2, 2)}) {
        tune::AlgoChoice c = tune::selectAlgorithm(spec);
        EXPECT_EQ(c.kind, tune::AlgoKind::Decomposed) << spec.key();
        EXPECT_TRUE(tune::numericallySafe(c.m, 3)) << spec.key();
    }
    tune::AlgoChoice one =
        tune::selectAlgorithm(makeSpec(4, 64, 64, 28, 28, 1, 1, 1, 1));
    EXPECT_EQ(one.kind, tune::AlgoKind::Direct);
}

TEST(TunerSelection, ServedModelPicksHoldAcrossBatchesAndStridedRunDirect)
{
    // serve_auto's convs (c3 -> 32 7x7-s2 stem, 32 -> 32 3x3 s1 and
    // s2, on its 32x32 and 24x24 images): a served row equals its solo
    // forward only if no pick moves with the batch, and the strided
    // layers run direct. A decomposed price that undercuts direct here
    // (e.g. one inner forward instead of one per term) fails this.
    TunerGuard guard;
    struct Served
    {
        int in, h, k, stride;
    };
    for (const Served &l : {Served{3, 32, 7, 2}, Served{3, 24, 7, 2},
                            Served{32, 16, 3, 1}, Served{32, 12, 3, 1},
                            Served{32, 8, 3, 1}, Served{32, 6, 3, 1},
                            Served{32, 16, 3, 2}, Served{32, 12, 3, 2}}) {
        tune::AlgoChoice first;
        for (int b = 1; b <= 8; ++b) {
            ConvSpec spec =
                makeSpec(b, l.in, 32, l.h, l.h, l.k, l.k, l.stride,
                         l.stride);
            spec.r = l.k;
            const tune::AlgoChoice c = tune::selectAlgorithm(spec);
            if (b == 1)
                first = c;
            EXPECT_EQ(c.kind, first.kind) << spec.key();
            EXPECT_EQ(c.m, first.m) << spec.key();
            if (l.stride > 1) {
                EXPECT_EQ(c.kind, tune::AlgoKind::Direct) << spec.key();
            }
        }
    }
}

TEST(TunerSelection, MemoAnswersRepeatSelects)
{
    TunerGuard guard;
    const ConvSpec spec = makeSpec(4, 8, 8, 12, 12, 5, 5, 1, 1);
    tune::AlgoChoice first = tune::selectAlgorithm(spec);
    const tune::TunerStats s0 = tune::tunerStats();
    tune::AlgoChoice again = tune::selectAlgorithm(spec);
    const tune::TunerStats s1 = tune::tunerStats();
    EXPECT_EQ(s1.memoHits, s0.memoHits + 1);
    EXPECT_EQ(again.kind, first.kind);
    EXPECT_EQ(again.m, first.m);
}

// --------------------------------------------------- decomposition terms

TEST(Decomposition, TermCountsMatchTheDwmFormula)
{
    EXPECT_EQ(decomposeSpec(makeSpec(1, 1, 1, 12, 12, 5, 5, 1, 1)).size(),
              4u);
    EXPECT_EQ(decomposeSpec(makeSpec(1, 1, 1, 12, 12, 7, 7, 1, 1)).size(),
              9u);
    EXPECT_EQ(decomposeSpec(makeSpec(1, 1, 1, 13, 13, 3, 3, 2, 2)).size(),
              4u);
    EXPECT_EQ(decomposeSpec(makeSpec(1, 1, 1, 14, 14, 5, 5, 2, 2)).size(),
              4u);
    EXPECT_EQ(decomposeSpec(makeSpec(1, 1, 1, 11, 9, 5, 3, 1, 1)).size(),
              2u);
    EXPECT_TRUE(decompSupported(makeSpec(1, 1, 1, 12, 12, 11, 11, 3, 3)));
    EXPECT_FALSE(decompSupported(makeSpec(1, 1, 1, 12, 12, 13, 13, 1, 1)));
}

// ----------------------------------------------------- decomposed parity

struct DecompShape
{
    int batch, in_ch, out_ch, h, w, kh, kw, sh, sw, m;
};

class DecompParityP : public ::testing::TestWithParam<DecompShape>
{
};

/**
 * Forward through the decomposed plan must reproduce the generalized
 * direct oracle within the F(m,3) error budget, and must be bitwise
 * identical across thread counts (per ISA — vector width changes the
 * FP contraction order). The inner plan runs one tile range or several
 * as its own shape decides; the last shape is large enough to split.
 */
TEST_P(DecompParityP, MatchesDirectOracleBitwiseAcrossSchedules)
{
    TunerGuard guard;
    const DecompShape p = GetParam();
    const ConvSpec spec = makeSpec(p.batch, p.in_ch, p.out_ch, p.h, p.w,
                                   p.kh, p.kw, p.sh, p.sw);
    ASSERT_TRUE(decompSupported(spec));

    Rng rng(99);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.kh, p.kw);
    x.fillUniform(rng);
    w.fillUniform(rng);
    const Tensor y_oracle = directConvForward(
        x, w, p.sh, p.sw, spec.padHEff(), spec.padWEff());

    float scale = 0.0f;
    for (size_t i = 0; i < y_oracle.size(); ++i)
        scale = std::max(scale, std::fabs(y_oracle.data()[i]));
    const float tol =
        float(tune::winogradMaxRelError(p.m, 3)) * 10.0f * scale;

    // A plan captures the ISA at construction: one per level.
    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        ScopedExecConfig isaScope(withIsa(isa));
        WinoDecompPlan plan(spec, algoForTile(p.m));
        plan.setWeights(w);
        ASSERT_EQ(plan.terms(), int(decomposeSpec(spec).size()));
        Tensor y_ref(p.batch, p.out_ch, spec.outH(), spec.outW());
        ThreadPool::global().setThreadCount(1);
        plan.forwardInto(x, y_ref);
        EXPECT_LE(y_ref.maxAbsDiff(y_oracle), tol)
            << "isa " << mk::isaName(isa);

        Tensor y(p.batch, p.out_ch, spec.outH(), spec.outW());
        for (int threads : {1, 8}) {
            ThreadPool::global().setThreadCount(threads);
            y.fill(-1.0f); // poison: every element must be stored
            plan.forwardInto(x, y);
            EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f)
                << "isa " << mk::isaName(isa) << " threads " << threads;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompParityP,
    ::testing::Values(DecompShape{2, 3, 4, 12, 12, 5, 5, 1, 1, 4},
                      DecompShape{1, 2, 3, 12, 12, 7, 7, 1, 1, 4},
                      DecompShape{2, 3, 4, 13, 13, 3, 3, 2, 2, 4},
                      DecompShape{1, 2, 3, 14, 14, 5, 5, 2, 2, 2},
                      DecompShape{1, 2, 3, 11, 9, 5, 3, 1, 1, 4},
                      DecompShape{2, 2, 3, 9, 10, 5, 5, 1, 1, 6},
                      // serve_auto's stem: 9 terms x 3 channels = 27
                      // inner channels, a ragged last 8-row block.
                      DecompShape{2, 3, 32, 32, 32, 7, 7, 2, 2, 6},
                      // Inner plan 4 x 64 -> 16 on 32x32, F(4,3):
                      // 256 tiles, so its eval forwards split into
                      // tile ranges.
                      DecompShape{4, 16, 16, 60, 60, 3, 3, 2, 2, 4}),
    [](const ::testing::TestParamInfo<DecompShape> &info) {
        const DecompShape &p = info.param;
        return detail::concatMessage("b", p.batch, "k", p.kh, "x", p.kw,
                                     "s", p.sh, "h", p.h, "w", p.w, "F",
                                     p.m);
    });

TEST(DecompParity, LargeInnerPlanReallyFuses)
{
    // Guards the last DecompParityP shape: if the range rule or the
    // gather geometry changes so its inner plan runs one range, the
    // multi-range inner coverage is gone. Every term runs in that one
    // inner forward.
    TunerGuard guard;
    const ConvSpec spec = makeSpec(4, 16, 16, 60, 60, 3, 3, 2, 2);
    Rng rng(99);
    Tensor x(4, 16, 60, 60);
    Tensor w(16, 16, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    WinoDecompPlan plan(spec, algoForTile(4));
    plan.setWeights(w);
    Tensor y(4, 16, spec.outH(), spec.outW());
    test::MetricsProbe probe;
    plan.forwardInto(x, y);
    EXPECT_EQ(probe.fusedForwards(), 1.0);
}

// ---------------------------------------------------- on-disk tune cache

TEST(TunerCache, RoundTripsDecisionsAcrossProcessesAndRetunesNothing)
{
    TunerGuard guard;
    const std::string path =
        ::testing::TempDir() + "winomc_tuner_cache_test.txt";
    std::remove(path.c_str());
    tune::setTuneCachePath(path.c_str());
    tune::resetTunerForTest();

    const ConvSpec a = makeSpec(4, 8, 8, 12, 12, 5, 5, 1, 1);
    const ConvSpec b = makeSpec(4, 8, 8, 13, 13, 3, 3, 2, 2);
    const tune::TunerStats s0 = tune::tunerStats();
    const tune::AlgoChoice ca = tune::selectAlgorithm(a);
    const tune::AlgoChoice cb = tune::selectAlgorithm(b);
    EXPECT_FALSE(ca.fromCache);
    EXPECT_FALSE(cb.fromCache);
    const tune::TunerStats s1 = tune::tunerStats();
    EXPECT_EQ(s1.cacheMisses, s0.cacheMisses + 2);

    // "Second run": drop the memo and the loaded map, keep the file.
    tune::resetTunerForTest();
    const tune::AlgoChoice ca2 = tune::selectAlgorithm(a);
    const tune::AlgoChoice cb2 = tune::selectAlgorithm(b);
    const tune::TunerStats s2 = tune::tunerStats();
    EXPECT_TRUE(ca2.fromCache);
    EXPECT_TRUE(cb2.fromCache);
    EXPECT_EQ(s2.cacheHits, s1.cacheHits + 2);
    EXPECT_EQ(ca2.kind, ca.kind);
    EXPECT_EQ(ca2.m, ca.m);
    EXPECT_EQ(cb2.kind, cb.kind);
    EXPECT_EQ(cb2.m, cb.m);
    std::remove(path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

TEST(TunerCache, WritesAtomicallyAndLeavesNoTempFile)
{
    TunerGuard guard;
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) /
                         "winomc_tuner_atomic_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "cache.txt").string();
    tune::setTuneCachePath(path.c_str());
    tune::resetTunerForTest();

    tune::selectAlgorithm(makeSpec(4, 8, 8, 12, 12, 5, 5, 1, 1));
    tune::selectAlgorithm(makeSpec(4, 8, 8, 13, 13, 3, 3, 2, 2));

    // Only the cache itself remains: the temp file was renamed over it.
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    ASSERT_EQ(names, std::vector<std::string>{"cache.txt"});

    // Complete: two header lines, then one 5-field line per key, each
    // newline-terminated.
    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream lines(text);
    std::string line;
    int headers = 0, entries = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("#", 0) == 0) {
            ++headers;
            continue;
        }
        std::istringstream fields(line);
        std::string key, algo;
        int m = 0;
        double pred = 0, meas = 0;
        EXPECT_TRUE(bool(fields >> key >> algo >> m >> pred >> meas))
            << line;
        ++entries;
    }
    EXPECT_EQ(headers, 2);
    EXPECT_EQ(entries, 2);
    fs::remove_all(dir);
}

TEST(TunerCache, TruncatedFileLoadsAndRetunesOnlyTheMissingKeys)
{
    TunerGuard guard;
    const std::string path =
        ::testing::TempDir() + "winomc_tuner_truncated_test.txt";
    std::remove(path.c_str());
    tune::setTuneCachePath(path.c_str());
    tune::resetTunerForTest();

    const std::vector<ConvSpec> specs = {
        makeSpec(4, 8, 8, 12, 12, 5, 5, 1, 1),
        makeSpec(2, 16, 16, 16, 16, 3, 3, 1, 1)};
    // Cache keys carry the config key ("_sp" under WINOMC_SPARSE=on).
    auto keyOf = [](const ConvSpec &spec) {
        return spec.key() + execConfig().key();
    };
    std::map<std::string, tune::AlgoChoice> tuned;
    for (const ConvSpec &spec : specs)
        tuned[keyOf(spec)] = tune::selectAlgorithm(spec);
    const std::string full = readFile(path);

    // Offset of the newline ending each key's line: a prefix keeps the
    // key iff it holds that whole line (the newline itself optional).
    std::map<std::string, std::size_t> lineEnd;
    for (std::size_t pos = 0; pos < full.size();) {
        const std::size_t end = full.find('\n', pos);
        ASSERT_NE(end, std::string::npos);
        if (full[pos] != '#')
            lineEnd[full.substr(pos, full.find(' ', pos) - pos)] = end;
        pos = end + 1;
    }
    ASSERT_EQ(lineEnd.size(), specs.size());

    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        writeFile(path, full.substr(0, cut));
        tune::resetTunerForTest();
        const tune::TunerStats s0 = tune::tunerStats();
        std::uint64_t kept = 0;
        for (const ConvSpec &spec : specs) {
            const std::string key = keyOf(spec);
            const bool intact = lineEnd.at(key) <= cut;
            kept += intact;
            const tune::AlgoChoice c = tune::selectAlgorithm(spec);
            EXPECT_EQ(c.fromCache, intact) << key << " cut " << cut;
            EXPECT_EQ(c.kind, tuned[key].kind) << "cut " << cut;
            EXPECT_EQ(c.m, tuned[key].m) << "cut " << cut;
        }
        const tune::TunerStats s1 = tune::tunerStats();
        EXPECT_EQ(s1.cacheHits - s0.cacheHits, kept) << "cut " << cut;
        EXPECT_EQ(s1.cacheMisses - s0.cacheMisses, specs.size() - kept)
            << "cut " << cut;
    }
    std::remove(path.c_str());
}

TEST(TunerCache, KeysOfTheExistingFileFormatStillResolve)
{
    // A cache file as earlier versions wrote it: the fp32-dense key is
    // the bare ConvSpec key, other configs append "_bf16"/"_fp16" then
    // "_sp". The picks below differ per key, so each select proves
    // which line it resolved through.
    TunerGuard guard;
    const std::string path =
        ::testing::TempDir() + "winomc_tuner_keys_test.txt";
    writeFile(path,
              "# winomc tuning cache v1\n"
              "# <key> <algo> <m> <predicted_ms> <measured_ms>\n"
              "b4_c8x8_in12x12_k5x5_s1x1_p2x2 decomposed 2 0.25 0\n"
              "b4_c8x8_in12x12_k5x5_s1x1_p2x2_bf16_sp decomposed 6 "
              "0.5 0.75\n");
    tune::setTuneCachePath(path.c_str());
    tune::resetTunerForTest();
    const ConvSpec spec = makeSpec(4, 8, 8, 12, 12, 5, 5, 1, 1);
    const std::uint64_t misses0 = tune::tunerStats().cacheMisses;

    {
        ScopedExecConfig fp32Dense([](ExecConfig &c) {
            c.prec = Prec::F32;
            c.sparse = false;
        });
        const tune::AlgoChoice dense = tune::selectAlgorithm(spec);
        EXPECT_TRUE(dense.fromCache);
        EXPECT_EQ(dense.kind, tune::AlgoKind::Decomposed);
        EXPECT_EQ(dense.m, 2);
    }

    ScopedExecConfig bf16Sparse([](ExecConfig &c) {
        c.prec = Prec::Bf16;
        c.sparse = true;
    });
    const tune::AlgoChoice half = tune::selectAlgorithm(spec);
    EXPECT_TRUE(half.fromCache);
    EXPECT_EQ(half.kind, tune::AlgoKind::Decomposed);
    EXPECT_EQ(half.m, 6);
    EXPECT_DOUBLE_EQ(half.measuredMs, 0.75);
    EXPECT_EQ(tune::tunerStats().cacheMisses, misses0);
    std::remove(path.c_str());
}

// -------------------------------------------------------- ConvMode::Auto

TEST(ConvLayerAuto, Plain3x3SelectsWinogradAndMatchesDirect)
{
    TunerGuard guard;
    Rng rng(7);
    nn::ConvLayer layer(8, 8, 3, 3, 1, 1, rng);
    EXPECT_EQ(layer.mode(), nn::ConvMode::Auto);
    EXPECT_EQ(layer.name(), "conv_auto");

    Tensor x(2, 8, 24, 24);
    x.fillUniform(rng);
    Tensor y = layer.forward(x, false);
    EXPECT_EQ(layer.autoChoice().kind, tune::AlgoKind::Winograd);
    EXPECT_EQ(layer.autoChoice().m, 4);

    const Tensor y_ref =
        directConvForward(x, layer.spatialWeights(), 1, 1, 1, 1);
    float scale = 0.0f;
    for (size_t i = 0; i < y_ref.size(); ++i)
        scale = std::max(scale, std::fabs(y_ref.data()[i]));
    EXPECT_LE(y.maxAbsDiff(y_ref), 1e-4f * scale);
}

TEST(ConvLayerAuto, FiveByFiveRunsDecomposedAndTrains)
{
    TunerGuard guard;
    Rng rng(11);
    nn::ConvLayer layer(32, 32, 5, 5, 1, 1, rng);
    Tensor x(2, 32, 20, 20);
    x.fillUniform(rng);

    Tensor y = layer.forward(x, true);
    ASSERT_EQ(layer.autoChoice().kind, tune::AlgoKind::Decomposed);
    ASSERT_NE(layer.decomposedPlan(), nullptr);
    EXPECT_EQ(y.h(), 20);
    EXPECT_EQ(y.w(), 20);

    // Parity of the decomposed fast path against the direct oracle.
    const Tensor y_ref =
        directConvForward(x, layer.spatialWeights(), 1, 1, 2, 2);
    float scale = 0.0f;
    for (size_t i = 0; i < y_ref.size(); ++i)
        scale = std::max(scale, std::fabs(y_ref.data()[i]));
    EXPECT_LE(y.maxAbsDiff(y_ref), 1e-3f * scale);

    // Gradients flow (direct adjoints) and the post-step forward uses
    // the re-split weights.
    Tensor dy(2, 32, 20, 20);
    dy.fillUniform(rng);
    Tensor dx = layer.backward(dy);
    EXPECT_EQ(dx.h(), 20);
    EXPECT_EQ(dx.w(), 20);
    const Tensor w_before = layer.spatialWeights();
    layer.step(0.05f);
    EXPECT_GT(layer.spatialWeights().maxAbsDiff(w_before), 0.0f);

    Tensor y2 = layer.forward(x, false);
    const Tensor y2_ref =
        directConvForward(x, layer.spatialWeights(), 1, 1, 2, 2);
    EXPECT_LE(y2.maxAbsDiff(y2_ref), 1e-3f * scale);
}

TEST(ConvLayerAuto, StridedForwardWorksAndTrainingAsserts)
{
    TunerGuard guard;
    Rng rng(13);
    nn::ConvLayer layer(2, 3, 3, 3, 2, 2, rng);
    Tensor x(2, 2, 13, 13);
    x.fillUniform(rng);

    Tensor y = layer.forward(x, true);
    EXPECT_EQ(y.h(), 7);
    EXPECT_EQ(y.w(), 7);
    const Tensor y_ref =
        directConvForward(x, layer.spatialWeights(), 2, 2, 1, 1);
    float scale = 0.0f;
    for (size_t i = 0; i < y_ref.size(); ++i)
        scale = std::max(scale, std::fabs(y_ref.data()[i]));
    EXPECT_LE(y.maxAbsDiff(y_ref), 1e-3f * scale);

    Tensor dy(2, 3, 7, 7);
    dy.fillUniform(rng);
    EXPECT_DEATH(layer.backward(dy), "unsupported");
}

TEST(ConvLayerAuto, SteadyStateTrainingAllocatesNothing)
{
    TunerGuard guard;
    Rng rng(17);
    nn::ConvLayer layer(32, 32, 5, 5, 1, 1, rng);
    Tensor x(2, 32, 20, 20);
    Tensor dy(2, 32, 20, 20);
    x.fillUniform(rng);
    dy.fillUniform(rng);

    auto iterate = [&] {
        (void)layer.forward(x, true);
        (void)layer.backward(dy);
        layer.step(0.01f);
    };
    iterate(); // warm-up: plan build, weight split, pool population
    iterate();
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 3; ++i)
        iterate();
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "steady-state Auto training iterations must reuse pooled "
           "slabs only";
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ConvLayerAuto, TileSizeFlipsKeepEachSizesWeights)
{
    // serve_auto's last conv: batch 1, 32 -> 32, 3x3 on the 8x8 and
    // 6x6 maps of its two image sizes.
    TunerGuard guard;
    auto layer = [] {
        Rng rng(19);
        return nn::ConvLayer(32, 32, 3, 3, 1, 1, rng);
    };
    Rng rng(23);
    Tensor big(1, 32, 8, 8), small(1, 32, 6, 6), dy(1, 32, 8, 8);
    big.fillUniform(rng);
    small.fillUniform(rng);
    dy.fillUniform(rng);

    nn::ConvLayer flip = layer();
    const Tensor yBig = flip.forward(big, false);
    const tune::AlgoChoice bigChoice = flip.autoChoice();
    const Tensor ySmall = flip.forward(small, false);
    const tune::AlgoChoice smallChoice = flip.autoChoice();
    ASSERT_EQ(bigChoice.kind, tune::AlgoKind::Winograd);
    ASSERT_EQ(smallChoice.kind, tune::AlgoKind::Winograd);
    ASSERT_NE(bigChoice.m, smallChoice.m)
        << "the shapes must bind different tile sizes";

    // Flipped forwards equal a fresh layer's first forward.
    nn::ConvLayer freshSmall = layer();
    EXPECT_TRUE(sameBits(ySmall, freshSmall.forward(small, false)));
    EXPECT_TRUE(sameBits(flip.forward(big, false), yBig));
    EXPECT_TRUE(sameBits(flip.forward(small, false), ySmall));

    // A step at one tile size, then a flip back to the other: the
    // forward runs the updated weights, as a layer meeting that shape
    // for the first time after the step does.
    nn::ConvLayer stepped = layer();
    for (nn::ConvLayer *l : {&flip, &stepped}) {
        (void)l->forward(big, true);
        (void)l->backward(dy);
        l->step(0.05f);
    }
    const Tensor yAfter = stepped.forward(small, false);
    EXPECT_FALSE(sameBits(yAfter, ySmall));
    EXPECT_TRUE(sameBits(flip.forward(small, false), yAfter));
    EXPECT_TRUE(sameBits(flip.forward(big, false),
                         stepped.forward(big, false)));
}

} // namespace
} // namespace winomc
