/**
 * @file
 * ExecConfig tests: the one table-driven parse of the four WINOMC_*
 * knobs (trim, case, aliases, garbage -> default, names that parse
 * back), checked whole and in per-knob slices, scoped overrides
 * that restore exactly, and lock-free reads from pool workers while
 * another thread swaps scopes (run under TSan via ctest -L
 * concurrency).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "winograd/exec_config.hh"
#include "winograd/microkernel.hh"

#include "exec_scope.hh"

namespace winomc {
namespace {

/** parseExecConfig over a fake environment. */
ExecConfig
parseFrom(const std::map<std::string, const char *> &env)
{
    return parseExecConfig([&](const char *var) -> const char * {
        auto it = env.find(var);
        return it == env.end() ? nullptr : it->second;
    });
}

// ---------------------------------------------------------- Parsing

/** One row of the parse table: a knob's value and the config it yields. */
struct Row
{
    const char *var;
    const char *value; ///< nullptr = unset
    bool accepted;     ///< false: unset or garbage, falls back
    ExecConfig want;
};

/** The one parse table over all four knobs. */
std::vector<Row>
parseRows()
{
    using mk::Isa;
    using tune::TuneMode;
    const ExecConfig dflt;
    auto with = [&](void (*edit)(ExecConfig &)) {
        ExecConfig c = dflt;
        edit(c);
        return c;
    };
    return {
        // WINOMC_ISA
        {"WINOMC_ISA", "auto", true, dflt},
        {"WINOMC_ISA", "scalar", true,
         with([](ExecConfig &c) { c.isa = Isa::Scalar; })},
        {"WINOMC_ISA", "avx2", true,
         with([](ExecConfig &c) { c.isa = Isa::Avx2; })},
        {"WINOMC_ISA", "avx512", true,
         with([](ExecConfig &c) { c.isa = Isa::Avx512; })},
        {"WINOMC_ISA", "  AVX2 \n", true,
         with([](ExecConfig &c) { c.isa = Isa::Avx2; })},
        {"WINOMC_ISA", "Scalar", true,
         with([](ExecConfig &c) { c.isa = Isa::Scalar; })},
        {"WINOMC_ISA", nullptr, false, dflt},
        {"WINOMC_ISA", "", false, dflt},
        {"WINOMC_ISA", "   ", false, dflt},
        {"WINOMC_ISA", "fastest", false, dflt},
        {"WINOMC_ISA", "avx9999", false, dflt},
        {"WINOMC_ISA", "512", false, dflt},
        {"WINOMC_ISA", "avx2 avx512", false, dflt},
        {"WINOMC_ISA", "sse2", false, dflt}, // a retired level
        // WINOMC_PREC
        {"WINOMC_PREC", "fp32", true, dflt},
        {"WINOMC_PREC", "fp16", true,
         with([](ExecConfig &c) { c.prec = Prec::F16; })},
        {"WINOMC_PREC", "bf16", true,
         with([](ExecConfig &c) { c.prec = Prec::Bf16; })},
        {"WINOMC_PREC", "  BF16  ", true,
         with([](ExecConfig &c) { c.prec = Prec::Bf16; })},
        {"WINOMC_PREC", "FP16", true,
         with([](ExecConfig &c) { c.prec = Prec::F16; })},
        {"WINOMC_PREC", nullptr, false, dflt},
        {"WINOMC_PREC", "", false, dflt},
        {"WINOMC_PREC", "int8", false, dflt},
        {"WINOMC_PREC", "fast", false, dflt},
        // WINOMC_SPARSE
        {"WINOMC_SPARSE", "on", true,
         with([](ExecConfig &c) { c.sparse = true; })},
        {"WINOMC_SPARSE", "1", true,
         with([](ExecConfig &c) { c.sparse = true; })},
        {"WINOMC_SPARSE", "TRUE", true,
         with([](ExecConfig &c) { c.sparse = true; })},
        {"WINOMC_SPARSE", "off", true, dflt},
        {"WINOMC_SPARSE", "0", true, dflt},
        {"WINOMC_SPARSE", "false", true, dflt},
        {"WINOMC_SPARSE", nullptr, false, dflt},
        {"WINOMC_SPARSE", "", false, dflt},
        {"WINOMC_SPARSE", "maybe", false, dflt},
        // WINOMC_TUNE
        {"WINOMC_TUNE", "off", true,
         with([](ExecConfig &c) { c.tune = TuneMode::Off; })},
        {"WINOMC_TUNE", "analytic", true, dflt},
        {"WINOMC_TUNE", "measure", true,
         with([](ExecConfig &c) { c.tune = TuneMode::Measure; })},
        {"WINOMC_TUNE", " OFF ", true,
         with([](ExecConfig &c) { c.tune = TuneMode::Off; })},
        {"WINOMC_TUNE", "Measure\n", true,
         with([](ExecConfig &c) { c.tune = TuneMode::Measure; })},
        {"WINOMC_TUNE", nullptr, false, dflt},
        {"WINOMC_TUNE", "", false, dflt},
        {"WINOMC_TUNE", "fastest", false, dflt},
    };
}

enum class Rows { Accepted, FallBack, All };

/**
 * Check the table rows of @p var (all vars if nullptr) of kind
 * @p which; returns how many rows were checked. A row must parse to
 * its config, warn exactly once if it is set but not accepted (never
 * otherwise), and an ISA row must run the table its config resolves
 * to.
 */
int
checkRows(const char *var, Rows which)
{
    const int level = logLevel();
    setLogLevel(1);
    int n = 0;
    for (const Row &r : parseRows()) {
        if (var && std::string(var) != r.var)
            continue;
        if ((which == Rows::Accepted && !r.accepted) ||
            (which == Rows::FallBack && r.accepted))
            continue;
        std::map<std::string, const char *> env;
        if (r.value)
            env[r.var] = r.value;
        testing::internal::CaptureStderr();
        const ExecConfig got = parseFrom(env);
        const std::string err = testing::internal::GetCapturedStderr();
        const std::string row = std::string(r.var) + "='" +
                                (r.value ? r.value : "(unset)") + "'";
        EXPECT_TRUE(got == r.want) << row;
        int warns = 0;
        for (auto at = err.find("warn:"); at != std::string::npos;
             at = err.find("warn:", at + 1))
            ++warns;
        EXPECT_EQ(warns, r.value && *r.value && !r.accepted ? 1 : 0)
            << row << ": " << err;
        if (std::string(r.var) == "WINOMC_ISA") {
            ScopedExecConfig seeded(got);
            EXPECT_EQ(mk::kernels().isa, mk::resolveIsa(r.want.isa)) << row;
        }
        ++n;
    }
    setLogLevel(level);
    return n;
}

// Per-knob slices of the table, one suite per knob.

TEST(SimdTest, ParseIsaAcceptsKnownNamesCaseAndSpaceInsensitive)
{
    EXPECT_GT(checkRows("WINOMC_ISA", Rows::Accepted), 0);
}

TEST(SimdTest, ParseIsaRejectsGarbageToAuto)
{
    EXPECT_GT(checkRows("WINOMC_ISA", Rows::FallBack), 0);
}

TEST(LowPrecKnobs, ParsePrecAcceptsAliasesAndRejectsGarbage)
{
    EXPECT_GT(checkRows("WINOMC_PREC", Rows::Accepted), 0);
    EXPECT_GT(checkRows("WINOMC_PREC", Rows::FallBack), 0);
}

TEST(LowPrecKnobs, ParseSparseAcceptsBooleanSpellings)
{
    EXPECT_GT(checkRows("WINOMC_SPARSE", Rows::Accepted), 0);
    EXPECT_GT(checkRows("WINOMC_SPARSE", Rows::FallBack), 0);
}

TEST(TuneKnob, ParsesTokensCaseInsensitivelyAndTrimmed)
{
    EXPECT_GT(checkRows("WINOMC_TUNE", Rows::Accepted), 0);
}

TEST(TuneKnob, GarbageAndUnsetFallBackToAnalytic)
{
    EXPECT_GT(checkRows("WINOMC_TUNE", Rows::FallBack), 0);
}

TEST(ExecConfigParse, TableOverAllFiveFields)
{
    using mk::Isa;
    using tune::TuneMode;
    const ExecConfig dflt;
    EXPECT_EQ(dflt.isa, Isa::Auto);
    EXPECT_EQ(dflt.prec, Prec::F32);
    EXPECT_FALSE(dflt.sparse);
    EXPECT_EQ(dflt.tune, TuneMode::Analytic);

    EXPECT_EQ(checkRows(nullptr, Rows::All),
              static_cast<int>(parseRows().size()));

    // All four at once: each field reads only its own variable.
    const ExecConfig all = parseFrom({{"WINOMC_ISA", "scalar"},
                                      {"WINOMC_PREC", "bf16"},
                                      {"WINOMC_SPARSE", "on"},
                                      {"WINOMC_TUNE", "measure"}});
    EXPECT_EQ(all.isa, Isa::Scalar);
    EXPECT_EQ(all.prec, Prec::Bf16);
    EXPECT_TRUE(all.sparse);
    EXPECT_EQ(all.tune, TuneMode::Measure);
    // All four garbage: the default config, never an abort.
    EXPECT_TRUE(parseFrom({{"WINOMC_ISA", "x"},
                           {"WINOMC_PREC", "x"},
                           {"WINOMC_SPARSE", "x"},
                           {"WINOMC_TUNE", "x"}}) == dflt);

    // Every value's name parses back to it.
    for (TuneMode m : {TuneMode::Off, TuneMode::Analytic, TuneMode::Measure})
        EXPECT_EQ(parseFrom({{"WINOMC_TUNE", tune::tuneModeName(m)}}).tune,
                  m);
    for (Prec p : {Prec::F32, Prec::F16, Prec::Bf16})
        EXPECT_EQ(parseFrom({{"WINOMC_PREC", precName(p)}}).prec, p);
    for (Isa isa : mk::kIsaLadder)
        EXPECT_EQ(parseFrom({{"WINOMC_ISA", mk::isaName(isa)}}).isa, isa);
    EXPECT_EQ(parseFrom({{"WINOMC_ISA", mk::isaName(Isa::Auto)}}).isa,
              Isa::Auto);
}

// ------------------------------------------------------------ Scopes

TEST(ExecConfigScope, OverridesExactlyAndRestoresOnExit)
{
    using tune::TuneMode;
    const ExecConfig seeded = execConfig();
    {
        ScopedExecConfig off(test::withTune(TuneMode::Off));
        EXPECT_EQ(execConfig().tune, TuneMode::Off);
        {
            ScopedExecConfig measure(test::withTune(TuneMode::Measure));
            EXPECT_EQ(execConfig().tune, TuneMode::Measure);
            ScopedExecConfig analytic(test::withTune(TuneMode::Analytic));
            EXPECT_EQ(execConfig().tune, TuneMode::Analytic);
        }
        EXPECT_EQ(execConfig().tune, TuneMode::Off);
        // Every other field kept its seeded value.
        ExecConfig want = seeded;
        want.tune = TuneMode::Off;
        EXPECT_TRUE(execConfig() == want);
    }
    EXPECT_TRUE(execConfig() == seeded);

    // A whole-config scope replaces every field.
    ExecConfig whole;
    whole.isa = mk::Isa::Scalar;
    whole.prec = Prec::F16;
    whole.sparse = true;
    whole.tune = tune::TuneMode::Off;
    {
        ScopedExecConfig s(whole);
        EXPECT_TRUE(execConfig() == whole);
        EXPECT_EQ(mk::activeIsa(), mk::Isa::Scalar);
    }
    EXPECT_TRUE(execConfig() == seeded);
}

TEST(ExecConfigScope, PoolWorkersReadWholeConfigsWhileScopesChange)
{
    // Pool workers read the config while the main thread holds a scope
    // and a second thread swaps nested scopes between two configs that
    // differ in every field: each read must be one of them, whole.
    test::ExecScope guard;
    ThreadPool::global().setThreadCount(4);
    ExecConfig a;
    a.isa = mk::Isa::Scalar;
    a.tune = tune::TuneMode::Off;
    ExecConfig b;
    b.isa = mk::Isa::Auto;
    b.prec = Prec::Bf16;
    b.sparse = true;
    b.tune = tune::TuneMode::Measure;
    ScopedExecConfig held(a);

    std::atomic<bool> done{false};
    std::thread swapper([&] {
        while (!done.load(std::memory_order_relaxed)) {
            ScopedExecConfig s(b);
        }
    });
    std::atomic<int> torn{0};
    for (int rep = 0; rep < 20; ++rep) {
        parallelFor(0, 4096, 64, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
                const ExecConfig c = execConfig();
                if (!(c == a) && !(c == b))
                    torn.fetch_add(1, std::memory_order_relaxed);
                (void)mk::kernels();
            }
        });
    }
    done = true;
    swapper.join();
    EXPECT_EQ(torn.load(), 0);
    EXPECT_TRUE(execConfig() == a);
}

} // namespace
} // namespace winomc
