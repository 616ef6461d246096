#include "winograd/tuner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/cost.hh"
#include "winograd/plan.hh"
#include "winograd/tiling.hh"

namespace winomc::tune {

namespace {

// ------------------------------------------- analytic host roofline
//
// Calibrated against the committed BENCH_wino.json stage rates on the
// reference host: the element-wise GEMM stage runs near the vector
// peak, and the transform stages run below it. Those rates predate
// the tabled transforms (DESIGN §4.10: straight-line sandwiches over
// compile-time F(m,3) coefficients and a gathered tile pack), which
// run the stages 2-3x faster; kXfGflops keeps the old rate until the
// tuner's rates come from an on-host probe, so picks do not move.
// Efficiency drops with the tile edge — the large-alpha transform
// matrices are dense in non-trivial coefficients, so the
// "2*alpha^3 MACs" upper bound the cost model charges is increasingly
// real work. The absolute numbers matter less than the ratios: they
// are what ranks F(4,3) above F(6,3) on the paper's layer shapes,
// matching measurement.
//
// kEwGflops, too, now undershoots: the register-blocked forward and
// backward-data kernel (mk::rowBlockAccum) runs BM_ElementwiseForward
// at ~58 GFLOP/s and its 64-lane small-map row at ~89 GFLOP/s (1
// thread, AVX-512, 4-vCPU host). It keeps 25 so picks do not move
// until the rates are calibrated on the host.
//
// kDirectGflops undershoots most of all: the register-blocked direct
// row kernel (mk::directRow) runs BM_DirectConv5x5 and
// BM_DirectConvStride2 at ~24 GFLOP/s and serve_auto's strided layers
// at 17-30 GFLOP/s (same host). It keeps 6 for the same reason: the
// analytic picks must not move before the rates are calibrated.

constexpr double kDirectGflops = 6.0; ///< direct conv loops
constexpr double kEwGflops = 25.0;    ///< element-wise GEMM stage
constexpr double kXfGflops = 8.0;     ///< transforms at alpha = 6
constexpr double kDramGBps = 8.0;     ///< streamed slab traffic

// ------------------------------------------------- numeric safety

/** fp32 error budget: largest acceptable relative error vs direct. */
constexpr double kSafeRelError = 1e-4;

// --------------------------------------------------- tuner state

struct TunerState
{
    std::mutex mu;
    std::map<std::string, AlgoChoice> memo; ///< in-process winners
    std::map<std::string, AlgoChoice> disk; ///< loaded cache file
    bool diskLoaded = false;
    bool havePathOverride = false;
    std::string pathOverride;
    TunerStats stats;
};

TunerState &
state()
{
    static TunerState s;
    return s;
}

std::string
cachePath(const TunerState &s)
{
    if (s.havePathOverride)
        return s.pathOverride;
    const char *env = std::getenv("WINOMC_TUNE_CACHE");
    return env ? std::string(env) : std::string();
}

AlgoKind
parseKind(const std::string &s, bool &ok)
{
    ok = true;
    if (s == "direct")
        return AlgoKind::Direct;
    if (s == "winograd")
        return AlgoKind::Winograd;
    if (s == "decomposed")
        return AlgoKind::Decomposed;
    ok = false;
    return AlgoKind::Direct;
}

/** Parse the cache file into s.disk (best effort, warns on damage). */
void
loadDiskLocked(TunerState &s)
{
    if (s.diskLoaded)
        return;
    s.diskLoaded = true;
    const std::string path = cachePath(s);
    if (path.empty())
        return;
    std::ifstream in(path);
    if (!in)
        return; // no cache yet — first run
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, kindName;
        AlgoChoice ch;
        if (!(ls >> key >> kindName >> ch.m >> ch.predictedMs >>
              ch.measuredMs)) {
            winomc_warn("ignoring malformed tuning-cache line in ",
                        path, ": '", line, "'");
            continue;
        }
        bool ok = false;
        ch.kind = parseKind(kindName, ok);
        if (!ok) {
            winomc_warn("ignoring unknown algorithm '", kindName,
                        "' in tuning cache ", path);
            continue;
        }
        ch.fromCache = true;
        s.disk[key] = ch;
    }
}

/**
 * Rewrite the cache file from the union of disk + memo winners. The
 * new contents go to <path>.tmp.<pid> and replace the file by rename,
 * so a reader (or a crash mid-write) never sees a partial cache; on
 * any failure the old file stays intact.
 */
void
storeDiskLocked(TunerState &s)
{
    const std::string path = cachePath(s);
    if (path.empty())
        return;
    std::map<std::string, AlgoChoice> all = s.disk;
    for (const auto &kv : s.memo)
        all[kv.first] = kv.second;
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << "# winomc tuning cache v1\n"
            << "# <key> <algo> <m> <predicted_ms> <measured_ms>\n";
        for (const auto &kv : all) {
            const AlgoChoice &ch = kv.second;
            out << kv.first << ' ' << algoKindName(ch.kind) << ' '
                << ch.m << ' ' << ch.predictedMs << ' ' << ch.measuredMs
                << '\n';
        }
        out.close();
        if (out) {
            if (std::rename(tmp.c_str(), path.c_str()) == 0)
                return;
        }
    }
    winomc_warn("cannot write tuning cache ", path,
                "; keeping the previous file");
    std::remove(tmp.c_str());
}

/** Is a plain F(m,3) pipeline applicable (no decomposition needed)? */
bool
plain3x3(const ConvSpec &spec)
{
    return spec.samePadded() && spec.squareKernel() &&
           spec.kernelH() == 3;
}

/** Is a cached/computed choice legal for this spec at all? */
bool
choiceLegal(const ConvSpec &spec, const AlgoChoice &ch)
{
    switch (ch.kind) {
      case AlgoKind::Direct:
        return true;
      case AlgoKind::Winograd:
        return plain3x3(spec) && numericallySafe(ch.m, 3);
      case AlgoKind::Decomposed:
        return decompSupported(spec) && numericallySafe(ch.m, 3);
    }
    return false;
}

std::vector<AlgoChoice>
candidatesFor(const ConvSpec &spec)
{
    std::vector<AlgoChoice> cs;
    cs.push_back({AlgoKind::Direct, 0, 0, 0, false});
    for (int m : {2, 4, 6}) {
        if (!numericallySafe(m, 3))
            continue;
        if (plain3x3(spec))
            cs.push_back({AlgoKind::Winograd, m, 0, 0, false});
        else if (decompSupported(spec))
            cs.push_back({AlgoKind::Decomposed, m, 0, 0, false});
    }
    return cs;
}

/** The WINOMC_TUNE=off static policy: paper default, no cost model. */
AlgoChoice
heuristicChoice(const ConvSpec &spec)
{
    AlgoChoice ch;
    if (plain3x3(spec)) {
        ch.kind = AlgoKind::Winograd;
        ch.m = 4;
    } else if (decompSupported(spec) &&
               spec.kernelH() * spec.kernelW() > 1) {
        ch.kind = AlgoKind::Decomposed;
        ch.m = 4;
    }
    return ch;
}

/**
 * Time one candidate's forward on a batch-clamped copy of the layer
 * (best of two steady-state runs after one warm-up; construction and
 * weight transform excluded). Measurement is a tuning-time activity —
 * it allocates freely; the selected plan is rebuilt by the caller.
 */
double
measureChoiceMs(const ConvSpec &spec0, const AlgoChoice &ch)
{
    ConvSpec spec = spec0;
    spec.batch = std::min(spec.batch, 4);
    Rng rng(1234);
    Tensor x(spec.batch, spec.inCh, spec.h, spec.w);
    Tensor w(spec.outCh, spec.inCh, spec.kernelH(), spec.kernelW());
    x.fillUniform(rng);
    w.fillUniform(rng);

    auto best2 = [](auto &&fn) {
        fn(); // warm-up: plan slabs, range tiles, workspace pool
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 2; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            fn();
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            best = std::min(best, dt.count());
        }
        return best * 1e3;
    };

    switch (ch.kind) {
      case AlgoKind::Direct: {
        return best2([&] {
            directConvForward(x, w, spec.strideH, spec.strideW,
                              spec.padHEff(), spec.padWEff());
        });
      }
      case AlgoKind::Winograd: {
        const WinogradAlgo &a = algoForTile(ch.m);
        WinoPlan plan(a, spec.batch, spec.inCh, spec.outCh, spec.h,
                      spec.w);
        const WinoWeights W = transformWeights(w, a);
        Tensor y(spec.batch, spec.outCh, spec.h, spec.w);
        return best2([&] { plan.forwardInto(x, W, y, false); });
      }
      case AlgoKind::Decomposed: {
        WinoDecompPlan plan(spec, algoForTile(ch.m));
        plan.setWeights(w);
        Tensor y(spec.batch, spec.outCh, spec.outH(), spec.outW());
        return best2([&] { plan.forwardInto(x, y); });
      }
    }
    return std::numeric_limits<double>::infinity();
}

void
publishChoice(const ConvSpec &spec, const AlgoChoice &ch)
{
    if (!metrics::enabled())
        return;
    const std::string prefix =
        detail::concatMessage("tuner.layer.", spec.key(), ".");
    metrics::gaugeSet((prefix + "kind").c_str(), double(int(ch.kind)));
    metrics::gaugeSet((prefix + "m").c_str(), double(ch.m));
    metrics::gaugeSet((prefix + "terms").c_str(),
                      ch.kind == AlgoKind::Decomposed
                          ? double(decomposeSpec(spec).size())
                          : 0.0);
    metrics::gaugeSet((prefix + "pred_ms").c_str(), ch.predictedMs);
    metrics::gaugeSet((prefix + "meas_ms").c_str(), ch.measuredMs);
    metrics::gaugeSet((prefix + "cache_hit").c_str(),
                      ch.fromCache ? 1.0 : 0.0);
}

} // namespace

const char *
algoKindName(AlgoKind k)
{
    switch (k) {
      case AlgoKind::Direct:
        return "direct";
      case AlgoKind::Winograd:
        return "winograd";
      case AlgoKind::Decomposed:
        return "decomposed";
    }
    return "direct";
}

double
winogradMaxRelError(int m, int r)
{
    // Survey-cataloged fp32 worst-case relative error of F(m,3) vs
    // direct (Tong & Huang, arXiv 2111.00977). Growth is steep in the
    // tile edge: each extra interpolation point stretches the
    // transform matrices' condition number.
    if (r != 3)
        return std::numeric_limits<double>::infinity();
    switch (m) {
      case 2:
        return 2e-7;
      case 4:
        return 1e-6;
      case 6:
        return 9e-5;
      case 8:
        return 1e-2;
    }
    return std::numeric_limits<double>::infinity();
}

bool
numericallySafe(int m, int r)
{
    return winogradMaxRelError(m, r) <= kSafeRelError;
}

double
predictMs(const ConvSpec &spec, const AlgoChoice &choice)
{
    const CostModelParams p;
    switch (choice.kind) {
      case AlgoKind::Direct: {
        const ConvCost c = directConvCost(spec, Phase::Fprop, p);
        return 1e3 * (2.0 * double(c.mults) / (kDirectGflops * 1e9) +
                      double(c.dramBytes()) / (kDramGBps * 1e9));
      }
      case AlgoKind::Winograd: {
        const WinogradAlgo &a = algoForTile(choice.m);
        const ConvCost c = winogradConvCost(spec, a, Phase::Fprop, p);
        const TileGrid grid(spec.h, spec.w, a);
        const double a2 = double(a.alpha) * a.alpha;
        const double ewMacs = double(grid.tiles()) * a2 * spec.batch *
                              double(spec.inCh) * spec.outCh;
        const double xfMacs = double(c.mults) - ewMacs;
        // Transform rate scales as 6/alpha: the F(6,3) matrices are
        // dense in non-trivial coefficients where F(2,3)'s are mostly
        // 0/±1, so the nominal MAC bound understates small tiles and
        // is nearly exact for large ones.
        const double xfRate = kXfGflops * 1e9 * (6.0 / a.alpha);
        // 16-bit activation storage shrinks the X-slab round trip (one
        // write in the transform, one read in the element-wise stage).
        const Prec prec = execConfig().prec;
        double bytes = double(c.dramBytes());
        if (prec != Prec::F32) {
            const double xSlabElems = double(grid.tiles()) * a2 *
                                      spec.batch * spec.inCh;
            bytes -= 2.0 * xSlabElems *
                     (p.bytesPerScalar - precBytes(prec));
        }
        return 1e3 * (2.0 * ewMacs / (kEwGflops * 1e9) +
                      2.0 * xfMacs / xfRate +
                      bytes / (kDramGBps * 1e9));
      }
      case AlgoKind::Decomposed: {
        // Priced as T separate inner forwards plus T gather and
        // crop-accumulate sweeps, although WinoDecompPlan runs the
        // T terms as T*I input channels of one inner forward. Pricing
        // that one forward (one transform pair, one T*I-wide GEMM)
        // under today's rates flips serve_auto's 7x7-s2 stem from
        // direct to decomposed (F(2,3) at batch 1, 0.30 vs 0.41 ms
        // predicted; F(6,3) at batch 2 and up), and that pick is
        // slower: at batch 1 on 32x32 the one-plan F(2,3) stem takes
        // 0.11-0.13 ms against direct's 0.06-0.07 ms (1 thread, 4-vCPU
        // AVX-512 Xeon). It keeps the per-term price until the rates
        // are calibrated on the host (ROADMAP item 6).
        const int terms = int(decomposeSpec(spec).size());
        ConvSpec innerSpec = spec;
        innerSpec.h = spec.outH() + 2;
        innerSpec.w = spec.outW() + 2;
        innerSpec.r = 3;
        innerSpec.kh = innerSpec.kw = 0;
        innerSpec.strideH = innerSpec.strideW = 1;
        innerSpec.padH = innerSpec.padW = -1;
        AlgoChoice innerChoice;
        innerChoice.kind = AlgoKind::Winograd;
        innerChoice.m = choice.m;
        const double perTermMs = predictMs(innerSpec, innerChoice);
        const double gatherBytes =
            (2.0 * double(innerSpec.inputElems()) +
             2.0 * double(spec.outputElems())) *
            p.bytesPerScalar;
        return terms *
               (perTermMs + 1e3 * gatherBytes / (kDramGBps * 1e9));
      }
    }
    return std::numeric_limits<double>::infinity();
}

AlgoChoice
selectAlgorithm(const ConvSpec &spec)
{
    TunerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.stats.selects++;
    if (metrics::enabled())
        metrics::counterAdd("tuner.selects");

    // The config key is empty at the fp32-dense default, so existing
    // cache files keep their keys; other precisions and sparsity get
    // distinct memo/disk entries (their cost ranking differs).
    const ExecConfig cfg = execConfig();
    const std::string key = spec.key() + cfg.key();
    const TuneMode mode = cfg.tune;

    if (auto it = s.memo.find(key); it != s.memo.end()) {
        s.stats.memoHits++;
        if (metrics::enabled())
            metrics::counterAdd("tuner.memo_hits");
        return it->second;
    }

    // The on-disk cache (analytic/measure modes, when configured).
    if (mode != TuneMode::Off && !cachePath(s).empty()) {
        loadDiskLocked(s);
        if (auto it = s.disk.find(key); it != s.disk.end()) {
            if (choiceLegal(spec, it->second)) {
                s.stats.cacheHits++;
                if (metrics::enabled())
                    metrics::counterAdd("tuner.cache_hits");
                s.memo[key] = it->second;
                publishChoice(spec, it->second);
                return it->second;
            }
            winomc_warn("tuning-cache entry for ", key,
                        " names an inapplicable algorithm; re-tuning");
        }
        s.stats.cacheMisses++;
        if (metrics::enabled())
            metrics::counterAdd("tuner.cache_misses");
    }

    AlgoChoice best;
    if (mode == TuneMode::Off) {
        best = heuristicChoice(spec);
        best.predictedMs = predictMs(spec, best);
    } else {
        std::vector<AlgoChoice> cs = candidatesFor(spec);
        for (AlgoChoice &c : cs)
            c.predictedMs = predictMs(spec, c);
        std::sort(cs.begin(), cs.end(),
                  [](const AlgoChoice &a, const AlgoChoice &b) {
                      return a.predictedMs < b.predictedMs;
                  });
        best = cs.front();
        if (mode == TuneMode::Measure) {
            // Refine: time the analytically closest candidates and
            // let the stopwatch overrule the model.
            const int nMeasure = std::min<int>(3, int(cs.size()));
            double bestMs = std::numeric_limits<double>::infinity();
            for (int i = 0; i < nMeasure; ++i) {
                cs[i].measuredMs = measureChoiceMs(spec, cs[i]);
                s.stats.measureRuns++;
                if (metrics::enabled())
                    metrics::counterAdd("tuner.measure_runs");
                if (cs[i].measuredMs < bestMs) {
                    bestMs = cs[i].measuredMs;
                    best = cs[i];
                }
            }
        }
    }

    s.memo[key] = best;
    if (mode != TuneMode::Off)
        storeDiskLocked(s);
    publishChoice(spec, best);
    return best;
}

void
setTuneCachePath(const char *path)
{
    TunerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.havePathOverride = path != nullptr;
    s.pathOverride = path ? path : "";
    s.disk.clear();
    s.diskLoaded = false;
}

void
resetTunerForTest()
{
    TunerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.memo.clear();
    s.disk.clear();
    s.diskLoaded = false;
}

TunerStats
tunerStats()
{
    TunerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.stats;
}

} // namespace winomc::tune
