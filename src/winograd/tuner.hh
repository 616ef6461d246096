/**
 * @file
 * Per-layer convolution algorithm auto-tuner.
 *
 * Given a generalized ConvSpec, pick how to execute it: direct
 * convolution, a plain F(m,3) Winograd pipeline (stride-1 "same" 3x3
 * layers), or the DWM decomposition into F(m,3) units (larger kernels,
 * strides, rectangular filters). Candidates are filtered by the
 * numeric-safety bounds the Tong & Huang survey (arXiv 2111.00977)
 * catalogs per tile size, ranked by an analytic host-roofline cost
 * model, and optionally refined by short measurement.
 *
 * Mode: ExecConfig::tune (winograd/exec_config.hh), seeded from
 * WINOMC_TUNE=off|analytic|measure (default: analytic):
 *     off      — no cost model, no cache: a static heuristic (F(4,3)
 *                on same 3x3 layers, decomposed-F(4,3) where the
 *                decomposition applies, direct otherwise);
 *     analytic — rank the safety-filtered candidates by the analytic
 *                model (no execution at selection time);
 *     measure  — analytic ranking, then the top candidates are timed
 *                on a batch-clamped copy of the layer and the fastest
 *                measured one wins.
 *
 * WINOMC_TUNE_CACHE=<path>   (default: unset — no persistence)
 *     On-disk tuning cache keyed by ConvSpec::key() + ExecConfig::key()
 *     (the same descriptor identity serve::PlanCache leases resolve
 *     through). Loaded lazily on first consult; every new winner
 *     rewrites the file atomically (temp file + rename), so a second
 *     run re-selects nothing beyond the file read.
 *
 * Selections are memoized in-process per key, and published under
 * WINOMC_METRICS as tuner.* counters plus per-layer
 * tuner.layer.<key>.* gauges (rendered by winomc-report's "Algorithm
 * selection" table).
 *
 * Thread-safety: all entry points are serialized on one internal
 * mutex; selection is cheap after the first call per shape.
 */

#ifndef WINOMC_WINOGRAD_TUNER_HH
#define WINOMC_WINOGRAD_TUNER_HH

#include <cstdint>

#include "winograd/conv_spec.hh"
#include "winograd/exec_config.hh"

namespace winomc::tune {

/** How a layer executes its convolution. */
enum class AlgoKind : int { Direct = 0, Winograd = 1, Decomposed = 2 };

const char *algoKindName(AlgoKind k);

/** One tuning decision. */
struct AlgoChoice
{
    AlgoKind kind = AlgoKind::Direct;
    int m = 0;               ///< F(m,3) tile edge (Winograd/Decomposed)
    double predictedMs = 0;  ///< analytic model estimate (full batch)
    double measuredMs = 0;   ///< 0 unless Measure mode timed it
    bool fromCache = false;  ///< resolved from the on-disk cache
};

/**
 * Survey fp32 error budget: the max relative error of F(m,3) vs direct
 * (Tong & Huang, arXiv 2111.00977, Table "numerical accuracy" —
 * F(2,3) ~2e-7, F(4,3) ~1e-6, F(6,3) ~9e-5, F(8,3) ~1e-2). Returns
 * +inf for tile sizes outside the candidate family.
 */
double winogradMaxRelError(int m, int r);

/** Does F(m,r) stay inside the fp32 safety budget (1e-4)? Admits
 *  m in {2, 4, 6} for r = 3; F(8,3) and beyond fail. */
bool numericallySafe(int m, int r);

/**
 * Analytic host-roofline forward-time estimate (ms) of executing
 * `spec` with `choice` (predictedMs/measuredMs fields ignored):
 * stage MAC counts from winograd/cost.hh divided by calibrated
 * per-stage rates (transforms get an alpha-dependent efficiency
 * penalty — large-tile transform matrices have dense non-trivial
 * coefficients), plus a DRAM-stream term. The live execConfig().prec
 * folds in: 16-bit activation storage shrinks the X-slab stream term
 * (fp32 predictions are unaffected). Sparsity does not change a
 * prediction.
 */
double predictMs(const ConvSpec &spec, const AlgoChoice &choice);

/**
 * Pick the execution algorithm for one layer shape. Consults, in
 * order: the in-process memo, the on-disk cache (when configured),
 * and the mode's selection procedure. Publishes tuner.* metrics.
 */
AlgoChoice selectAlgorithm(const ConvSpec &spec);

/** Override the cache file path (tests); nullptr restores the
 *  WINOMC_TUNE_CACHE environment lookup. Drops the loaded disk map. */
void setTuneCachePath(const char *path);

/** Drop the in-process memo and the loaded disk map (the file itself
 *  is kept), so the next select exercises the full consult path. */
void resetTunerForTest();

/** Monotone in-process tuner statistics. */
struct TunerStats
{
    uint64_t selects = 0;      ///< selectAlgorithm calls
    uint64_t memoHits = 0;     ///< answered from the in-process memo
    uint64_t cacheHits = 0;    ///< answered from the on-disk cache
    uint64_t cacheMisses = 0;  ///< disk consulted, key absent
    uint64_t measureRuns = 0;  ///< candidate timings executed
};

TunerStats tunerStats();

} // namespace winomc::tune

#endif // WINOMC_WINOGRAD_TUNER_HH
