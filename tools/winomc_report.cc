/**
 * @file
 * winomc-report: turn WINOMC_METRICS dumps into the paper-style summary
 * tables (the Figure 15/16 views of a run).
 *
 * Reads one or more metric dumps (JSON or CSV, auto-detected) written
 * by any winomc binary run with WINOMC_METRICS=<path>, and emits:
 *
 *  - the per-layer / per-strategy time breakdown (compute,
 *    intra-cluster tile communication, inter-cluster collective, idle),
 *    verifying that every row sums to the end-to-end iteration time
 *    within 1% (the exporter constructs them to match exactly);
 *  - the energy split by component, including the idle-link share of
 *    link energy (the paper's Fig 15 argument);
 *  - the P2P-vs-collective traffic split;
 *  - the Winograd pipeline memory-traffic table (wino.<mode>.<phase>
 *    counters): measured bytes per call against the cost model's
 *    predictedTrafficBytes() gauge, with a component sum check
 *    (xform + ew + inverse must equal bytes_moved within 1%);
 *  - a NoC/memnet saturation summary (hottest and mean link
 *    utilization, credit-stall and head-of-line-block events, router
 *    occupancy percentiles);
 *  - a per-stage roofline table joining the kernel.<stage>.{seconds,
 *    flops} software probes with the perf.<stage>.* hardware counters
 *    (common/perfcounters.hh): achieved GFLOP/s, IPC, backend-stall
 *    share, LLC-miss bytes/cycle, and arithmetic intensity per
 *    LLC-filtered byte. The software columns always render; on hosts
 *    without perf counters the hardware columns degrade to "-";
 *  - the serving SLO state (slo.* gauges from serve/slo.hh): latency
 *    objective, short/long-window burn rates, alert state, violation
 *    count.
 *
 * Output is markdown (default) or CSV (--csv). Exits non-zero when a
 * breakdown row fails the 1% sum check.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics_io.hh"

namespace {

using winomc::metrics::Kind;
using winomc::metrics::Sample;

struct Options
{
    bool csv = false;
    std::vector<std::string> inputs;
};

/** (scope, rest) from a possibly run-scoped metric name. */
std::pair<std::string, std::string>
splitScope(const std::string &name)
{
    size_t slash = name.find('/');
    if (slash == std::string::npos)
        return {"", name};
    return {name.substr(0, slash), name.substr(slash + 1)};
}

/** (strategy, rest) from "mpt.<strategy>.<rest>"; empty on no match. */
std::pair<std::string, std::string>
splitStrategy(const std::string &rest)
{
    if (rest.rfind("mpt.", 0) != 0)
        return {"", ""};
    size_t dot = rest.find('.', 4);
    if (dot == std::string::npos)
        return {"", ""};
    return {rest.substr(4, dot - 4), rest.substr(dot + 1)};
}

/** One (layer scope, strategy) row of the time-breakdown table. */
struct BreakdownRow
{
    double computeSec = 0, intraSec = 0, interSec = 0, idleSec = 0;
    double totalSec = 0;
    bool haveTotal = false;
};

struct EnergyRow
{
    double computeJ = 0, sramJ = 0, dramJ = 0, linkJ = 0, linkIdleJ = 0;
    double total() const { return computeJ + sramJ + dramJ + linkJ; }
};

struct TrafficRow
{
    double p2pBytes = 0, collectiveBytes = 0;
};

/** Measured-vs-predicted DRAM traffic of one wino.<mode>.<phase>
 *  pipeline (staged fwd/bwd_data/grad_weights, fused fwd). */
struct WinoTrafficRow
{
    double xformBytes = 0, ewBytes = 0, inverseBytes = 0;
    double bytesMoved = 0, calls = 0, predictedBytes = 0;
};

/** Zero-skip telemetry of one run scope ("quant.*": the sparse /
 *  low-precision elementwise counters from winograd/conv.cc). */
struct QuantRow
{
    double rowsTotal = 0, rowsSkipped = 0, flopsSkipped = 0;
    double panelsTotal = 0, panelsZero = 0;
};

/** Saturation numbers of one simulated network (noc.* / memnet.*). */
struct NetRow
{
    double linkUtilMax = 0, linkUtilMean = 0;
    double creditStalls = 0, holBlocks = 0;
    double occP50 = 0, occP90 = 0, occP99 = 0;
    bool haveOccupancy = false;
};

/** Workspace allocator gauges of one run scope ("workspace.*"). */
struct WorkspaceRow
{
    double bytesInUse = 0, highWater = 0, pooledBytes = 0;
    double freshAllocs = 0, freshBytes = 0, reuses = 0;
};

/** Serving-engine telemetry of one run scope ("serve.*"). */
struct ServeRow
{
    double requests = 0, batches = 0, queueDepth = 0;
    double batchMean = 0, batchP50 = 0, batchP99 = 0;
    double latP50 = 0, latP90 = 0, latP99 = 0;
    double cacheHits = 0, cacheMisses = 0, cacheEvictions = 0;
    double weightBuilds = 0, cacheBytes = 0, cachePlans = 0;
    bool haveEngine = false, haveCache = false;
};

/** Micro-kernel dispatch telemetry of one run scope ("kernel.*"). */
struct KernelRow
{
    double isaLevel = -1;
    std::map<std::string, double> stageGflops; // stage -> GFLOP/s
    double vectorSec = 0, scalarSec = 0;
};

/** One (scope, stage) roofline row: software-side time/work from
 *  kernel.<stage>.{seconds,flops}, hardware side from perf.<stage>.*
 *  (zero cycles = host without usable perf counters). */
struct RooflineRow
{
    double seconds = 0, flops = 0;
    double cycles = 0, instructions = 0, llcMisses = 0, stalled = 0;
};

/** Serving SLO state of one run scope ("slo.*", serve/slo.hh). */
struct SloRow
{
    double objectiveUs = 0, burnShort = 0, burnLong = 0;
    double alertActive = 0, violations = 0;
};

/** One auto-tuner decision ("tuner.layer.<shape key>.*",
 *  winograd/tuner.hh). */
struct TunerRow
{
    double kind = -1, m = 0, terms = 0;
    double predMs = 0, measMs = 0, cacheHit = 0;
};

/** Auto-tuner counter totals of one run scope ("tuner.<leaf>"). */
struct TunerTotals
{
    double selects = 0, memoHits = 0, cacheHits = 0, cacheMisses = 0;
    double measureRuns = 0;
};

using RowKey = std::pair<std::string, std::string>; // (scope, strategy)

struct Report
{
    std::map<RowKey, BreakdownRow> breakdown;
    std::map<RowKey, EnergyRow> energy;
    std::map<RowKey, TrafficRow> traffic;
    std::map<std::string, WinoTrafficRow> winoTraffic; // key: mode.phase
    std::map<std::string, QuantRow> quant;             // key: scope
    std::map<std::string, NetRow> nets; // key: scoped network prefix
    std::map<std::string, WorkspaceRow> workspaces; // key: scope
    std::map<std::string, KernelRow> kernels;       // key: scope
    std::map<std::string, ServeRow> serving;        // key: scope
    std::map<RowKey, RooflineRow> roofline; // key: (scope, stage)
    std::map<std::string, SloRow> slos;     // key: scope
    std::map<RowKey, TunerRow> tuner;       // key: (scope, shape key)
    std::map<std::string, TunerTotals> tunerTotals; // key: scope
};

/** tuner.layer.*.kind gauge value -> AlgoKind name. */
const char *
algoKindLabel(double kind)
{
    switch (int(kind)) {
      case 0:
        return "direct";
      case 1:
        return "winograd";
      case 2:
        return "decomposed";
      default:
        return "?";
    }
}

/** kernel.isa.level gauge value -> WINOMC_ISA-style name. */
const char *
isaLevelName(double level)
{
    switch (int(level)) {
      case 0:
        return "scalar";
      case 2:
        return "avx2";
      case 3:
        return "avx512";
      default:
        return "?";
    }
}

void
ingest(Report &rep, const Sample &s)
{
    auto [scope, rest] = splitScope(s.name);
    auto [strategy, leaf] = splitStrategy(rest);
    if (!strategy.empty()) {
        RowKey key{scope, strategy};
        if (leaf.rfind("breakdown.", 0) == 0) {
            BreakdownRow &r = rep.breakdown[key];
            const std::string part = leaf.substr(10);
            if (part == "compute_sec")
                r.computeSec = s.totalSec;
            else if (part == "intra_comm_sec")
                r.intraSec = s.totalSec;
            else if (part == "inter_comm_sec")
                r.interSec = s.totalSec;
            else if (part == "idle_sec")
                r.idleSec = s.totalSec;
            else if (part == "total_sec") {
                r.totalSec = s.totalSec;
                r.haveTotal = true;
            }
        } else if (leaf.rfind("energy.", 0) == 0) {
            EnergyRow &r = rep.energy[key];
            const std::string part = leaf.substr(7);
            if (part == "compute_j")
                r.computeJ = s.value;
            else if (part == "sram_j")
                r.sramJ = s.value;
            else if (part == "dram_j")
                r.dramJ = s.value;
            else if (part == "link_j")
                r.linkJ = s.value;
            else if (part == "link_idle_j")
                r.linkIdleJ = s.value;
        } else if (leaf == "p2p_bytes") {
            rep.traffic[key].p2pBytes = s.value;
        } else if (leaf == "collective_bytes") {
            rep.traffic[key].collectiveBytes = s.value;
        }
        return;
    }

    // Auto-tuner decisions ("tuner.layer.<shape key>.<leaf>"; the
    // shape key is dot-free by construction) and counter totals
    // ("tuner.<leaf>").
    if (rest.rfind("tuner.", 0) == 0) {
        const std::string skey = scope.empty() ? "-" : scope;
        if (rest.rfind("tuner.layer.", 0) == 0) {
            const size_t dot = rest.rfind('.');
            if (dot == std::string::npos || dot <= 12)
                return;
            TunerRow &r = rep.tuner[{skey, rest.substr(12, dot - 12)}];
            const std::string leaft = rest.substr(dot + 1);
            if (leaft == "kind")
                r.kind = s.value;
            else if (leaft == "m")
                r.m = s.value;
            else if (leaft == "terms")
                r.terms = s.value;
            else if (leaft == "pred_ms")
                r.predMs = s.value;
            else if (leaft == "meas_ms")
                r.measMs = s.value;
            else if (leaft == "cache_hit")
                r.cacheHit = s.value;
            return;
        }
        TunerTotals &t = rep.tunerTotals[skey];
        const std::string leaft = rest.substr(6);
        if (leaft == "selects")
            t.selects = s.value;
        else if (leaft == "memo_hits")
            t.memoHits = s.value;
        else if (leaft == "cache_hits")
            t.cacheHits = s.value;
        else if (leaft == "cache_misses")
            t.cacheMisses = s.value;
        else if (leaft == "measure_runs")
            t.measureRuns = s.value;
        return;
    }

    // Winograd pipeline traffic ("wino.<mode>.<phase>.<leaf>"). Only
    // the known leaves land here — trace spans share the wino. prefix
    // but never appear in metric dumps.
    if (rest.rfind("wino.", 0) == 0) {
        size_t dot = rest.rfind('.');
        if (dot == std::string::npos || dot <= 5)
            return;
        const std::string leafT = rest.substr(dot + 1);
        if (leafT != "xform_bytes" && leafT != "ew_bytes" &&
            leafT != "inverse_bytes" && leafT != "bytes_moved" &&
            leafT != "calls" && leafT != "predicted_bytes")
            return;
        std::string key = rest.substr(5, dot - 5); // "<mode>.<phase>"
        if (!scope.empty())
            key = scope + "/" + key;
        WinoTrafficRow &r = rep.winoTraffic[key];
        if (leafT == "xform_bytes")
            r.xformBytes = s.value;
        else if (leafT == "ew_bytes")
            r.ewBytes = s.value;
        else if (leafT == "inverse_bytes")
            r.inverseBytes = s.value;
        else if (leafT == "bytes_moved")
            r.bytesMoved = s.value;
        else if (leafT == "calls")
            r.calls = s.value;
        else
            r.predictedBytes = s.value;
        return;
    }

    // Zero-skip telemetry ("quant.ew.* / quant.mask.*").
    if (rest.rfind("quant.", 0) == 0) {
        QuantRow &r = rep.quant[scope.empty() ? "-" : scope];
        const std::string leafq = rest.substr(6);
        if (leafq == "ew.rows_total")
            r.rowsTotal = s.value;
        else if (leafq == "ew.rows_skipped")
            r.rowsSkipped = s.value;
        else if (leafq == "ew.flops_skipped")
            r.flopsSkipped = s.value;
        else if (leafq == "mask.panels_total")
            r.panelsTotal = s.value;
        else if (leafq == "mask.panels_zero")
            r.panelsZero = s.value;
        return;
    }

    // Micro-kernel dispatch telemetry ("kernel.<leaf>").
    if (rest.rfind("kernel.", 0) == 0) {
        const std::string skey = scope.empty() ? "-" : scope;
        KernelRow &r = rep.kernels[skey];
        const std::string leafk = rest.substr(7);
        auto hasSuffix = [&](const char *suf) {
            const size_t n = std::strlen(suf);
            return leafk.size() > n &&
                   leafk.rfind(suf) == leafk.size() - n;
        };
        if (leafk == "isa.level")
            r.isaLevel = s.value;
        else if (leafk == "time.vector")
            r.vectorSec = s.totalSec;
        else if (leafk == "time.scalar")
            r.scalarSec = s.totalSec;
        else if (hasSuffix(".gflops"))
            r.stageGflops[leafk.substr(0, leafk.size() - 7)] = s.value;
        else if (hasSuffix(".seconds"))
            rep.roofline[{skey, leafk.substr(0, leafk.size() - 8)}]
                .seconds = s.totalSec;
        else if (hasSuffix(".flops"))
            rep.roofline[{skey, leafk.substr(0, leafk.size() - 6)}]
                .flops = s.value;
        return;
    }

    // Hardware counter deltas ("perf.<stage>.<counter>",
    // common/perfcounters.hh). perf.available is a capability gauge,
    // not a stage.
    if (rest.rfind("perf.", 0) == 0) {
        const std::string leafp = rest.substr(5);
        if (leafp == "available")
            return;
        const size_t dot = leafp.rfind('.');
        if (dot == std::string::npos)
            return;
        RooflineRow &r =
            rep.roofline[{scope.empty() ? "-" : scope,
                          leafp.substr(0, dot)}];
        const std::string counter = leafp.substr(dot + 1);
        if (counter == "cycles")
            r.cycles = s.value;
        else if (counter == "instructions")
            r.instructions = s.value;
        else if (counter == "llc_misses")
            r.llcMisses = s.value;
        else if (counter == "stalled_backend")
            r.stalled = s.value;
        return;
    }

    // Serving SLO state ("slo.<leaf>", serve/slo.hh).
    if (rest.rfind("slo.", 0) == 0) {
        SloRow &r = rep.slos[scope.empty() ? "-" : scope];
        const std::string leafo = rest.substr(4);
        if (leafo == "objective_us")
            r.objectiveUs = s.value;
        else if (leafo == "burn_rate_short")
            r.burnShort = s.value;
        else if (leafo == "burn_rate_long")
            r.burnLong = s.value;
        else if (leafo == "alert_active")
            r.alertActive = s.value;
        else if (leafo == "violations")
            r.violations = s.value;
        return;
    }

    // Serving-engine telemetry ("serve.<leaf>", see serve/engine.hh).
    if (rest.rfind("serve.", 0) == 0) {
        ServeRow &r = rep.serving[scope.empty() ? "-" : scope];
        const std::string leafs = rest.substr(6);
        if (leafs == "requests") {
            r.requests = s.value;
            r.haveEngine = true;
        } else if (leafs == "batches") {
            r.batches = s.value;
            r.haveEngine = true;
        } else if (leafs == "queue_depth") {
            r.queueDepth = s.value;
        } else if (leafs == "batch_size") {
            r.batchMean = s.mean();
            r.batchP50 = s.p50;
            r.batchP99 = s.p99;
            r.haveEngine = true;
        } else if (leafs == "latency_us") {
            r.latP50 = s.p50;
            r.latP90 = s.p90;
            r.latP99 = s.p99;
            r.haveEngine = true;
        } else if (leafs == "plan_cache.hits") {
            r.cacheHits = s.value;
            r.haveCache = true;
        } else if (leafs == "plan_cache.misses") {
            r.cacheMisses = s.value;
            r.haveCache = true;
        } else if (leafs == "plan_cache.evictions") {
            r.cacheEvictions = s.value;
            r.haveCache = true;
        } else if (leafs == "plan_cache.weight_builds") {
            r.weightBuilds = s.value;
            r.haveCache = true;
        } else if (leafs == "plan_cache.bytes") {
            r.cacheBytes = s.value;
            r.haveCache = true;
        } else if (leafs == "plan_cache.plans") {
            r.cachePlans = s.value;
            r.haveCache = true;
        }
        return;
    }

    // Workspace allocator gauges ("workspace.<leaf>").
    if (rest.rfind("workspace.", 0) == 0) {
        WorkspaceRow &r = rep.workspaces[scope.empty() ? "-" : scope];
        const std::string leafw = rest.substr(10);
        if (leafw == "bytes_in_use")
            r.bytesInUse = s.value;
        else if (leafw == "high_water_bytes")
            r.highWater = s.value;
        else if (leafw == "pooled_bytes")
            r.pooledBytes = s.value;
        else if (leafw == "fresh_allocs")
            r.freshAllocs = s.value;
        else if (leafw == "fresh_bytes")
            r.freshBytes = s.value;
        else if (leafw == "slab_reuses")
            r.reuses = s.value;
        return;
    }

    // Network saturation metrics: "<net prefix>.<leaf>" where the
    // prefix starts with noc. or memnet. (keep the scope visible).
    if (rest.rfind("noc.", 0) != 0 && rest.rfind("memnet.", 0) != 0)
        return;
    size_t dot = rest.rfind('.');
    if (dot == std::string::npos)
        return;
    std::string leaf2 = rest.substr(dot + 1);
    std::string prefix = rest.substr(0, dot);
    // Histogram names carry one more level (e.g. ...router_occupancy).
    std::string full = scope.empty() ? prefix : scope + "/" + prefix;
    NetRow &r = rep.nets[full];
    if (leaf2 == "link_util_max")
        r.linkUtilMax = s.value;
    else if (leaf2 == "link_util_mean")
        r.linkUtilMean = s.value;
    else if (leaf2 == "credit_stall_events")
        r.creditStalls = s.value;
    else if (leaf2 == "hol_block_events")
        r.holBlocks = s.value;
    else if (leaf2 == "router_occupancy") {
        r.occP50 = s.p50;
        r.occP90 = s.p90;
        r.occP99 = s.p99;
        r.haveOccupancy = true;
    }
}

std::string
fmt(double v)
{
    // NaN marks "no samples" (e.g. percentiles of an empty latency
    // histogram); render it as the same "-" the dumps use.
    if (std::isnan(v))
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

std::string
rowName(const RowKey &key)
{
    return key.first.empty() ? "-" : key.first;
}

// ------------------------------------------------------------ markdown

void
mdTable(const std::vector<std::string> &head,
        const std::vector<std::vector<std::string>> &rows)
{
    auto line = [](const std::vector<std::string> &cells) {
        std::string out = "|";
        for (const auto &c : cells)
            out += " " + c + " |";
        std::printf("%s\n", out.c_str());
    };
    line(head);
    std::vector<std::string> rule(head.size(), "---");
    line(rule);
    for (const auto &r : rows)
        line(r);
    std::printf("\n");
}

void
csvTable(const char *section, const std::vector<std::string> &head,
         const std::vector<std::vector<std::string>> &rows)
{
    std::printf("section,%s\n", section);
    std::string h;
    for (size_t i = 0; i < head.size(); ++i)
        h += (i ? "," : "") + head[i];
    std::printf("%s\n", h.c_str());
    for (const auto &r : rows) {
        std::string l;
        for (size_t i = 0; i < r.size(); ++i)
            l += (i ? "," : "") + r[i];
        std::printf("%s\n", l.c_str());
    }
    std::printf("\n");
}

void
emitSection(const Options &opt, const char *title,
            const std::vector<std::string> &head,
            const std::vector<std::vector<std::string>> &rows)
{
    if (rows.empty())
        return;
    if (opt.csv) {
        csvTable(title, head, rows);
    } else {
        std::printf("## %s\n\n", title);
        mdTable(head, rows);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0)
            opt.csv = true;
        else if (std::strcmp(argv[i], "--help") == 0 ||
                 std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: winomc-report [--csv] <dump>...\n"
                        "  <dump>  WINOMC_METRICS artifact (.json or "
                        ".csv)\n");
            return 0;
        } else {
            opt.inputs.push_back(argv[i]);
        }
    }
    if (opt.inputs.empty()) {
        std::fprintf(stderr, "winomc-report: no input dumps "
                             "(try --help)\n");
        return 2;
    }

    Report rep;
    size_t samples = 0;
    for (const auto &path : opt.inputs) {
        auto parsed = winomc::metrics::parseDumpFile(path);
        samples += parsed.size();
        for (const auto &s : parsed)
            ingest(rep, s);
    }
    if (samples == 0) {
        std::fprintf(stderr, "winomc-report: no metrics parsed\n");
        return 2;
    }

    int sum_failures = 0;
    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.breakdown) {
            const double sum =
                r.computeSec + r.intraSec + r.interSec + r.idleSec;
            const double ref = r.haveTotal ? r.totalSec : sum;
            const bool ok =
                ref <= 0.0 ? sum <= 0.0
                           : std::fabs(sum - ref) <= 0.01 * ref;
            if (!ok)
                ++sum_failures;
            rows.push_back({rowName(key), key.second, fmt(r.computeSec),
                            fmt(r.intraSec), fmt(r.interSec),
                            fmt(r.idleSec), fmt(ref),
                            ok ? "ok" : "MISMATCH"});
        }
        emitSection(opt, "Time breakdown (seconds)",
                    {"layer", "strategy", "compute", "intra-comm",
                     "inter-comm", "idle", "total", "sum check"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.energy) {
            const double idle_pct =
                r.linkJ > 0.0 ? 100.0 * r.linkIdleJ / r.linkJ : 0.0;
            rows.push_back({rowName(key), key.second, fmt(r.computeJ),
                            fmt(r.sramJ), fmt(r.dramJ), fmt(r.linkJ),
                            fmt(idle_pct), fmt(r.total())});
        }
        emitSection(opt, "Energy breakdown (joules)",
                    {"layer", "strategy", "compute", "sram", "dram",
                     "link", "link idle %", "total"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.traffic) {
            const double total = r.p2pBytes + r.collectiveBytes;
            rows.push_back(
                {rowName(key), key.second, fmt(r.p2pBytes),
                 fmt(r.collectiveBytes),
                 fmt(total > 0.0 ? 100.0 * r.p2pBytes / total : 0.0)});
        }
        emitSection(opt, "Link traffic split (bytes per worker)",
                    {"layer", "strategy", "p2p", "collective", "p2p %"},
                    rows);
    }

    {
        // Measured slab/tensor traffic per pipeline call against the
        // cost model's prediction. The measured counters accumulate
        // over all calls; predicted_bytes is a per-call gauge. The
        // components must reproduce bytes_moved within 1% (the
        // exporter sums them exactly, so a mismatch means a dropped
        // or double-counted counter) — failures trip the same exit
        // gate as the time-breakdown check. meas/pred lands slightly
        // under 1 when the tile grid overhangs the feature map: the
        // prediction quantizes gather traffic to whole tiles while
        // the measured counter counts the exact in-bounds elements.
        // The gauge keeps only the LAST call's prediction, so the
        // ratio is only meaningful for dumps where every call through
        // a pipeline used one layer shape.
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.winoTraffic) {
            const double calls = r.calls > 0.0 ? r.calls : 1.0;
            const double sum =
                r.xformBytes + r.ewBytes + r.inverseBytes;
            const bool ok =
                r.bytesMoved <= 0.0
                    ? sum <= 0.0
                    : std::fabs(sum - r.bytesMoved) <=
                          0.01 * r.bytesMoved;
            if (!ok)
                ++sum_failures;
            const double perCall = r.bytesMoved / calls;
            rows.push_back(
                {key, fmt(r.calls), fmt(perCall),
                 fmt(r.predictedBytes),
                 r.predictedBytes > 0.0 ? fmt(perCall / r.predictedBytes)
                                        : "-",
                 ok ? "ok" : "MISMATCH"});
        }
        emitSection(opt, "Winograd memory traffic",
                    {"pipeline", "calls", "measured B/call",
                     "predicted B/call", "meas/pred", "sum check"},
                    rows);
    }

    {
        // Zero-skip effectiveness of the sparse / low-precision
        // elementwise kernels (WINOMC_SPARSE, quant.* counters): how
        // many (j, k-block) weight rows the compaction dropped (from
        // pruned weights or dead activation panels) and what fraction
        // of activation tile panels the mask build found all-zero. A
        // row-skip % far below the weight sparsity means the input
        // had little panel-level structure for the mask to exploit.
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.quant) {
            const std::string rowPct =
                r.rowsTotal > 0.0
                    ? fmt(100.0 * r.rowsSkipped / r.rowsTotal)
                    : "-";
            const std::string panelPct =
                r.panelsTotal > 0.0
                    ? fmt(100.0 * r.panelsZero / r.panelsTotal)
                    : "-";
            rows.push_back({scope, fmt(r.rowsTotal),
                            fmt(r.rowsSkipped), rowPct,
                            fmt(r.flopsSkipped), fmt(r.panelsTotal),
                            fmt(r.panelsZero), panelPct});
        }
        emitSection(opt, "Sparsity & precision",
                    {"scope", "ew rows", "rows skipped", "skip %",
                     "FLOPs skipped", "mask panels", "panels zero",
                     "zero %"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[net, r] : rep.nets) {
            rows.push_back(
                {net, fmt(r.linkUtilMax), fmt(r.linkUtilMean),
                 fmt(r.creditStalls), fmt(r.holBlocks),
                 r.haveOccupancy ? fmt(r.occP50) + " / " +
                                       fmt(r.occP90) + " / " +
                                       fmt(r.occP99)
                                 : "-"});
        }
        emitSection(opt, "Network saturation",
                    {"network", "util max", "util mean", "credit stalls",
                     "HoL blocks", "occupancy p50/p90/p99"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.workspaces) {
            const double total = r.freshAllocs + r.reuses;
            rows.push_back(
                {scope, fmt(r.highWater / (1 << 20)),
                 fmt(r.bytesInUse / (1 << 20)),
                 fmt(r.pooledBytes / (1 << 20)), fmt(r.freshAllocs),
                 fmt(r.freshBytes / (1 << 20)),
                 fmt(total > 0.0 ? 100.0 * r.reuses / total : 0.0)});
        }
        emitSection(opt, "Workspace allocator",
                    {"scope", "high water MB", "in use MB", "pooled MB",
                     "fresh allocs", "fresh MB", "reuse %"},
                    rows);
    }

    {
        // Latency percentiles render "-" for an empty histogram (NaN
        // round-trips through the dump), so a zero-traffic run is
        // visible as such instead of reporting a latency of 0.
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.serving) {
            if (!r.haveEngine)
                continue;
            const double perBatch =
                r.batches > 0.0 ? r.requests / r.batches : 0.0;
            rows.push_back({scope, fmt(r.requests), fmt(r.batches),
                            fmt(perBatch), fmt(r.batchP50),
                            fmt(r.batchP99), fmt(r.latP50),
                            fmt(r.latP90), fmt(r.latP99),
                            fmt(r.queueDepth)});
        }
        emitSection(opt, "Serving",
                    {"scope", "requests", "batches", "req/batch",
                     "batch p50", "batch p99", "lat us p50",
                     "lat us p90", "lat us p99", "queue depth"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.serving) {
            if (!r.haveCache)
                continue;
            const double lookups = r.cacheHits + r.cacheMisses;
            rows.push_back(
                {scope, fmt(r.cacheHits), fmt(r.cacheMisses),
                 fmt(lookups > 0.0 ? 100.0 * r.cacheHits / lookups
                                   : 0.0),
                 fmt(r.cacheEvictions), fmt(r.weightBuilds),
                 fmt(r.cachePlans), fmt(r.cacheBytes / (1 << 20))});
        }
        emitSection(opt, "Serving plan cache",
                    {"scope", "hits", "misses", "hit %", "evictions",
                     "weight builds", "parked plans", "parked MB"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.kernels) {
            const double total = r.vectorSec + r.scalarSec;
            const std::string share =
                total > 0.0 ? fmt(100.0 * r.vectorSec / total) : "-";
            if (r.stageGflops.empty())
                rows.push_back({scope, isaLevelName(r.isaLevel), "-",
                                "-", fmt(r.vectorSec),
                                fmt(r.scalarSec), share});
            for (const auto &[stage, gflops] : r.stageGflops)
                rows.push_back({scope, isaLevelName(r.isaLevel), stage,
                                fmt(gflops), fmt(r.vectorSec),
                                fmt(r.scalarSec), share});
        }
        emitSection(opt, "Kernel dispatch",
                    {"scope", "isa", "stage", "GFLOP/s", "vector s",
                     "scalar s", "vector %"},
                    rows);
    }

    {
        // Achieved GFLOP/s comes from the software probes and always
        // renders; IPC / stall share / LLC-miss bytes per cycle need
        // the perf.<stage>.* hardware counters and degrade to "-" on
        // hosts where perf_event_open is refused. FLOP per LLC-byte
        // is the arithmetic intensity seen past the LLC — compare it
        // against the Winograd memory-traffic table's predicted
        // bytes/call to see whether a stage is compute- or
        // traffic-limited. Counters are per participating thread, so
        // ratios are exact while absolute cycle counts cover that
        // thread's share of the stage.
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.roofline) {
            const bool hw = r.cycles > 0.0;
            const double llcBytes = r.llcMisses * 64.0;
            rows.push_back(
                {rowName(key), key.second, fmt(r.seconds),
                 fmt(r.seconds > 0.0 ? r.flops / r.seconds * 1e-9
                                     : 0.0),
                 hw ? fmt(r.instructions / r.cycles) : "-",
                 hw ? fmt(100.0 * r.stalled / r.cycles) : "-",
                 hw ? fmt(llcBytes / r.cycles) : "-",
                 llcBytes > 0.0 ? fmt(r.flops / llcBytes) : "-"});
        }
        emitSection(opt, "Roofline (per stage)",
                    {"scope", "stage", "seconds", "GFLOP/s", "IPC",
                     "backend stall %", "LLC-miss B/cycle",
                     "FLOP/LLC-byte"},
                    rows);
    }

    {
        // One row per tuned shape: the chosen algorithm (with the
        // F(m,3) tile and, for the DWM decomposition, the unit-term
        // count), the cost model's predicted time, the measured time
        // when WINOMC_TUNE=measure ran (else "-"), and whether the
        // decision came from the on-disk tuning cache
        // (WINOMC_TUNE_CACHE) instead of a fresh tuning pass.
        std::vector<std::vector<std::string>> rows;
        for (const auto &[key, r] : rep.tuner) {
            std::string algo = algoKindLabel(r.kind);
            if (int(r.kind) == 1 || int(r.kind) == 2)
                algo += " F(" + fmt(r.m) + ",3)";
            if (int(r.kind) == 2)
                algo += " x" + fmt(r.terms);
            rows.push_back(
                {rowName(key), key.second, algo, fmt(r.predMs),
                 r.measMs > 0.0 ? fmt(r.measMs) : "-",
                 r.cacheHit > 0.0 ? "hit" : "miss"});
        }
        emitSection(opt, "Algorithm selection",
                    {"scope", "shape", "algorithm", "predicted ms",
                     "measured ms", "tune cache"},
                    rows);
    }

    {
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, t] : rep.tunerTotals)
            rows.push_back({scope, fmt(t.selects), fmt(t.memoHits),
                            fmt(t.cacheHits), fmt(t.cacheMisses),
                            fmt(t.measureRuns)});
        emitSection(opt, "Tuner activity",
                    {"scope", "selects", "memo hits", "cache hits",
                     "cache misses", "measure runs"},
                    rows);
    }

    {
        // Burn rate 1.0 = consuming the latency error budget exactly
        // at the sustainable rate; the alert fires when both windows
        // burn above the monitor's threshold (serve/slo.hh).
        std::vector<std::vector<std::string>> rows;
        for (const auto &[scope, r] : rep.slos)
            rows.push_back({scope, fmt(r.objectiveUs),
                            fmt(r.burnShort), fmt(r.burnLong),
                            r.alertActive > 0.0 ? "FIRING" : "ok",
                            fmt(r.violations)});
        emitSection(opt, "Serving SLO",
                    {"scope", "objective us", "burn short",
                     "burn long", "alert", "violations"},
                    rows);
    }

    if (sum_failures) {
        std::fprintf(stderr,
                     "winomc-report: %d breakdown row(s) fail the 1%% "
                     "sum check\n",
                     sum_failures);
        return 1;
    }
    return 0;
}
