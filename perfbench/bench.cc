/**
 * @file
 * Whole-model benchmark driver: pins the environment, runs one
 * workload, and prints its metrics and the JSON result line.
 *
 *   perfbench --workload train_wino|serve_auto|noc_fig9
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out PATH] [--inject-fault]
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/parallel.hh"
#include "tensor/workspace.hh"
#include "winograd/microkernel.hh"
#include "winograd/tuner.hh"

namespace perfbench {

using namespace winomc;

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// Both tables must list exactly the metrics of BENCHMARK.json; run.py
// refuses a result whose names or units differ.
const MetricSpec kEndToEnd[] = {
    {"work_per_s", "1/s"},
    {"op_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"nn.conv1.fwd_ms", "ms"},
    {"nn.conv2.fwd_ms", "ms"},
    {"nn.conv3.fwd_ms", "ms"},
    {"nn.conv4.fwd_ms", "ms"},
    {"nn.conv5.fwd_ms", "ms"},
    {"nn.conv1.bwd_ms", "ms"},
    {"nn.conv2.bwd_ms", "ms"},
    {"nn.conv3.bwd_ms", "ms"},
    {"nn.conv4.bwd_ms", "ms"},
    {"nn.conv5.bwd_ms", "ms"},
    {"nn.other.fwd_ms", "ms"},
    {"nn.other.bwd_ms", "ms"},
    {"nn.step_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"nn.unattributed_ms", "ms"},
    {"winograd.xform_input_ms", "ms"},
    {"winograd.ew_fwd_ms", "ms"},
    {"winograd.xform_inverse_ms", "ms"},
    {"winograd.ew_bwd_data_ms", "ms"},
    {"winograd.ew_grad_weights_ms", "ms"},
    {"winograd.xform_adjoint_ms", "ms"},
    {"winograd.fused_fwd_ms", "ms"},
    {"winograd.fused_bwd_data_ms", "ms"},
    {"winograd.decomp_fwd_ms", "ms"},
    {"winograd.direct_ms", "ms"},
    {"winograd.bytes_per_step", "B"},
    {"winograd.traffic_pred_ratio", "ratio"},
    {"tuner.pred_error_log2", "log2"},
    {"tuner.selects", "count/op"},
    {"workspace.fresh_bytes_per_step", "B"},
    {"workspace.high_water_mb", "MB"},
    {"host.cpu_util", "ratio"},
    {"mpt.tile_elems_per_step", "count"},
    {"mpt.weight_elems_per_step", "count"},
    {"serve.batch_size_mean", "count"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.forward_ms_per_batch", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
    {"noc.drain_ms", "ms"},
    {"noc.drain_cycles", "count"},
    {"noc.flits_ejected", "count"},
    {"noc.credit_stalls", "count"},
    {"noc.hol_blocks", "count"},
    {"noc.max_link_util", "ratio"},
    {"trace_overhead_pct", "%"},
};

/** Failures logged individually before the rest are only counted. */
constexpr std::int64_t kLoggedFailures = 10;

/** Knobs that change what the library executes; BENCHMARK.json fixes
 *  the policy, so a run refuses to start with any of them set. */
const char *const kPinnedKnobs[] = {
    "WINOMC_TUNE_CACHE", "WINOMC_FUSED",  "WINOMC_PREC",
    "WINOMC_SPARSE",     "WINOMC_ISA",    "WINOMC_TUNE",
    "WINOMC_METRICS",    "WINOMC_TRACE",  "WINOMC_THREADS",
};

} // namespace

Outcome::Outcome(bool traced)
{
    if (traced) {
        for (const MetricSpec &m : kPerLayer)
            entries.push_back({m.name, m.unit, 0.0});
    } else {
        for (const MetricSpec &m : kEndToEnd)
            entries.push_back({m.name, m.unit, 0.0});
    }
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++nAttempted;
    if (ok)
        return;
    if (++nFailed <= kLoggedFailures)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void
Outcome::set(const std::string &name, double value)
{
    for (Entry &e : entries) {
        if (e.name != name)
            continue;
        check(std::isfinite(value), "metric " + name + " is finite");
        e.value = std::isfinite(value) ? value : 0.0;
        return;
    }
    std::fprintf(stderr, "internal error: metric '%s' is not in this "
                         "run's table\n", name.c_str());
    std::abort();
}

std::string
Outcome::json() const
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"correct\": "
      << (nFailed == 0 && nAttempted > 0 ? "true" : "false")
      << ", \"attempted\": " << nAttempted << ", \"failed\": " << nFailed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        o << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
          << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    o << "}}";
    return o.str();
}

void
Outcome::print() const
{
    for (const Entry &e : entries)
        std::printf("%-34s %16.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    std::printf("%-34s %16.6g (failed %lld of %lld operations)\n",
                "failed_ratio",
                nAttempted ? double(nFailed) / double(nAttempted) : 0.0,
                (long long)nFailed, (long long)nAttempted);
}

// ------------------------------------------------------------ Spans

Spans::Spans() : epoch(Clock::now())
{
    records.reserve(std::size_t(1) << 16);
}

int
Spans::id(const std::string &name)
{
    auto [it, fresh] = ids.emplace(name, int(names.size()));
    if (fresh) {
        names.push_back(name);
        totals.push_back(0.0);
        counts.push_back(0);
        last.push_back(0.0);
    }
    return it->second;
}

double
Spans::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

Spans::Scope::Scope(Spans *rec_, int nameId) : rec(rec_)
{
    if (!rec)
        return;
    index = rec->records.size();
    rec->records.push_back({nameId, rec->open, rec->nowUs(), 0.0});
    rec->open = int(index);
}

Spans::Scope::~Scope()
{
    if (!rec)
        return;
    Record &r = rec->records[index];
    r.durUs = rec->nowUs() - r.startUs;
    const double ms = r.durUs * 1e-3;
    const std::size_t n = std::size_t(r.name);
    rec->totals[n] += ms;
    rec->counts[n] += 1;
    rec->last[n] = ms;
    rec->open = r.parent;
}

double
Spans::totalMs(const std::string &name) const
{
    const auto it = ids.find(name);
    return it == ids.end() ? 0.0 : totals[std::size_t(it->second)];
}

std::int64_t
Spans::count(const std::string &name) const
{
    const auto it = ids.find(name);
    return it == ids.end() ? 0 : counts[std::size_t(it->second)];
}

void
Spans::clear()
{
    records.clear();
    std::fill(totals.begin(), totals.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(last.begin(), last.end(), 0.0);
    open = -1;
}

void
Spans::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write trace file '%s'\n",
                     path.c_str());
        return;
    }
    f.precision(17);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        f << (i ? ",\n" : "") << "{\"name\": \""
          << names[std::size_t(r.name)]
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": "
          << r.startUs << ", \"dur\": " << r.durUs
          << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": " << i
          << ", \"parent\": " << r.parent << "}}";
    }
    f << "\n]}\n";
}

// --------------------------------------------------------- TracedNet

TracedNet::TracedNet(nn::Sequential &net, Spans &spans_)
    : spans(spans_), forwardId(spans_.id("nn.forward")),
      stepId(spans_.id("nn.step"))
{
    int convs = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        nn::Module &m = net.child(i);
        auto *conv = dynamic_cast<nn::ConvLayer *>(&m);
        const std::string label =
            conv ? "nn.conv" + std::to_string(++convs) : "nn.other";
        children.push_back(
            {&m, spans.id(label + ".fwd"), spans.id(label + ".bwd"),
             conv && conv->mode() == nn::ConvMode::Auto ? conv : nullptr,
             {}});
    }
}

Tensor
TracedNet::forward(const Tensor &x, bool train)
{
    Spans::Scope whole(&spans, forwardId);
    Tensor cur = x;
    for (Child &c : children) {
        {
            Spans::Scope s(&spans, c.fwd);
            cur = c.module->forward(cur, train);
        }
        if (c.autoConv) {
            const double measured = spans.lastMs(c.fwd);
            const double predicted = c.autoConv->autoChoice().predictedMs;
            if (measured > 0.0 && predicted > 0.0)
                c.tunerErr.push_back(
                    std::fabs(std::log2(predicted / measured)));
        }
    }
    return cur;
}

Tensor
TracedNet::backward(const Tensor &dy)
{
    Tensor cur = dy;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
        Spans::Scope s(&spans, it->bwd);
        cur = it->module->backward(cur);
    }
    return cur;
}

void
TracedNet::step(float lr)
{
    Spans::Scope s(&spans, stepId);
    for (Child &c : children)
        c.module->step(lr);
}

std::vector<nn::ConvLayer *>
TracedNet::autoConvs() const
{
    std::vector<nn::ConvLayer *> out;
    for (const Child &c : children)
        if (c.autoConv)
            out.push_back(c.autoConv);
    return out;
}

std::vector<std::vector<double>>
TracedNet::tunerErrors() const
{
    std::vector<std::vector<double>> out;
    for (const Child &c : children)
        if (c.autoConv)
            out.push_back(c.tunerErr);
    return out;
}

// ----------------------------------------------------- RegistryDelta

void
RegistryDelta::start()
{
    begin.clear();
    for (metrics::Sample &s : metrics::snapshot())
        begin[s.name] = std::move(s);
}

void
RegistryDelta::stop()
{
    end.clear();
    for (metrics::Sample &s : metrics::snapshot())
        end[s.name] = std::move(s);
}

double
RegistryDelta::timerSec(const std::string &name) const
{
    const auto e = end.find(name);
    if (e == end.end())
        return 0.0;
    const auto b = begin.find(name);
    return e->second.totalSec -
           (b == begin.end() ? 0.0 : b->second.totalSec);
}

double
RegistryDelta::counterSum(const std::string &prefix,
                          const std::string &suffix) const
{
    double total = 0.0;
    for (const auto &[name, s] : end) {
        if (s.kind != metrics::Kind::Counter ||
            name.size() < prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const auto b = begin.find(name);
        total += s.value - (b == begin.end() ? 0.0 : b->second.value);
    }
    return total;
}

double
RegistryDelta::gauge(const std::string &name) const
{
    const auto e = end.find(name);
    return e == end.end() ? 0.0 : e->second.value;
}

// -------------------------------------------------------- LayerProbe

void
LayerProbe::start()
{
    ws::Workspace::global().resetStats();
    freshBytes0 = ws::Workspace::global().stats().freshBytes;
    selects0 = tune::tunerStats().selects;
    cpu0 = cpuSeconds();
    wall0 = Clock::now();
    registry.start();
}

void
LayerProbe::report(Outcome &out, double tracedOps, double allOps,
                   int threads)
{
    registry.stop();
    const double wall = secondsSince(wall0);
    const double cpu = cpuSeconds() - cpu0;
    const ws::Stats st = ws::Workspace::global().stats();
    const double perTraced = tracedOps > 0 ? 1.0 / tracedOps : 0.0;
    const double perOp = allOps > 0 ? 1.0 / allOps : 0.0;
    auto ms = [&](std::initializer_list<const char *> timers) {
        double s = 0.0;
        for (const char *t : timers)
            s += registry.timerSec(t);
        return s * 1e3 * perTraced;
    };
    out.set("winograd.xform_input_ms", ms({"wino.xform.input"}));
    out.set("winograd.ew_fwd_ms", ms({"wino.ew.fwd"}));
    out.set("winograd.xform_inverse_ms", ms({"wino.xform.inverse"}));
    out.set("winograd.ew_bwd_data_ms", ms({"wino.ew.bwd_data"}));
    out.set("winograd.ew_grad_weights_ms", ms({"wino.ew.grad_weights"}));
    out.set("winograd.xform_adjoint_ms",
            ms({"wino.xform.input_adjoint", "wino.xform.inverse_adjoint"}));
    out.set("winograd.fused_fwd_ms", ms({"wino.fused.fwd"}));
    out.set("winograd.fused_bwd_data_ms", ms({"wino.fused.bwd_data"}));
    out.set("winograd.decomp_fwd_ms", ms({"decomp.fwd"}));
    out.set("winograd.direct_ms",
            ms({"direct.fwd", "direct.fwd_ex", "direct.bwd_data",
                "direct.grad_weights"}));
    out.set("winograd.bytes_per_step",
            registry.counterSum("wino.", ".bytes_moved") * perTraced);
    out.set("tuner.selects",
            double(tune::tunerStats().selects - selects0) * perOp);
    out.set("workspace.fresh_bytes_per_step",
            double(st.freshBytes - freshBytes0) * perOp);
    out.set("workspace.high_water_mb",
            double(st.highWater) / (1024.0 * 1024.0));
    out.set("host.cpu_util", wall > 0.0 ? cpu / (wall * threads) : 0.0);
}

double
trafficPredRatio(nn::Sequential &net, const Tensor &x, bool train)
{
    const bool wasOn = metrics::enabled();
    metrics::setEnabled(true);
    double measured = 0.0, predicted = 0.0;
    Tensor cur = x;
    for (std::size_t i = 0; i < net.size(); ++i) {
        RegistryDelta d;
        d.start();
        cur = net.child(i).forward(cur, train);
        d.stop();
        measured += d.counterSum("wino.", ".bytes_moved");
        // predicted_bytes is a last-write gauge per (mode, phase); one
        // child runs one plan shape, so calls x gauge is its total.
        for (const char *mode : {"staged", "fused"}) {
            const std::string base = std::string("wino.") + mode + ".fwd";
            predicted += d.counterSum(base, ".calls") *
                         d.gauge(base + ".predicted_bytes");
        }
    }
    metrics::setEnabled(wasOn);
    return predicted > 0.0 ? measured / predicted : 0.0;
}

void
reportNnLayers(Outcome &out, const Spans &spans, const std::string &total,
               double ops)
{
    const double perOp = ops > 0 ? 1.0 / ops : 0.0;
    double parts = 0.0;
    auto put = [&](const std::string &span) {
        const double v = spans.totalMs(span) * perOp;
        out.set(span + "_ms", v);
        parts += v;
    };
    for (int k = 1; k <= 5; ++k) {
        put("nn.conv" + std::to_string(k) + ".fwd");
        put("nn.conv" + std::to_string(k) + ".bwd");
    }
    for (const char *span :
         {"nn.other.fwd", "nn.other.bwd", "nn.step", "nn.loss"})
        put(span);
    out.set("nn.unattributed_ms", spans.totalMs(total) * perOp - parts);
}

// ----------------------------------------------------------- helpers

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
           double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t idx = std::size_t(
        std::clamp(rank - 1.0, 0.0, double(v.size() - 1)));
    return v[idx];
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
overheadPct(double traced, double untraced)
{
    if (traced <= 0.0 || untraced <= 0.0)
        return 0.0;
    return 100.0 * (traced / untraced - 1.0);
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "train_wino|serve_auto|noc_fig9 [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] "
                 "[--inject-fault]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--inject-fault") {
            opt.fault = true;
        } else if (a == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--trace-out" && hasValue) {
            opt.traceOut = argv[++i];
        } else {
            return usage();
        }
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        return usage();
    for (const char *knob : kPinnedKnobs) {
        if (std::getenv(knob)) {
            std::fprintf(stderr,
                         "%s is set: the benchmark fixes the execution "
                         "policy, unset it first\n", knob);
            return 2;
        }
    }

    // One pool thread: on a shared host, multi-threaded timings follow
    // the scheduling of the other tenants (see README.md).
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = 1;
    winomc::ThreadPool::global().setThreadCount(opt.threads);
    std::printf("# host: cores=%u threads=%d isa=%s\n", cores, opt.threads,
                winomc::mk::isaName(winomc::mk::activeIsa()));
    std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, int(opt.trace));

    std::optional<Outcome> out;
    if (opt.workload == "train_wino")
        out.emplace(runTrain(opt));
    else if (opt.workload == "serve_auto")
        out.emplace(runServe(opt));
    else if (opt.workload == "noc_fig9")
        out.emplace(runNoc(opt));
    else
        return usage();

    out->print();
    std::printf("%s\n", out->json().c_str());
    std::fflush(stdout);
    return 0;
}
