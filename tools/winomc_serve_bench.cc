/**
 * @file
 * Open-loop load generator for the serving engine.
 *
 * Submits single-image requests at a fixed target rate (arrivals are
 * scheduled from the clock, not from completions, so queueing delay is
 * measured honestly — under overload the bounded queue's backpressure
 * throttles the producer and the run degrades toward closed-loop),
 * optionally alternating a second image shape to exercise the plan
 * cache, and reports per-request latency (exact p50/p99 from every
 * sample), sustained throughput, and workspace allocation per request.
 *
 * Usage:
 *   winomc_serve_bench [--seconds S] [--rate QPS] [--c C] [--h H]
 *                      [--w W] [--churn N] [--max-batch B]
 *                      [--delay-us D] [--json PATH]
 *
 *  --churn N   every Nth request uses a 3/4-sized image (0 = off),
 *              alternating shapes through the plan cache
 *  --json PATH merge "SERVE_*" rows into the BENCH_wino.json-style
 *              artifact at PATH (non-serve rows are preserved)
 *
 * With WINOMC_METRICS=<path> set, the serve.* metrics dump is written
 * on exit for winomc-report's Serving table; the bench enables
 * metrics recording itself, so only the path is needed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "nn/conv_layer.hh"
#include "serve/engine.hh"
#include "tensor/workspace.hh"
#include "winograd/microkernel.hh"

namespace {

using winomc::Rng;
using winomc::Tensor;
using Clock = std::chrono::steady_clock;

struct Options
{
    double seconds = 2.0;
    double rate = 1000.0; // target arrivals per second
    int c = 3, h = 32, w = 32;
    int churn = 0; // every Nth request uses the alternate shape
    int maxBatch = 0;      // 0: knob/default
    long long delayUs = -1; // <0: knob/default
    std::string jsonPath;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        const char *a = argv[i];
        const char *v = nullptr;
        if (!std::strcmp(a, "--seconds")) {
            if (!(v = need(a)))
                return false;
            opt.seconds = std::atof(v);
        } else if (!std::strcmp(a, "--rate")) {
            if (!(v = need(a)))
                return false;
            opt.rate = std::atof(v);
        } else if (!std::strcmp(a, "--c")) {
            if (!(v = need(a)))
                return false;
            opt.c = std::atoi(v);
        } else if (!std::strcmp(a, "--h")) {
            if (!(v = need(a)))
                return false;
            opt.h = std::atoi(v);
        } else if (!std::strcmp(a, "--w")) {
            if (!(v = need(a)))
                return false;
            opt.w = std::atoi(v);
        } else if (!std::strcmp(a, "--churn")) {
            if (!(v = need(a)))
                return false;
            opt.churn = std::atoi(v);
        } else if (!std::strcmp(a, "--max-batch")) {
            if (!(v = need(a)))
                return false;
            opt.maxBatch = std::atoi(v);
        } else if (!std::strcmp(a, "--delay-us")) {
            if (!(v = need(a)))
                return false;
            opt.delayUs = std::atoll(v);
        } else if (!std::strcmp(a, "--json")) {
            if (!(v = need(a)))
                return false;
            opt.jsonPath = v;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", a);
            return false;
        }
    }
    if (opt.seconds <= 0.0 || opt.rate <= 0.0 || opt.c < 1 ||
        opt.h < 4 || opt.w < 4) {
        std::fprintf(stderr, "invalid option values\n");
        return false;
    }
    return true;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return std::nan("");
    const std::size_t idx = std::min(
        sorted.size() - 1, std::size_t(q * double(sorted.size())));
    return sorted[idx];
}

/** Merge SERVE_* rows into a BENCH_wino.json-style artifact: rows
 *  with the same name are replaced, every other row (including other
 *  serving configurations) is preserved. */
void
mergeJson(const std::string &path,
          const std::vector<std::string> &serveRows)
{
    auto nameOf = [](const std::string &row) {
        const auto b = row.find("\"name\": \"");
        if (b == std::string::npos)
            return std::string();
        const auto s = b + 9;
        return row.substr(s, row.find('"', s) - s);
    };
    std::vector<std::string> newNames;
    for (const auto &r : serveRows)
        newNames.push_back(nameOf(r));
    std::vector<std::string> keep;
    std::ifstream in(path);
    if (in) {
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("{\"name\":") != std::string::npos &&
                std::find(newNames.begin(), newNames.end(),
                          nameOf(line)) == newNames.end()) {
                // Strip any trailing comma; re-added on write.
                std::string t = line;
                while (!t.empty() &&
                       (t.back() == ',' || t.back() == ' '))
                    t.pop_back();
                keep.push_back(t);
            }
        }
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return;
    }
    out << "{\n  \"benchmarks\": [\n";
    std::vector<std::string> all = keep;
    all.insert(all.end(), serveRows.begin(), serveRows.end());
    for (std::size_t i = 0; i < all.size(); ++i)
        out << all[i] << (i + 1 < all.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    std::printf("merged %zu serving row(s) into %s (%zu rows kept)\n",
                serveRows.size(), path.c_str(), keep.size());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace winomc;

    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    metrics::setEnabled(true);

    Rng rng(12345);
    nn::Sequential model;
    model.add(std::make_unique<nn::ConvLayer>(
        opt.c, 8, 3, nn::ConvMode::WinogradLayer, algoF2x2_3x3(), rng));
    model.add(std::make_unique<nn::ConvLayer>(
        8, 8, 3, nn::ConvMode::WinogradLayer, algoF2x2_3x3(), rng));

    serve::EngineConfig cfg;
    cfg.maxBatch = opt.maxBatch;
    cfg.maxDelayUs = opt.delayUs;
    serve::Engine engine(model, cfg);

    const int altH = std::max(4, opt.h * 3 / 4);
    const int altW = std::max(4, opt.w * 3 / 4);
    engine.warmup(opt.c, opt.h, opt.w);
    if (opt.churn > 0)
        engine.warmup(opt.c, altH, altW);

    // Pre-built request images, reused round-robin: the generator must
    // not allocate on the submission path.
    std::vector<Tensor> pool;
    for (int i = 0; i < 8; ++i) {
        const bool alt = opt.churn > 0 && i % opt.churn == opt.churn - 1;
        pool.emplace_back(1, opt.c, alt ? altH : opt.h,
                          alt ? altW : opt.w);
        pool.back().fillUniform(rng);
    }

    struct Pending
    {
        Clock::time_point submitted;
        std::future<Tensor> fut;
    };
    std::deque<Pending> inflight;
    std::mutex mu;
    std::condition_variable cv;
    bool doneSubmitting = false;

    std::vector<double> latencyUs;
    latencyUs.reserve(std::size_t(opt.rate * opt.seconds) + 16);

    const auto s0 = ws::Workspace::global().stats();
    const auto start = Clock::now();
    const auto interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / opt.rate));

    std::thread consumer([&] {
        std::unique_lock<std::mutex> lock(mu);
        while (true) {
            cv.wait(lock, [&] {
                return !inflight.empty() || doneSubmitting;
            });
            if (inflight.empty()) {
                if (doneSubmitting)
                    return;
                continue;
            }
            Pending p = std::move(inflight.front());
            inflight.pop_front();
            lock.unlock();
            p.fut.get();
            latencyUs.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - p.submitted)
                    .count());
            lock.lock();
        }
    });

    std::uint64_t submitted = 0;
    while (true) {
        const auto next = start + interval * submitted;
        if (next - Clock::now() > std::chrono::seconds(0))
            std::this_thread::sleep_until(next);
        if (Clock::now() - start >
            std::chrono::duration<double>(opt.seconds))
            break;
        const Tensor &img = pool[submitted % pool.size()];
        Pending p;
        p.submitted = Clock::now();
        p.fut = engine.submit(img); // copies; blocks under backpressure
        {
            std::lock_guard<std::mutex> lock(mu);
            inflight.push_back(std::move(p));
        }
        cv.notify_one();
        ++submitted;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        doneSubmitting = true;
    }
    cv.notify_all();
    consumer.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const auto s1 = ws::Workspace::global().stats();
    engine.stop();

    std::sort(latencyUs.begin(), latencyUs.end());
    double mean = 0.0;
    for (double v : latencyUs)
        mean += v;
    mean = latencyUs.empty() ? std::nan("") : mean / latencyUs.size();
    double ss = 0.0;
    for (double v : latencyUs)
        ss += (v - mean) * (v - mean);
    const double stddev =
        latencyUs.size() > 1
            ? std::sqrt(ss / double(latencyUs.size() - 1))
            : 0.0;
    const double p50 = percentile(latencyUs, 0.50);
    const double p99 = percentile(latencyUs, 0.99);
    const double qps = double(engine.served()) / elapsed;
    const double freshPerReq =
        double(s1.freshBytes - s0.freshBytes) /
        double(std::max<std::uint64_t>(1, engine.served()));
    const double allocsPerReq =
        double(s1.freshAllocs - s0.freshAllocs) /
        double(std::max<std::uint64_t>(1, engine.served()));

    const std::string shape = winomc::detail::concatMessage(
        "c", opt.c, "h", opt.h, "w", opt.w);
    std::printf("SERVE_OpenLoop/%s  served=%llu  qps=%.1f  "
                "mean_us=%.1f  p50_us=%.1f  p99_us=%.1f  "
                "fresh_bytes_per_req=%.1f  fresh_allocs_per_req=%.3f\n",
                shape.c_str(),
                (unsigned long long)engine.served(), qps, mean, p50,
                p99, freshPerReq, allocsPerReq);
    std::printf("serve.batch_max=%d  serve.delay_us=%lld  "
                "plan_cache: hits=%llu misses=%llu evictions=%llu\n",
                engine.maxBatch(), engine.maxDelayUs(),
                (unsigned long long)engine.planCache().hits(),
                (unsigned long long)engine.planCache().misses(),
                (unsigned long long)engine.planCache().evictions());

    if (!opt.jsonPath.empty()) {
        std::ostringstream row;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"SERVE_OpenLoop/%s/mb%d/rate%.0f%s\", "
            "\"isa\": \"%s\", \"ms_per_iter\": %.4f, "
            "\"stddev_ms\": %.4f, \"gflops\": 0.00, "
            "\"ws_fresh_bytes_per_iter\": %.1f, "
            "\"ws_acquires_per_iter\": %.2f, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f, \"qps\": %.1f}",
            shape.c_str(), engine.maxBatch(), opt.rate,
            opt.churn > 0 ? "/churn" : "",
            mk::isaName(mk::activeIsa()), mean / 1000.0,
            stddev / 1000.0, freshPerReq, allocsPerReq, p50, p99, qps);
        mergeJson(opt.jsonPath, {std::string(buf)});
    }

    metrics::dumpIfConfigured();
    // The CI smoke gate: a run that served nothing or lost its latency
    // distribution exits non-zero.
    if (engine.served() == 0 || !std::isfinite(p99) || p99 <= 0.0) {
        std::fprintf(stderr, "serve bench produced no valid latency\n");
        return 1;
    }
    return 0;
}
