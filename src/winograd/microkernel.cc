/**
 * @file
 * Runtime ISA dispatch for the micro-kernel tables.
 *
 * Each requested level (ExecConfig::isa) is resolved once, on the
 * first kernels() call that asks for it, against what the running CPU
 * reports via cpuid and which vector TUs this binary was actually
 * built with. Anything unsatisfiable warns and falls down the ladder —
 * never crashes — mirroring the WINOMC_THREADS discipline.
 */

#include "winograd/microkernel.hh"

#include <atomic>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "winograd/exec_config.hh"

namespace winomc::mk {

namespace {

std::mutex gMu;
/** Resolved table per requested level: Scalar..Avx512, then Auto. */
std::atomic<const MicroKernels *> gResolved[5];

const MicroKernels *
tableFor(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return detail::scalarTable();
      case Isa::Sse2:
        return detail::sse2Table();
      case Isa::Avx2:
        return detail::avx2Table();
      case Isa::Avx512:
        return detail::avx512Table();
      case Isa::Auto:
        break;
    }
    return nullptr;
}

/** Does the running CPU execute this level? (Build coverage is
 *  checked separately via tableFor.) */
bool
cpuHas(Isa isa)
{
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Sse2:
        return __builtin_cpu_supports("sse2");
      case Isa::Avx2:
        // f16c: the AVX2 TU is compiled with -mf16c for the fp16
        // decode path (every AVX2+FMA part ships it, but verify).
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("f16c");
      case Isa::Avx512:
        return __builtin_cpu_supports("avx512f");
      case Isa::Auto:
        break;
    }
    return false;
#else
    return isa == Isa::Scalar;
#endif
}

bool
usable(Isa isa)
{
    return cpuHas(isa) && tableFor(isa) != nullptr;
}

} // namespace

Isa
highestSupported()
{
    for (Isa isa : {Isa::Avx512, Isa::Avx2, Isa::Sse2})
        if (usable(isa))
            return isa;
    return Isa::Scalar;
}

Isa
resolveIsa(Isa requested)
{
    if (requested == Isa::Auto)
        return highestSupported();
    if (usable(requested))
        return requested;
    Isa fallback = Isa::Scalar;
    for (Isa isa : {Isa::Avx512, Isa::Avx2, Isa::Sse2}) {
        if (int(isa) < int(requested) && usable(isa)) {
            fallback = isa;
            break;
        }
    }
    winomc_warn("WINOMC_ISA=", isaName(requested),
                cpuHas(requested) ? " not built into this binary"
                                  : " not supported by this CPU",
                "; falling back to ", isaName(fallback));
    return fallback;
}

const MicroKernels &
kernels()
{
    const Isa req = execConfig().isa;
    std::atomic<const MicroKernels *> &slot =
        gResolved[req == Isa::Auto ? 4 : int(req)];
    if (const MicroKernels *t = slot.load(std::memory_order_acquire))
        return *t;
    std::lock_guard<std::mutex> lk(gMu);
    if (const MicroKernels *t = slot.load(std::memory_order_relaxed))
        return *t;
    const MicroKernels *t = tableFor(resolveIsa(req));
    winomc_assert(t != nullptr, "ISA resolution produced no table");
    metrics::gaugeSet("kernel.isa.level", double(int(t->isa)));
    slot.store(t, std::memory_order_release);
    return *t;
}

Isa
activeIsa()
{
    return kernels().isa;
}

void
publishStageMetrics(const char *stage, double seconds, double flops)
{
    if (!metrics::enabled())
        return;
    const MicroKernels &k = kernels();
    metrics::gaugeSet("kernel.isa.level", double(int(k.isa)));
    std::string base = "kernel.";
    base += stage;
    metrics::gaugeSet((base + ".gflops").c_str(),
                      seconds > 0.0 ? flops / seconds * 1e-9 : 0.0);
    // Cumulative time and work per stage: together with the
    // perf.<stage>.* hardware counters these are the inputs of the
    // winomc-report roofline table (GFLOP/s from flops/seconds, IPC
    // and bytes/cycle from the perf counters).
    metrics::timerAdd((base + ".seconds").c_str(), seconds);
    metrics::counterAdd((base + ".flops").c_str(), flops);
    metrics::timerAdd(k.isa == Isa::Scalar ? "kernel.time.scalar"
                                           : "kernel.time.vector",
                      seconds);
}

StageTimer::StageTimer(const char *stage, double flops)
    : stage(stage), flops(flops), active(metrics::enabled())
{
    if (active) {
        start = std::chrono::steady_clock::now();
        perf0 = perf::read();
    }
}

StageTimer::~StageTimer()
{
    if (active) {
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start;
        publishStageMetrics(stage, d.count(), flops);
        // Joins kernel.<stage>.{seconds,flops} in the winomc-report
        // roofline.
        perf::publishStage(stage, perf0);
    }
}

} // namespace winomc::mk
