/**
 * @file
 * The execution config: how the host engine runs a convolution, as one
 * value.
 *
 * Five environment knobs seed it, once, on the first execConfig() call:
 *
 *   WINOMC_ISA=auto|scalar|sse2|avx2|avx512  micro-kernel table (§4.10)
 *   WINOMC_FUSED=auto|on|off                fused tile-strip forward (§4.11)
 *   WINOMC_PREC=fp32|fp16|bf16              activation-slab storage (§4.15)
 *   WINOMC_SPARSE=off|on                    zero-skipping element-wise stage
 *   WINOMC_TUNE=analytic|off|measure        algorithm selection (§4.14)
 *
 * Every knob follows the common/env.hh discipline: values are trimmed
 * and case-insensitive, missing or empty is the default silently, and
 * garbage warns once and falls back to the default — never throws,
 * never exits.
 *
 * Consumers read the live value: mk::kernels() resolves its isa, the
 * tuner its tune mode and key(), and every WinoPlan captures the whole
 * config at construction (matches() compares it, so plan pools rebuild
 * rather than alias across a config change). Tests and benchmarks
 * change it only through ScopedExecConfig.
 */

#ifndef WINOMC_WINOGRAD_EXEC_CONFIG_HH
#define WINOMC_WINOGRAD_EXEC_CONFIG_HH

#include <functional>
#include <string>

#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"

namespace winomc {

/**
 * Staged pipeline (full slabs between stages) or the fused tile-strip
 * pipeline (§4.11).
 *
 *  - Off:  always staged.
 *  - Auto: fused when the plan's shape qualifies (slabs overflow cache
 *          and no caller needs the tile caches), staged otherwise.
 *  - On:   every forward fuses, regardless of size (train-mode layer
 *          forwards included, whose backward then rebuilds the input
 *          tiles from the cached activations). Fused is a forward-only
 *          pipeline: backward always runs staged off one dYt slab.
 */
enum class FusedMode : int { Off = 0, Auto = 1, On = 2 };

/** "off", "auto", "on". */
const char *fusedModeName(FusedMode m);

namespace tune {

/**
 * How tune::selectAlgorithm picks (see winograd/tuner.hh):
 *  - Off:      a static heuristic, no cost model, no cache;
 *  - Analytic: rank the safety-filtered candidates by the cost model;
 *  - Measure:  analytic ranking, then time the top candidates.
 */
enum class TuneMode : int { Off = 0, Analytic = 1, Measure = 2 };

/** "off", "analytic", "measure". */
const char *tuneModeName(TuneMode m);

} // namespace tune

struct ExecConfig
{
    mk::Isa isa = mk::Isa::Auto;
    FusedMode fused = FusedMode::Auto;
    Prec prec = Prec::F32;
    bool sparse = false;
    tune::TuneMode tune = tune::TuneMode::Analytic;

    bool operator==(const ExecConfig &o) const = default;

    /**
     * Cache-key suffix of the fields that change a layer's numbers or
     * cost ranking: empty at fp32 dense, else "_fp16"/"_bf16" then
     * "_sp". Tuner-cache keys and serve::PlanCache weight tags append
     * it, so files written before the config existed keep resolving.
     */
    std::string key() const;
};

/**
 * Parse the five knobs, reading each variable through `lookup`
 * (std::getenv's contract: nullptr when unset). Each garbage value
 * warns "ignoring unrecognized WINOMC_<X> '<value>'" and keeps that
 * field's default.
 */
ExecConfig
parseExecConfig(const std::function<const char *(const char *)> &lookup);

/**
 * The live config: parseExecConfig(std::getenv) on first use, then
 * whatever the innermost live ScopedExecConfig set. Lock-free, and a
 * read never sees a half-written config.
 */
ExecConfig execConfig();

/**
 * Replace the live config for this object's lifetime and restore the
 * previous value on destruction. Tests and benchmarks only; scopes
 * nest LIFO. Kernel work already in flight keeps whatever it read, and
 * plans built under the outer config stop matching inside the scope.
 */
class ScopedExecConfig
{
  public:
    explicit ScopedExecConfig(const ExecConfig &cfg);
    /** The live config with `edit` applied, e.g.
     *  ScopedExecConfig s([](ExecConfig &c) { c.fused = FusedMode::On; }); */
    explicit ScopedExecConfig(const std::function<void(ExecConfig &)> &edit);
    ~ScopedExecConfig();

    ScopedExecConfig(const ScopedExecConfig &) = delete;
    ScopedExecConfig &operator=(const ScopedExecConfig &) = delete;

  private:
    ExecConfig prev;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_EXEC_CONFIG_HH
