/**
 * @file
 * The one shared helper tests use to change process-wide execution
 * state.
 *
 *  - ExecScope: the live ExecConfig edited by a lambda, plus the pool
 *    thread count; both are restored on exit. Unedited fields keep
 *    their current value, so the env-driven CI legs (WINOMC_SPARSE=on,
 *    WINOMC_FUSED=on, ...) keep applying to whatever a test does not
 *    pin. Plans capture the config at construction, so build them
 *    inside the scope they should run under.
 *  - withIsa / withFused / withPrec / withSparse / withTune: one-field
 *    edits for ExecScope and nested ScopedExecConfig flips.
 *  - Fp32Pin: declared once at namespace scope by suites that check
 *    the fp32 pipeline against fp32 oracles; pins prec to fp32 for the
 *    whole binary whatever WINOMC_PREC says. WINOMC_SPARSE stays
 *    env-driven: sparse fp32 execution is bitwise identical.
 */

#ifndef WINOMC_TESTS_EXEC_SCOPE_HH
#define WINOMC_TESTS_EXEC_SCOPE_HH

#include <functional>

#include "common/parallel.hh"
#include "winograd/exec_config.hh"

namespace winomc::test {

class ExecScope
{
  public:
    explicit ExecScope(
        const std::function<void(ExecConfig &)> &edit = [](ExecConfig &) {})
        : cfg(edit)
    {
    }
    ~ExecScope() { ThreadPool::global().setThreadCount(0); }

    ExecScope(const ExecScope &) = delete;
    ExecScope &operator=(const ExecScope &) = delete;

  private:
    ScopedExecConfig cfg;
};

// One-field editors for ExecScope / ScopedExecConfig, e.g.
// ScopedExecConfig off(withFused(FusedMode::Off)).
inline auto withIsa(mk::Isa v) { return [v](ExecConfig &c) { c.isa = v; }; }
inline auto withFused(FusedMode v)
{
    return [v](ExecConfig &c) { c.fused = v; };
}
inline auto withPrec(Prec v) { return [v](ExecConfig &c) { c.prec = v; }; }
inline auto withSparse(bool v)
{
    return [v](ExecConfig &c) { c.sparse = v; };
}
inline auto withTune(tune::TuneMode v)
{
    return [v](ExecConfig &c) { c.tune = v; };
}

struct Fp32Pin
{
    ScopedExecConfig pin{withPrec(Prec::F32)};
};

} // namespace winomc::test

#endif // WINOMC_TESTS_EXEC_SCOPE_HH
