/**
 * @file
 * MetricsProbe: record metrics for one scope and read counters back,
 * so a test can observe which pipeline ran (e.g. the
 * wino.fused.fwd.calls counter of a fused forward) instead of asking
 * the code under test for its decision.
 */

#ifndef WINOMC_TESTS_METRICS_PROBE_HH
#define WINOMC_TESTS_METRICS_PROBE_HH

#include "common/metrics.hh"

namespace winomc::test {

class MetricsProbe
{
  public:
    /** Turn recording on from zero; restored (and cleared) on exit. */
    MetricsProbe() : was(metrics::enabled())
    {
        metrics::setEnabled(true);
        metrics::reset();
    }
    ~MetricsProbe()
    {
        metrics::reset();
        metrics::setEnabled(was);
    }

    MetricsProbe(const MetricsProbe &) = delete;
    MetricsProbe &operator=(const MetricsProbe &) = delete;

    /** Counter `name` accumulated since construction (0 when absent). */
    double counter(const char *name) const
    {
        for (const metrics::Sample &s : metrics::snapshot())
            if (s.name == name)
                return s.value;
        return 0.0;
    }

    /** Fused forwards run since construction. */
    double fusedForwards() const
    {
        return counter("wino.fused.fwd.calls");
    }

  private:
    bool was;
};

} // namespace winomc::test

#endif // WINOMC_TESTS_METRICS_PROBE_HH
