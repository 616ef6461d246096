/**
 * @file
 * Auto-tuner walkthrough: tune a mix of layer geometries — the paper's
 * 3x3 layers, a 5x5, a 7x7 stride-2 stem, a strided downsampler — and
 * print what the tuner picked, its predicted (and, in measure mode,
 * measured) time, and whether the decision came from the on-disk
 * tuning cache.
 *
 * Knobs:
 *   WINOMC_TUNE=off|analytic|measure   selection mode (default analytic)
 *   WINOMC_TUNE_CACHE=<path>           persist decisions; run this demo
 *                                      twice with the same path and the
 *                                      second run resolves every layer
 *                                      with from_cache=1.
 *
 * Build & run:  ./build/examples/tuner_demo
 */

#include <cstdio>

#include "winograd/plan.hh"
#include "winograd/tuner.hh"
#include "workloads/layers.hh"

using namespace winomc;

int
main()
{
    std::printf("tune mode: %s\n\n",
                tune::tuneModeName(execConfig().tune));

    std::vector<ConvSpec> specs = workloads::tableTwoLayers(8);
    for (ConvSpec s : workloads::modernLayers(8))
        specs.push_back(s);

    std::printf("%-12s %-34s %-18s %10s %10s %10s\n", "layer", "shape",
                "algorithm", "pred_ms", "meas_ms", "from_cache");
    for (const ConvSpec &spec : specs) {
        const tune::AlgoChoice c = tune::selectAlgorithm(spec);
        char algo[48];
        switch (c.kind) {
          case tune::AlgoKind::Direct:
            std::snprintf(algo, sizeof(algo), "direct");
            break;
          case tune::AlgoKind::Winograd:
            std::snprintf(algo, sizeof(algo), "winograd F(%d,3)", c.m);
            break;
          case tune::AlgoKind::Decomposed:
            std::snprintf(algo, sizeof(algo), "decomposed F(%d,3) x%d",
                          c.m, int(decomposeSpec(spec).size()));
            break;
        }
        std::printf("%-12s %-34s %-18s %10.3f %10.3f %10d\n",
                    spec.name.c_str(), spec.key().c_str(), algo,
                    c.predictedMs, c.measuredMs, c.fromCache ? 1 : 0);
    }
    return 0;
}
