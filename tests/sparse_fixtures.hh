/**
 * @file
 * Shared fixtures of the sparse + low-precision execution tests
 * (sparse_test.cpp, sparse_timing_test.cpp): the fp32-dense baseline
 * config, a post-ReLU-style sparse input and magnitude-pruned Winograd
 * weights.
 */

#ifndef WINOMC_TESTS_SPARSE_FIXTURES_HH
#define WINOMC_TESTS_SPARSE_FIXTURES_HH

#include "common/parallel.hh"
#include "common/rng.hh"
#include "quant/prune.hh"
#include "winograd/conv.hh"
#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"
#include "winograd/tuner.hh"

#include "exec_scope.hh"

namespace winomc {

using test::ExecScope;
using test::withIsa;
using test::withPrec;
using test::withSparse;

/**
 * The baseline every sparse test scopes on entry (ExecScope guard(
 * fp32Dense)): fp32 dense, other fields as seeded. Tests flip prec and
 * sparsity in nested scopes on purpose; plans capture the config at
 * construction, so each is built inside the scope it should run under.
 */
inline void
fp32Dense(ExecConfig &c)
{
    c.prec = Prec::F32;
    c.sparse = false;
}

/** Post-ReLU-looking input: Gaussian, negatives clamped, whole
 *  channel-planes and patch blocks zeroed so full tile panels go dead
 *  (the activation mask's fast path) alongside scattered zeros. */
inline Tensor
reluSparseInput(int b, int c, int h, int w, Rng &rng)
{
    Tensor x(b, c, h, w);
    x.fillGaussian(rng);
    for (int n = 0; n < b; ++n)
        for (int ch = 0; ch < c; ++ch)
            for (int i = 0; i < h; ++i)
                for (int j = 0; j < w; ++j) {
                    float &v = x.at(n, ch, i, j);
                    if (v < 0.0f || ch % 3 == 0 ||
                        (i / 4 + j / 4) % 2 == 0)
                        v = 0.0f;
                }
    return x;
}

/** Transformed weights pruned to `sparsity` by magnitude. */
inline WinoWeights
prunedWeights(int outCh, int inCh, int r, const WinogradAlgo &algo,
              double sparsity, Rng &rng)
{
    Tensor w(outCh, inCh, r, r);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);
    quant::magnitudePrune(W, sparsity).apply(W);
    return W;
}

} // namespace winomc

#endif // WINOMC_TESTS_SPARSE_FIXTURES_HH
