#include "nn/trainer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "nn/loss.hh"

namespace winomc::nn {

std::vector<EpochStats>
train(Module &model, const Dataset &train_set, const Dataset &val_set,
      const TrainConfig &cfg, Rng &rng)
{
    static std::once_flag engine_logged;
    std::call_once(engine_logged, [] {
        winomc_inform("host execution engine: ",
                      ThreadPool::global().threadCount(),
                      " thread(s) (WINOMC_THREADS overrides)");
    });

    int batch_size = cfg.batchSize;
    if (batch_size <= 0) {
        winomc_warn("batchSize ", cfg.batchSize, " clamped to 1");
        batch_size = 1;
    }
    if (train_set.size() == 0)
        winomc_warn("training set is empty - every epoch is a no-op");

    std::vector<EpochStats> history;
    std::vector<size_t> order(train_set.size());
    std::iota(order.begin(), order.end(), 0);

    float lr = cfg.lr;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        WINOMC_SPAN("train.epoch", "train");
        const auto epoch_start = std::chrono::steady_clock::now();
        std::shuffle(order.begin(), order.end(), rng.raw());

        double loss_sum = 0.0;
        int correct = 0, seen = 0, batches = 0;
        // Walk the whole (shuffled) set; the final batch may be a
        // partial remainder so no sample is ever dropped, and
        // batch_size > size() degrades to one small batch per epoch.
        for (size_t pos = 0; pos < train_set.size();
             pos += size_t(batch_size)) {
            WINOMC_SPAN("train.batch", "train");
            const int bn = int(std::min(size_t(batch_size),
                                        train_set.size() - pos));
            // Gather the shuffled batch.
            Tensor xb(bn, 1, train_set.imageSize, train_set.imageSize);
            std::vector<int> yb(static_cast<size_t>(bn));
            for (int k = 0; k < bn; ++k) {
                const Tensor &img = train_set.images[order[pos + k]];
                for (int i = 0; i < train_set.imageSize; ++i)
                    for (int j = 0; j < train_set.imageSize; ++j)
                        xb.at(k, 0, i, j) = img.at(i, j);
                yb[size_t(k)] = train_set.labels[order[pos + k]];
            }

            Tensor logits = model.forward(xb, true);
            LossResult res = softmaxCrossEntropy(logits, yb);
            if (!std::isfinite(res.loss)) {
                // Its gradient would poison every weight: stop first.
                winomc_warn("non-finite loss ", res.loss, " at epoch ",
                            epoch + 1, " batch ", batches + 1,
                            "; training stopped after ", history.size(),
                            " completed epoch(s)");
                return history;
            }
            model.backward(res.dlogits);
            model.step(lr);

            // res.loss is the batch mean: weight by batch size so the
            // remainder batch counts per sample, not per batch.
            loss_sum += res.loss * bn;
            correct += res.correct;
            seen += bn;
            ++batches;
        }

        EpochStats st;
        st.trainLoss = seen ? loss_sum / seen : 0.0;
        st.trainAcc = seen ? double(correct) / seen : 0.0;
        st.valAcc = evaluate(model, val_set, batch_size);
        history.push_back(st);
        if (metrics::enabled()) {
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - epoch_start;
            metrics::counterAdd("train.samples", seen);
            metrics::counterAdd("train.batches", batches);
            if (dt.count() > 0.0)
                metrics::gaugeSet("train.samples_per_sec",
                                  seen / dt.count());
        }
        if (cfg.verbose) {
            winomc_inform("epoch ", epoch + 1, "/", cfg.epochs, " loss ",
                          st.trainLoss, " train acc ", st.trainAcc,
                          " val acc ", st.valAcc);
        }
        lr *= cfg.lrDecay;
    }
    return history;
}

double
evaluate(Module &model, const Dataset &ds, int batch_size)
{
    WINOMC_SPAN("train.eval", "train");
    if (batch_size <= 0)
        batch_size = 1;
    int correct = 0, seen = 0;
    for (size_t pos = 0; pos < ds.size(); pos += size_t(batch_size)) {
        size_t count = std::min(size_t(batch_size), ds.size() - pos);
        std::vector<int> yb;
        Tensor xb = ds.batch(pos, count, yb);
        Tensor logits = model.forward(xb, false);
        LossResult res = softmaxCrossEntropy(logits, yb);
        correct += res.correct;
        seen += int(count);
    }
    return seen ? double(correct) / seen : 0.0;
}

} // namespace winomc::nn
