/**
 * @file
 * Mini-batch SGD training loop with per-epoch validation.
 */

#ifndef WINOMC_NN_TRAINER_HH
#define WINOMC_NN_TRAINER_HH

#include <vector>

#include "nn/dataset.hh"
#include "nn/module.hh"

namespace winomc::nn {

struct TrainConfig
{
    int epochs = 10;
    int batchSize = 16;
    float lr = 0.05f;
    float lrDecay = 1.0f;  ///< multiplicative per-epoch decay
    bool verbose = false;
};

struct EpochStats
{
    double trainLoss;
    double trainAcc;
    double valAcc;
};

/**
 * Train `model` (which must end in logits of `train.classes` width) and
 * return per-epoch statistics. Data order is shuffled with `rng`.
 *
 * A batch whose loss is not finite stops training before its backward
 * and step, with a warning naming the (1-based) epoch and batch: the
 * weights stay those of the last finite step, and only the epochs
 * completed before it are returned.
 */
std::vector<EpochStats> train(Module &model, const Dataset &train_set,
                              const Dataset &val_set,
                              const TrainConfig &cfg, Rng &rng);

/** Top-1 accuracy of the model on a dataset. */
double evaluate(Module &model, const Dataset &ds, int batch_size = 32);

} // namespace winomc::nn

#endif // WINOMC_NN_TRAINER_HH
