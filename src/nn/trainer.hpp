// Training loop with L2 regularization and noise-aware training support.
//
// Noise-aware training (paper §V.B) evaluates each forward/backward pass at
// weights perturbed with Gaussian noise while the optimizer updates the
// clean weights; L2 regularization (paper §V.A) enters through the SGD
// weight-decay term. The mitigation variants of §VI combine both.
#pragma once

#include "nn/dataset.hpp"
#include "nn/noise.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace safelight::nn {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;     // L2 regularization strength
  float lr_decay = 0.5f;         // multiplicative step decay
  std::size_t lr_decay_every = 0;  // in epochs; 0 disables
  NoiseConfig noise;             // noise-aware training; sigma 0 disables
  std::uint64_t seed = 11;
  bool verbose = false;
};

struct TrainHistory {
  std::vector<double> train_loss;  // mean per epoch
  std::vector<double> test_acc;    // after each epoch (empty test -> skipped)
  double final_test_acc = 0.0;
};

/// Mean classification accuracy of `model` on `data` (eval mode, batched).
double evaluate(Sequential& model, const Dataset& data,
                std::size_t batch_size = 64);

/// Trains `model` in place; returns the per-epoch history. Each epoch is a
/// `train.epoch` trace span (args: epoch, loss). An empty `test` skips
/// the per-epoch evaluation; eval-mode forwards change no model state
/// (BatchNorm reads its running stats, Dropout draws nothing), so the
/// trained weights are byte-identical either way. The backward pass runs
/// through Sequential::backward_params, and the element-wise layers and
/// conv GEMMs fan out over the pool with thread-invariant results.
TrainHistory train_model(Sequential& model, const Dataset& train,
                         const Dataset& test, const TrainConfig& config);

}  // namespace safelight::nn
