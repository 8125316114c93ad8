#include "nn/trainer.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "nn/loss.hpp"

namespace safelight::nn {

double evaluate(Sequential& model, const Dataset& data,
                std::size_t batch_size) {
  require(data.size() > 0, "evaluate: empty dataset");
  std::size_t correct = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
    const std::size_t end = std::min(data.size(), begin + batch_size);
    auto [images, labels] = data.batch(begin, end);
    const std::vector<int> preds = model.predict(images);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

TrainHistory train_model(Sequential& model, const Dataset& train,
                         const Dataset& test, const TrainConfig& config) {
  require(config.epochs > 0, "train_model: epochs must be positive");
  train.validate();

  Rng rng(seed_combine(config.seed, 0x7124));
  const std::vector<Param*> params = model.params();
  Sgd opt(params, SgdConfig{config.lr, config.momentum, config.weight_decay,
                            /*decay_electronic=*/false});
  NoiseInjector injector(config.noise, seed_combine(config.seed, 0x401E));

  TrainHistory history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    trace::Span epoch_span("train", "train.epoch");
    if (config.lr_decay_every > 0 && epoch > 0 &&
        epoch % config.lr_decay_every == 0) {
      opt.set_lr(opt.lr() * config.lr_decay);
    }
    BatchIterator batches(train, config.batch_size, rng, /*shuffle=*/true);
    Tensor images;
    std::vector<int> labels;
    double loss_sum = 0.0;
    std::size_t batch_count = 0;
    while (batches.next(images, labels)) {
      // Noise-aware training: gradients are taken at perturbed weights,
      // the update is applied to the clean weights.
      injector.perturb(params);
      const Tensor logits = model.forward(images, /*train=*/true);
      LossResult loss = cross_entropy(logits, labels);
      // Divergence guard: a non-finite loss (exploding high-sigma noise
      // runs) would poison the weights with NaNs; skip this step. Healthy
      // runs are bit-identical with or without the guard.
      if (!std::isfinite(loss.loss) || !loss.grad.all_finite()) {
        injector.restore(params);
        opt.zero_grad();
        continue;
      }
      // Nothing reads dL/dx of the first layer, so it is never computed.
      model.backward_params(loss.grad);
      injector.restore(params);
      opt.step();
      opt.zero_grad();
      loss_sum += loss.loss;
      ++batch_count;
    }
    history.train_loss.push_back(
        batch_count == 0 ? std::numeric_limits<double>::quiet_NaN()
                         : loss_sum / static_cast<double>(batch_count));
    if (epoch_span.active()) {
      epoch_span.arg("epoch", static_cast<double>(epoch))
          .arg("loss", history.train_loss.back());
    }
    if (test.size() > 0) {
      history.test_acc.push_back(evaluate(model, test));
    }
    if (config.verbose) {
      std::printf("  epoch %2zu  loss %.4f  test_acc %.4f\n", epoch + 1,
                  history.train_loss.back(),
                  history.test_acc.empty() ? -1.0 : history.test_acc.back());
      std::fflush(stdout);
    }
  }
  history.final_test_acc =
      history.test_acc.empty() ? 0.0 : history.test_acc.back();
  return history;
}

}  // namespace safelight::nn
