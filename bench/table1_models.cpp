// Table I reproduction: CNN model parameters.
//
// Prints the paper's Table I rows next to the counts computed from our
// analytic model specs (full scale, no allocation) and the reduced
// experiment-scale instances actually trained on this host.

#include <cstdio>

#include "accel/mapping.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "core/experiment_scale.hpp"
#include "core/report.hpp"
#include "nn/model_spec.hpp"

namespace sl = safelight;

namespace {

std::string fmt_count(std::size_t n) {
  if (n >= 10'000'000) {
    return sl::fmt_double(static_cast<double>(n) / 1e6, 1) + "M";
  }
  if (n >= 1'000'000) {
    return sl::fmt_double(static_cast<double>(n) / 1e6, 2) + "M";
  }
  if (n >= 1'000) {
    return sl::fmt_double(static_cast<double>(n) / 1e3, 1) + "K";
  }
  return std::to_string(n);
}

struct PaperRow {
  const char* conv_layers;
  const char* conv_params;
  const char* fc_layers;
  const char* fc_params;
  const char* total;
};

}  // namespace

int main() {
  sl::core::banner("Table I: CNN model parameters");

  const sl::nn::ModelSpec specs[] = {sl::nn::spec_cnn1(),
                                     sl::nn::spec_resnet18(),
                                     sl::nn::spec_vgg16v()};
  const PaperRow paper[] = {
      {"2", "2.6K", "3", "41.6K", "44.2K"},
      {"17", "4.7M", "1", "5.1K", "4.7M"},
      {"6", "3.9M", "3", "119.6M", "123.5M"},
  };

  sl::core::TextTable table({"model", "dataset", "conv layers",
                             "conv params (paper)", "conv params (ours)",
                             "fc layers", "fc params (paper)",
                             "fc params (ours)", "total (paper)",
                             "total (ours)"});
  sl::CsvWriter csv(sl::config::out_dir() + "/table1_models.csv",
                    {"model", "dataset", "conv_layers", "conv_params",
                     "fc_layers", "fc_params", "total_params"});
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& spec = specs[i];
    table.add_row({spec.name, spec.dataset,
                   std::to_string(spec.conv_layer_count()),
                   paper[i].conv_params, fmt_count(spec.conv_params()),
                   std::to_string(spec.fc_layer_count()),
                   paper[i].fc_params, fmt_count(spec.fc_params()),
                   paper[i].total, fmt_count(spec.total_params())});
    csv.row({spec.name, spec.dataset, std::to_string(spec.conv_layer_count()),
             std::to_string(spec.conv_params()),
             std::to_string(spec.fc_layer_count()),
             std::to_string(spec.fc_params()),
             std::to_string(spec.total_params())});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "notes:\n"
      "  * CNN_1 and VGG16_v match the paper's counts (LeNet-5 layout; VGG\n"
      "    classifier 25088->4096->4096->10 = 119.6M exactly).\n"
      "  * ResNet18 with option-A shortcuts (17 conv layers, FC 5.1K exact)\n"
      "    has 11.0M conv params at width 64; the paper's 4.7M corresponds\n"
      "    to width ~42 (printed below). See docs/experiments.md.\n\n");

  const sl::nn::ModelSpec slim = sl::nn::spec_resnet18(42);
  std::printf("ResNet18 @ width 42: conv %s, fc %s, total %s\n",
              fmt_count(slim.conv_params()).c_str(),
              fmt_count(slim.fc_params()).c_str(),
              fmt_count(slim.total_params()).c_str());

  sl::core::banner("Experiment-scale instances (this host)");
  sl::core::TextTable reduced({"model", "scale", "image", "params",
                               "conv passes", "fc passes"});
  for (sl::nn::ModelId id : {sl::nn::ModelId::kCnn1,
                             sl::nn::ModelId::kResNet18,
                             sl::nn::ModelId::kVgg16v}) {
    const auto setup = sl::core::experiment_setup(id, sl::config::scale());
    auto model = sl::nn::make_model(id, setup.model_config);
    sl::accel::WeightStationaryMapping mapping(*model, setup.accelerator);
    reduced.add_row(
        {sl::nn::to_string(id), sl::to_string(setup.scale),
         std::to_string(setup.model_config.image_size),
         fmt_count(model->num_parameters()),
         std::to_string(mapping.passes(sl::accel::BlockKind::kConv)),
         std::to_string(mapping.passes(sl::accel::BlockKind::kFc))});
  }
  std::printf("%s\n", reduced.render().c_str());
  std::printf("CSV written to %s/table1_models.csv\n",
              sl::config::out_dir().c_str());
  return 0;
}
