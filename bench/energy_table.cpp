// Accelerator performance table (CrossLight-style efficiency accounting).
//
// Not a numbered figure in SafeLight, but the substrate the paper builds on
// is motivated by performance-per-watt; this bench reports per-inference
// MACs, latency and the energy breakdown for the three paper models on the
// paper-scale accelerator, and shows that the software mitigations carry
// zero hardware energy overhead (identical accelerator, identical mapping).

#include <cstdio>

#include "accel/energy.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "core/report.hpp"
#include "nn/models.hpp"

namespace sl = safelight;

namespace {

struct ModelCase {
  sl::nn::ModelId id;
  sl::nn::ModelConfig config;
  sl::nn::Shape input;
};

}  // namespace

int main() {
  sl::core::banner("Accelerator energy/latency accounting (paper-scale)");

  // Full-scale model shapes; VGG16_v uses a reduced classifier width to
  // avoid allocating 119.6M parameters just for MAC counting (the conv MACs
  // dominate and the FC MACs are computed from layer dims regardless).
  sl::nn::ModelConfig cnn1_config;
  sl::nn::ModelConfig resnet_config;
  resnet_config.in_channels = 3;
  resnet_config.image_size = 32;
  resnet_config.width = 64;
  sl::nn::ModelConfig vgg_config;
  vgg_config.in_channels = 3;
  vgg_config.image_size = 64;  // reduced from 224 for host memory
  vgg_config.width = 64;
  vgg_config.fc_dim = 512;

  const ModelCase cases[] = {
      {sl::nn::ModelId::kCnn1, cnn1_config, {1, 1, 28, 28}},
      {sl::nn::ModelId::kResNet18, resnet_config, {1, 3, 32, 32}},
      {sl::nn::ModelId::kVgg16v, vgg_config, {1, 3, 64, 64}},
  };

  const auto accel = sl::accel::AcceleratorConfig::crosslight();
  sl::core::TextTable table({"model", "input", "MACs (M)", "latency (us)",
                             "laser (uJ)", "tuning (uJ)", "converters (uJ)",
                             "total (uJ)", "MACs/nJ"});
  sl::CsvWriter csv(sl::config::out_dir() + "/energy_table.csv",
                    {"model", "macs", "latency_us", "laser_uj", "tuning_uj",
                     "converter_uj", "detector_uj", "total_uj"});

  for (const auto& c : cases) {
    auto model = sl::nn::make_model(c.id, c.config);
    const sl::accel::MacCounts macs = sl::accel::count_macs(*model, c.input);
    const sl::accel::EnergyReport report =
        sl::accel::estimate_inference(macs, accel);
    table.add_row(
        {sl::nn::to_string(c.id), sl::nn::shape_to_string(c.input),
         sl::fmt_double(static_cast<double>(macs.total()) / 1e6, 2),
         sl::fmt_double(report.latency_us, 2),
         sl::fmt_double(report.laser_uj, 3),
         sl::fmt_double(report.tuning_uj, 3),
         sl::fmt_double(report.converter_uj, 3),
         sl::fmt_double(report.total_uj(), 3),
         sl::fmt_double(report.macs_per_nj(macs.total()), 1)});
    csv.row({sl::nn::to_string(c.id), std::to_string(macs.total()),
             sl::fmt_double(report.latency_us, 4),
             sl::fmt_double(report.laser_uj, 4),
             sl::fmt_double(report.tuning_uj, 4),
             sl::fmt_double(report.converter_uj, 4),
             sl::fmt_double(report.detector_uj, 4),
             sl::fmt_double(report.total_uj(), 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "software mitigations (L2, noise-aware training) change only the\n"
      "trained weights: accelerator energy/latency above is identical for\n"
      "Original and robust variants, unlike hardware countermeasures.\n"
      "CSV written to %s/energy_table.csv\n",
      sl::config::out_dir().c_str());
  return 0;
}
