#include "support/vdp.hpp"

#include "common/error.hpp"

namespace safelight::accel {

namespace {

phot::WdmGrid make_grid(std::size_t channels, const phot::MrGeometry& geometry,
                        double center_nm) {
  // Derive the FSR from a reference ring so the channel spacing matches the
  // device geometry (all rings in a bank share the design).
  const phot::Microring reference(geometry, center_nm);
  return phot::WdmGrid(channels, center_nm, reference.fsr_nm());
}

}  // namespace

VdpUnit::VdpUnit(std::size_t banks_per_unit, std::size_t mrs_per_bank,
                 const phot::MrGeometry& geometry, double center_nm,
                 phot::WeightEncoding encoding)
    : width_(mrs_per_bank), grid_(make_grid(mrs_per_bank, geometry,
                                            center_nm)) {
  require(banks_per_unit > 0, "VdpUnit: need at least one bank");
  banks_.reserve(banks_per_unit);
  for (std::size_t b = 0; b < banks_per_unit; ++b) {
    banks_.emplace_back(geometry, grid_, encoding);
  }
}

void VdpUnit::set_weights(const std::vector<std::vector<double>>& weights) {
  require(weights.size() == banks_.size(),
          "VdpUnit::set_weights: expected " + std::to_string(banks_.size()) +
              " bank rows");
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    banks_[b].set_weights(weights[b]);
  }
}

std::vector<double> VdpUnit::multiply(
    const std::vector<double>& activations) const {
  require(activations.size() == width_,
          "VdpUnit::multiply: activation length mismatch");
  std::vector<double> out(banks_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    out[b] = banks_[b].dot_product(activations);
  }
  return out;
}

phot::MrBank& VdpUnit::bank(std::size_t i) {
  require(i < banks_.size(), "VdpUnit::bank: index out of range");
  return banks_[i];
}

const phot::MrBank& VdpUnit::bank(std::size_t i) const {
  require(i < banks_.size(), "VdpUnit::bank: index out of range");
  return banks_[i];
}

}  // namespace safelight::accel
