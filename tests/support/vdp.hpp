// Vector-dot-product (VDP) unit: the physically grounded compute tile.
//
// A VDP unit holds `banks_per_unit` MR banks on parallel waveguides; each
// bank computes one dot product of length mrs_per_bank and a photodetector
// per bank sums the WDM channels (paper Fig. 3). This class is the
// device-level reference model: integration tests validate that the fast
// experiment path (direct weight-tensor corruption) agrees with it.
#pragma once

#include <vector>

#include "accel/arch.hpp"
#include "photonics/wdm.hpp"

namespace safelight::accel {

class VdpUnit {
 public:
  VdpUnit(std::size_t banks_per_unit, std::size_t mrs_per_bank,
          const phot::MrGeometry& geometry, double center_nm,
          phot::WeightEncoding encoding = {});

  std::size_t bank_count() const { return banks_.size(); }
  std::size_t width() const { return width_; }

  /// Imprints a weight matrix [banks][mrs]; |w| <= 1 (normalized).
  void set_weights(const std::vector<std::vector<double>>& weights);

  /// Matrix-vector product: one dot product per bank.
  std::vector<double> multiply(const std::vector<double>& activations) const;

  phot::MrBank& bank(std::size_t i);
  const phot::MrBank& bank(std::size_t i) const;

  const phot::WdmGrid& grid() const { return grid_; }

 private:
  std::size_t width_;
  phot::WdmGrid grid_;
  std::vector<phot::MrBank> banks_;
};

}  // namespace safelight::accel
