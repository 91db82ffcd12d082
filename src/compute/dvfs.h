// DVFS (dynamic voltage and frequency scaling) model, the knob "almost all
// the aforementioned power capping work relies on" (paper Section II). Used
// by the DVFS-capped baseline: instead of waking dark cores, boost the
// frequency of the normally-active cores as far as the ratings allow.
//
// Model: compute-bound performance scales linearly with frequency; the
// cores' dynamic power scales as f^3 (voltage tracks frequency); static
// chip power and non-CPU power are unaffected.
#pragma once

namespace dcs::compute {

class DvfsModel {
 public:
  struct Params {
    double min_multiplier = 0.5;  ///< deepest slow-down vs nominal
    double max_multiplier = 1.3;  ///< overclock ceiling vs nominal
    double dynamic_exponent = 3.0;
  };

  DvfsModel() : DvfsModel(Params{}) {}
  explicit DvfsModel(const Params& params);

  /// Core dynamic-power multiplier at frequency multiplier f.
  [[nodiscard]] double power_multiplier(double frequency) const;

  /// Compute-bound performance multiplier (== frequency).
  [[nodiscard]] double performance(double frequency) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

}  // namespace dcs::compute
