// Piecewise curves on (x, y) knot tables. The circuit-breaker trip curve and
// the Oracle upper-bound table are both lookups of this shape; the log-log
// mode matches how breaker trip curves are published (straight lines on
// log-log paper, cf. Bulletin 1489-A).
#pragma once

#include <vector>

namespace dcs {

struct Knot {
  double x = 0.0;
  double y = 0.0;
};

/// Interpolating lookup over strictly-increasing x knots. Outside the knot
/// range the curve clamps to the end values.
class PiecewiseCurve {
 public:
  enum class Scale { kLinear, kLogLog };

  PiecewiseCurve(std::vector<Knot> knots, Scale scale = Scale::kLinear);

  [[nodiscard]] double operator()(double x) const;

 private:
  std::vector<Knot> knots_;
  Scale scale_;
};

/// Clamps x into [lo, hi].
[[nodiscard]] double clamp(double x, double lo, double hi);

/// Linear interpolation between a and b by t in [0, 1].
[[nodiscard]] double lerp(double a, double b, double t);

}  // namespace dcs
