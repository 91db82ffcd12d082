#include "util/units.h"

#include <cmath>
#include <cstdio>

namespace dcs {
namespace {

std::string fmt(double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g %s", v, unit);
  return buf;
}

}  // namespace

std::string to_string(Duration d) {
  if (d.is_infinite()) return "inf";
  const double s = d.sec();
  if (std::fabs(s) >= 3600.0) return fmt(d.hrs(), "h");
  if (std::fabs(s) >= 120.0) return fmt(d.min(), "min");
  return fmt(s, "s");
}

std::string to_string(Energy e) {
  const double j = e.j();
  if (std::fabs(j) >= 3.6e6) return fmt(e.kwh(), "kWh");
  if (std::fabs(j) >= 3600.0) return fmt(e.wh(), "Wh");
  return fmt(j, "J");
}

}  // namespace dcs
