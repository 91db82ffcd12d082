// Dimensional quantity types used throughout the simulator.
//
// The power-infrastructure models mix seconds, minutes, watts, megawatts,
// joules, watt-hours and amp-hours; using distinct value types for each
// dimension makes unit errors compile errors instead of silent 3600x bugs.
// Each type is a thin wrapper over a double in a fixed SI base unit
// (seconds, watts, joules, coulombs, kelvin-relative celsius) with named
// factory functions and accessors for the common display units.
#pragma once

#include <cmath>
#include <compare>
#include <limits>
#include <string>

namespace dcs {

/// A span of simulated time. Base unit: seconds.
class Duration {
 public:
  constexpr Duration() noexcept = default;

  [[nodiscard]] static constexpr Duration seconds(double s) noexcept {
    return Duration{s};
  }
  [[nodiscard]] static constexpr Duration minutes(double m) noexcept {
    return Duration{m * 60.0};
  }
  [[nodiscard]] static constexpr Duration hours(double h) noexcept {
    return Duration{h * 3600.0};
  }
  [[nodiscard]] static constexpr Duration infinity() noexcept {
    return Duration{std::numeric_limits<double>::infinity()};
  }
  [[nodiscard]] static constexpr Duration zero() noexcept { return {}; }

  [[nodiscard]] constexpr double sec() const noexcept { return s_; }
  [[nodiscard]] constexpr double min() const noexcept { return s_ / 60.0; }
  [[nodiscard]] constexpr double hrs() const noexcept { return s_ / 3600.0; }
  [[nodiscard]] constexpr bool is_infinite() const noexcept {
    return std::isinf(s_);
  }

  constexpr Duration& operator+=(Duration o) noexcept { s_ += o.s_; return *this; }
  constexpr Duration& operator-=(Duration o) noexcept { s_ -= o.s_; return *this; }
  constexpr Duration& operator*=(double k) noexcept { s_ *= k; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) noexcept { return Duration{a.s_ + b.s_}; }
  friend constexpr Duration operator-(Duration a, Duration b) noexcept { return Duration{a.s_ - b.s_}; }
  friend constexpr Duration operator*(Duration a, double k) noexcept { return Duration{a.s_ * k}; }
  friend constexpr Duration operator*(double k, Duration a) noexcept { return Duration{a.s_ * k}; }
  friend constexpr Duration operator/(Duration a, double k) noexcept { return Duration{a.s_ / k}; }
  friend constexpr double operator/(Duration a, Duration b) noexcept { return a.s_ / b.s_; }
  friend constexpr auto operator<=>(Duration a, Duration b) noexcept = default;

 private:
  constexpr explicit Duration(double s) noexcept : s_(s) {}
  double s_ = 0.0;
};

/// Electrical (or heat) power. Base unit: watts.
class Power {
 public:
  constexpr Power() noexcept = default;

  [[nodiscard]] static constexpr Power watts(double w) noexcept { return Power{w}; }
  [[nodiscard]] static constexpr Power kilowatts(double kw) noexcept { return Power{kw * 1e3}; }
  [[nodiscard]] static constexpr Power megawatts(double mw) noexcept { return Power{mw * 1e6}; }
  [[nodiscard]] static constexpr Power zero() noexcept { return {}; }

  [[nodiscard]] constexpr double w() const noexcept { return w_; }
  [[nodiscard]] constexpr double kw() const noexcept { return w_ / 1e3; }
  [[nodiscard]] constexpr double mw() const noexcept { return w_ / 1e6; }

  constexpr Power& operator+=(Power o) noexcept { w_ += o.w_; return *this; }
  constexpr Power& operator-=(Power o) noexcept { w_ -= o.w_; return *this; }
  constexpr Power& operator*=(double k) noexcept { w_ *= k; return *this; }

  friend constexpr Power operator+(Power a, Power b) noexcept { return Power{a.w_ + b.w_}; }
  friend constexpr Power operator-(Power a, Power b) noexcept { return Power{a.w_ - b.w_}; }
  friend constexpr Power operator*(Power a, double k) noexcept { return Power{a.w_ * k}; }
  friend constexpr Power operator*(double k, Power a) noexcept { return Power{a.w_ * k}; }
  friend constexpr Power operator/(Power a, double k) noexcept { return Power{a.w_ / k}; }
  friend constexpr double operator/(Power a, Power b) noexcept { return a.w_ / b.w_; }
  friend constexpr Power operator-(Power a) noexcept { return Power{-a.w_}; }
  friend constexpr auto operator<=>(Power a, Power b) noexcept = default;

 private:
  constexpr explicit Power(double w) noexcept : w_(w) {}
  double w_ = 0.0;
};

/// Electrical (or thermal) energy. Base unit: joules.
class Energy {
 public:
  constexpr Energy() noexcept = default;

  [[nodiscard]] static constexpr Energy joules(double j) noexcept { return Energy{j}; }
  [[nodiscard]] static constexpr Energy watt_hours(double wh) noexcept { return Energy{wh * 3600.0}; }
  [[nodiscard]] static constexpr Energy kilowatt_hours(double kwh) noexcept { return Energy{kwh * 3.6e6}; }
  [[nodiscard]] static constexpr Energy zero() noexcept { return {}; }

  [[nodiscard]] constexpr double j() const noexcept { return j_; }
  [[nodiscard]] constexpr double wh() const noexcept { return j_ / 3600.0; }
  [[nodiscard]] constexpr double kwh() const noexcept { return j_ / 3.6e6; }

  constexpr Energy& operator+=(Energy o) noexcept { j_ += o.j_; return *this; }
  constexpr Energy& operator-=(Energy o) noexcept { j_ -= o.j_; return *this; }
  constexpr Energy& operator*=(double k) noexcept { j_ *= k; return *this; }

  friend constexpr Energy operator+(Energy a, Energy b) noexcept { return Energy{a.j_ + b.j_}; }
  friend constexpr Energy operator-(Energy a, Energy b) noexcept { return Energy{a.j_ - b.j_}; }
  friend constexpr Energy operator*(Energy a, double k) noexcept { return Energy{a.j_ * k}; }
  friend constexpr Energy operator*(double k, Energy a) noexcept { return Energy{a.j_ * k}; }
  friend constexpr Energy operator/(Energy a, double k) noexcept { return Energy{a.j_ / k}; }
  friend constexpr double operator/(Energy a, Energy b) noexcept { return a.j_ / b.j_; }
  friend constexpr auto operator<=>(Energy a, Energy b) noexcept = default;

 private:
  constexpr explicit Energy(double j) noexcept : j_(j) {}
  double j_ = 0.0;
};

// Cross-dimension arithmetic.
[[nodiscard]] constexpr Energy operator*(Power p, Duration t) noexcept {
  return Energy::joules(p.w() * t.sec());
}
[[nodiscard]] constexpr Energy operator*(Duration t, Power p) noexcept {
  return p * t;
}
[[nodiscard]] constexpr Power operator/(Energy e, Duration t) noexcept {
  return Power::watts(e.j() / t.sec());
}
[[nodiscard]] constexpr Duration operator/(Energy e, Power p) noexcept {
  return Duration::seconds(e.j() / p.w());
}

/// Battery charge. Base unit: coulombs (amp-seconds).
class Charge {
 public:
  constexpr Charge() noexcept = default;

  [[nodiscard]] static constexpr Charge coulombs(double c) noexcept { return Charge{c}; }
  [[nodiscard]] static constexpr Charge amp_hours(double ah) noexcept { return Charge{ah * 3600.0}; }
  [[nodiscard]] static constexpr Charge zero() noexcept { return {}; }

  [[nodiscard]] constexpr double c() const noexcept { return c_; }
  [[nodiscard]] constexpr double ah() const noexcept { return c_ / 3600.0; }

  /// Energy stored when drained at a (constant) bus voltage.
  [[nodiscard]] constexpr Energy at_volts(double volts) const noexcept {
    return Energy::joules(c_ * volts);
  }

  friend constexpr Charge operator+(Charge a, Charge b) noexcept { return Charge{a.c_ + b.c_}; }
  friend constexpr Charge operator-(Charge a, Charge b) noexcept { return Charge{a.c_ - b.c_}; }
  friend constexpr Charge operator*(Charge a, double k) noexcept { return Charge{a.c_ * k}; }
  friend constexpr Charge operator*(double k, Charge a) noexcept { return Charge{a.c_ * k}; }
  friend constexpr auto operator<=>(Charge a, Charge b) noexcept = default;

 private:
  constexpr explicit Charge(double c) noexcept : c_(c) {}
  double c_ = 0.0;
};

/// Temperature in degrees Celsius. Differences are also expressed in this
/// type; the room model only ever works with deltas against a setpoint, so
/// an affine/linear split would add noise without catching real bugs here.
class Temperature {
 public:
  constexpr Temperature() noexcept = default;

  [[nodiscard]] static constexpr Temperature celsius(double c) noexcept {
    return Temperature{c};
  }

  [[nodiscard]] constexpr double c() const noexcept { return c_; }

  constexpr Temperature& operator+=(Temperature o) noexcept { c_ += o.c_; return *this; }
  constexpr Temperature& operator-=(Temperature o) noexcept { c_ -= o.c_; return *this; }

  friend constexpr Temperature operator+(Temperature a, Temperature b) noexcept { return Temperature{a.c_ + b.c_}; }
  friend constexpr Temperature operator-(Temperature a, Temperature b) noexcept { return Temperature{a.c_ - b.c_}; }
  friend constexpr Temperature operator*(Temperature a, double k) noexcept { return Temperature{a.c_ * k}; }
  friend constexpr Temperature operator*(double k, Temperature a) noexcept { return Temperature{a.c_ * k}; }
  friend constexpr auto operator<=>(Temperature a, Temperature b) noexcept = default;

 private:
  constexpr explicit Temperature(double c) noexcept : c_(c) {}
  double c_ = 0.0;
};

// Human-readable formatting (picks a sensible display unit).
[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(Energy e);

}  // namespace dcs
