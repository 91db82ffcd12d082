#include "faults/watchdog.h"

#include <sstream>
#include <utility>

#include "util/log.h"

namespace dcs::faults {
namespace {

constexpr double kSocEps = 1e-9;

}  // namespace

void Watchdog::check(Duration now, const power::PowerTopology& topology,
                     const thermal::RoomModel& room,
                     const thermal::TesTank* tes) {
  ++report_.checks;
  const std::size_t violations_before = report_.violations;

  // One check per PDU group: every PDU in a group shares its state, so a
  // group counts one violation however many PDUs it stands for.
  if (options_.check_breakers) {
    const auto check_breaker = [&](const power::CircuitBreaker& cb) {
      if (cb.tripped() || cb.thermal_state() >= 1.0) {
        std::ostringstream msg;
        msg << "breaker '" << cb.name() << "' "
            << (cb.tripped() ? "tripped" : "accumulator reached 1");
        fail(now, msg.str());
      }
    };
    check_breaker(topology.dc_breaker());
    for (const auto& group : topology.groups()) check_breaker(group.pdu.breaker());
  }

  for (const auto& group : topology.groups()) {
    const power::Battery& bank = group.pdu.ups();
    const double soc = bank.soc();
    if (soc < options_.ups_floor - kSocEps || soc > 1.0 + kSocEps) {
      std::ostringstream msg;
      msg << "UPS bank '" << bank.name() << "' SoC " << soc << " outside ["
          << options_.ups_floor << ", 1]";
      fail(now, msg.str());
    }
  }

  if (tes != nullptr) {
    const double soc = tes->state_of_charge();
    if (soc < -kSocEps || soc > 1.0 + kSocEps) {
      std::ostringstream msg;
      msg << "TES tank SoC " << soc << " outside [0, 1]";
      fail(now, msg.str());
    }
  }

  if (options_.check_room && room.over_threshold()) {
    std::ostringstream msg;
    msg << "room rise " << room.rise().c() << " C above the critical threshold";
    fail(now, msg.str());
  }

  const bool violating = report_.violations > violations_before;
  if (decisions_ != nullptr && violating && !prev_violating_) {
    decisions_->emit(
        obs::DecisionRule::kWatchdogViolation,
        {{"violations", static_cast<double>(report_.violations)}}, {},
        {obs::arg("message", last_message_)});
  }
  prev_violating_ = violating;
}

void Watchdog::fail(Duration now, std::string message) {
  ++report_.violations;
  last_message_ = message;
  if (report_.first_message.empty()) {
    // Only the first violation logs; a persistent breach fails every tick
    // and would otherwise flood stderr.
    DCS_LOG_WARN << "watchdog: " << message << " at t=" << now.sec() << "s";
    report_.first_message = std::move(message);
    report_.first_time = now;
  }
}

}  // namespace dcs::faults
