#include "obs/counters.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

namespace dcs::obs {

void export_counter_track(Tracer& tracer, std::string_view cat,
                          std::string_view name, const TimeSeries& series) {
  const std::vector<Sample>& samples = series.samples();
  std::size_t end = samples.size();
  while (end > 0 && !std::isfinite(samples[end - 1].value)) --end;
  // One event, re-stamped per sample: a streaming tracer passes it to its
  // sinks by reference, so a sample costs no allocation.
  TraceEvent event;
  event.phase = 'C';
  event.lane = tracer.lane();
  event.cat = cat;
  event.name = name;
  event.args.push_back(arg("value", 0.0));
  std::string& value = event.args.front().value;
  bool emitted = false;
  std::uint64_t last_bits = 0;
  for (std::size_t i = 0; i < end; ++i) {
    const Sample& s = samples[i];
    if (!std::isfinite(s.value)) continue;  // no JSON literal for inf/nan
    const auto bits = std::bit_cast<std::uint64_t>(s.value);
    if (emitted && bits == last_bits && i + 1 != end) continue;
    emitted = true;
    last_bits = bits;
    event.ts_us = s.time.sec() * 1e6;
    value.clear();
    detail::append_number(value, s.value);
    tracer.append(event);
  }
}

void export_counters(const sim::Recorder& recorder, Tracer& tracer,
                     const CounterExportOptions& options) {
  const std::vector<std::string> selected =
      options.channels.empty() ? recorder.channels() : options.channels;
  for (const std::string& channel : selected) {
    if (!recorder.has(channel)) continue;
    export_counter_track(tracer, "recorder", channel, recorder.series(channel));
  }
}

}  // namespace dcs::obs
