// Counter-track export: bridges recorded per-tick channels (UPS/TES state
// of charge, breaker trip margin, room temperature, sprint degree, chiller
// power, ...) into 'C' counter events, so Perfetto plots the physical
// trajectories in lanes next to the controller's phase-transition
// instants.
//
// A track holds only the samples that change it: counters are step
// functions (in Perfetto and in trace_query's windows alike), so a sample
// equal to the one before adds nothing. Over a day most channels sit flat
// for long stretches; exporting every tick would cost about ten times the
// run itself.
//
// Layering: dcs_sim holds only the recorder and the Component interface
// and needs nothing but dcs_util, so dcs_obs links it and exports a
// sim::Recorder directly.
//
// Determinism: channels are exported in the (sorted) order the recorder
// reports them and samples in time order, entirely from recorded sim-domain
// data — emit into each sweep task's own Tracer and the merged counter
// stream is bit-identical for any thread count, same contract as every
// other sim event.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/recorder.h"
#include "util/time_series.h"

namespace dcs::obs {

struct CounterExportOptions {
  /// Channels to export; empty = every channel the recorder holds.
  /// Channels the recorder does not have are skipped (e.g. `tes_soc` on a
  /// TES-less configuration), so one list serves every configuration.
  std::vector<std::string> channels;
};

/// Emits the samples of `series` as 'C' events named `name`, carrying the
/// value under the "value" arg (Perfetto renders one counter track per
/// name): the first finite sample, every finite sample whose bit pattern
/// differs from the last one emitted (so -0.0 after 0.0 counts), and the
/// last finite sample, so the track ends where the series does. Expanding
/// the track as a step function over the series' times gives back every
/// finite sample bit for bit. Non-finite samples have no JSON literal and
/// are skipped; a NaN gap holds the value before it.
void export_counter_track(Tracer& tracer, std::string_view cat,
                          std::string_view name, const TimeSeries& series);

/// Per-zone channel suffixes a multi-zone core::DataCenter::run records
/// (under a `zone<k>/` prefix) — kept here so exporters and the run agree
/// on one spelling.
inline const std::vector<std::string> kZonalChannelSuffixes = {
    "demand", "degree", "grid_mw", "ups_soc", "cb_trip_margin_s"};

/// Expands a channel selection with the per-zone (per-PDU-group) channels
/// for `zones` zones: `zone0/demand`, `zone0/degree`, `zone0/grid_mw`,
/// `zone0/ups_soc`, `zone0/cb_trip_margin_s`, `zone1/...`, ... appended to
/// `channels`. Feed the result to CounterExportOptions::channels so zonal
/// runs show one Perfetto counter track per zone per quantity (e.g. each
/// zone's breaker margin side by side).
[[nodiscard]] inline std::vector<std::string> with_zonal_channels(
    std::vector<std::string> channels, std::size_t zones) {
  for (std::size_t z = 0; z < zones; ++z) {
    const std::string prefix = "zone" + std::to_string(z) + "/";
    for (const std::string& suffix : kZonalChannelSuffixes) {
      channels.push_back(prefix + suffix);
    }
  }
  return channels;
}

/// Bridges a recorder's channels into `tracer` as counter tracks of
/// category "recorder", each named after its channel; see the file comment
/// for the determinism contract.
void export_counters(const sim::Recorder& recorder, Tracer& tracer,
                     const CounterExportOptions& options = {});

}  // namespace dcs::obs
