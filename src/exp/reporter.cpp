#include "exp/reporter.h"

#include <cstdio>
#include <fstream>

#include "util/csv.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool open_or_diag(std::ofstream& out, const std::string& path,
                  std::ostream* diag) {
  out.open(path);
  if (!out) {
    if (diag != nullptr) *diag << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

void wrote(const std::string& path, std::ostream* diag) {
  if (diag != nullptr) *diag << "[exp] wrote " << path << "\n";
}

}  // namespace

void write_rows_csv(std::ostream& out, const SweepSpec& spec,
                    const SweepRun& run) {
  CsvWriter csv(out);
  std::vector<std::string> header;
  for (const Axis& axis : spec.axes()) header.push_back(axis.name);
  header.push_back("replicate");
  header.push_back("seed");
  for (const std::string& m : run.metrics) header.push_back(m);
  csv.write_row(header);

  const std::vector<SweepSpec::Task> tasks = spec.tasks();
  for (const SweepSpec::Task& task : tasks) {
    // Sharded / partially resumed runs leave unexecuted slots empty; their
    // rows live in other shards' files until merged.
    if (run.rows[task.index].empty()) continue;
    std::vector<std::string> row;
    for (std::size_t a = 0; a < spec.axes().size(); ++a) {
      row.push_back(spec.label(task, a));
    }
    row.push_back(std::to_string(task.replicate));
    row.push_back(std::to_string(task.seed));
    for (const double v : run.rows[task.index]) row.push_back(format_value(v));
    csv.write_row(row);
  }
}

void write_summary_csv(std::ostream& out, const SweepSummary& summary) {
  CsvWriter csv(out);
  std::vector<std::string> header;
  for (const Axis& axis : summary.axes) header.push_back(axis.name);
  header.push_back("n");
  for (const std::string& m : summary.metrics) {
    for (const char* stat :
         {"mean", "stddev", "min", "max", "p50", "p95", "ci95"}) {
      header.push_back(m + "_" + stat);
    }
  }
  csv.write_row(header);

  for (const CellSummary& cell : summary.cells) {
    std::vector<std::string> row = cell.labels;
    row.push_back(std::to_string(summary.replicates));
    for (const MetricSummary& ms : cell.metrics) {
      for (const double v :
           {ms.mean, ms.stddev, ms.min, ms.max, ms.p50, ms.p95, ms.ci95}) {
        row.push_back(format_value(v));
      }
    }
    csv.write_row(row);
  }
}

void write_summary_json(std::ostream& out, const SweepSummary& summary) {
  out << "{\n  \"sweep\": " << json::quote(summary.name) << ",\n  \"axes\": [";
  for (std::size_t a = 0; a < summary.axes.size(); ++a) {
    const Axis& axis = summary.axes[a];
    out << (a == 0 ? "" : ", ") << "{\"name\": " << json::quote(axis.name)
        << ", \"labels\": [";
    for (std::size_t i = 0; i < axis.labels.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json::quote(axis.labels[i]);
    }
    out << "]}";
  }
  out << "],\n  \"metrics\": [";
  for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
    out << (m == 0 ? "" : ", ") << json::quote(summary.metrics[m]);
  }
  out << "],\n  \"replicates\": " << summary.replicates
      << ",\n  \"perf\": {\"wall_seconds\": "
      << json::number_or_null(summary.wall_seconds)
      << ", \"tasks\": " << summary.task_count << ", \"runs_per_second\": "
      << json::number_or_null(summary.tasks_per_second())
      << ", \"threads\": " << summary.threads_used << "},\n  \"cells\": [\n";
  for (std::size_t c = 0; c < summary.cells.size(); ++c) {
    const CellSummary& cell = summary.cells[c];
    out << "    {\"labels\": [";
    for (std::size_t a = 0; a < cell.labels.size(); ++a) {
      out << (a == 0 ? "" : ", ") << json::quote(cell.labels[a]);
    }
    out << "], \"stats\": {";
    for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
      const MetricSummary& ms = cell.metrics[m];
      out << (m == 0 ? "" : ", ") << json::quote(summary.metrics[m])
          << ": {\"n\": " << ms.count
          << ", \"mean\": " << json::number_or_null(ms.mean)
          << ", \"stddev\": " << json::number_or_null(ms.stddev)
          << ", \"min\": " << json::number_or_null(ms.min)
          << ", \"max\": " << json::number_or_null(ms.max)
          << ", \"p50\": " << json::number_or_null(ms.p50)
          << ", \"p95\": " << json::number_or_null(ms.p95)
          << ", \"ci95\": " << json::number_or_null(ms.ci95) << "}";
    }
    out << "}}" << (c + 1 == summary.cells.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
}

void write_perf_record_json(std::ostream& out, const SweepSummary& summary,
                            const obs::ProfileSummary* scopes,
                            const obs::FoldedStacks* folded) {
  out << "{\"bench\": " << json::quote(summary.name)
      << ", \"wall_seconds\": " << json::number_or_null(summary.wall_seconds)
      << ", \"tasks\": " << summary.task_count
      << ", \"runs_per_second\": "
      << json::number_or_null(summary.tasks_per_second())
      << ", \"threads\": " << summary.threads_used
      << ", \"cells\": " << summary.cells.size()
      << ", \"replicates\": " << summary.replicates
      << ", \"shard\": \"" << summary.shard_index << "/"
      << summary.shard_count << "\", \"executed_tasks\": "
      << summary.executed_tasks
      << ", \"resumed_tasks\": " << summary.resumed_tasks;
  if (scopes != nullptr && !scopes->empty()) {
    out << ", \"scopes\": {";
    bool first = true;
    for (const auto& [name, stats] : *scopes) {
      // json::number_or_null throughout: raw operator<< would truncate to 6
      // significant figures and emit bare inf/nan, which breaks the
      // util/json parse in perf_gate.
      out << (first ? "" : ", ") << json::quote(name) << ": {\"count\": "
          << stats.count
          << ", \"total_us\": " << json::number_or_null(stats.total_us)
          << ", \"max_us\": " << json::number_or_null(stats.max_us)
          << ", \"mean_us\": " << json::number_or_null(stats.mean_us()) << "}";
      first = false;
    }
    out << "}";
  }
  if (folded != nullptr && !folded->empty()) {
    out << ", \"folded_stacks\": {";
    bool first = true;
    for (const auto& [stack, count] : *folded) {
      out << (first ? "" : ", ") << json::quote(stack) << ": " << count;
      first = false;
    }
    out << "}";
  }
  out << "}\n";
}

bool export_time_series_csv(const std::string& dir, const std::string& name,
                            const TimeSeries& series, std::ostream* diag) {
  const std::string path = dir + "/" + name + ".csv";
  std::ofstream out;
  if (!open_or_diag(out, path, diag)) return false;
  CsvWriter csv(out);
  csv.write_row({"time_s", "value"});
  for (const Sample& s : series.samples()) {
    csv.write_numeric_row({s.time.sec(), s.value});
  }
  wrote(path, diag);
  return true;
}

bool export_sweep(const std::string& dir, const SweepSpec& spec,
                  const SweepRun& run, const SweepSummary& summary,
                  std::ostream* diag) {
  bool ok = true;
  {
    const std::string path = dir + "/" + spec.name() + "_rows.csv";
    std::ofstream out;
    if (open_or_diag(out, path, diag)) {
      write_rows_csv(out, spec, run);
      wrote(path, diag);
    } else {
      ok = false;
    }
  }
  {
    const std::string path = dir + "/" + spec.name() + "_summary.csv";
    std::ofstream out;
    if (open_or_diag(out, path, diag)) {
      write_summary_csv(out, summary);
      wrote(path, diag);
    } else {
      ok = false;
    }
  }
  {
    const std::string path = dir + "/" + spec.name() + "_summary.json";
    std::ofstream out;
    if (open_or_diag(out, path, diag)) {
      write_summary_json(out, summary);
      wrote(path, diag);
    } else {
      ok = false;
    }
  }
  return ok;
}

bool export_perf_record(const std::string& dir, const SweepSummary& summary,
                        std::ostream* diag, const obs::ProfileSummary* scopes,
                        const obs::FoldedStacks* folded) {
  const std::string path = dir + "/BENCH_" + summary.name + ".json";
  std::ofstream out;
  if (!open_or_diag(out, path, diag)) return false;
  write_perf_record_json(out, summary, scopes, folded);
  wrote(path, diag);
  if (folded != nullptr && !folded->empty()) {
    const std::string stacks_path =
        dir + "/" + summary.name + "_stacks.folded";
    std::ofstream stacks;
    if (!open_or_diag(stacks, stacks_path, diag)) return false;
    obs::write_folded(stacks, *folded);
    wrote(stacks_path, diag);
  }
  return true;
}

}  // namespace dcs::exp
