#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/check.h"
#include "util/json.h"

namespace dcs::obs {
namespace {

std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prometheus metric/label names: [a-zA-Z_][a-zA-Z0-9_]*.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front())) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string prom_label_value(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string prom_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += prom_name(k) + "=\"" + prom_label_value(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

/// "k1=v1,k2=v2" for the CSV label column (',' and '=' escaped with '\').
std::string csv_labels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    for (const std::string* part : {&k, &v}) {
      for (const char c : *part) {
        if (c == ',' || c == '=' || c == '\\') out += '\\';
        out += c;
      }
      if (part == &k) out += '=';
    }
  }
  return out;
}

const char* kind_name(bool counter, bool gauge) {
  return counter ? "counter" : (gauge ? "gauge" : "histogram");
}

}  // namespace

void Counter::inc(double amount) {
  DCS_REQUIRE(amount >= 0.0, "counters only move forward");
  value_ += amount;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1, 0) {
  DCS_REQUIRE(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
              "histogram bucket bounds must be sorted");
}

void Histogram::observe(double value) { observe_n(value, 1); }

void Histogram::observe_n(double value, std::size_t n) {
  if (n == 0) return;
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - upper_bounds_.begin())] += n;
  count_ += n;
  sum_ += value * static_cast<double>(n);
}

std::vector<std::size_t> Histogram::cumulative_counts() const {
  std::vector<std::size_t> out(buckets_.size(), 0);
  std::size_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    out[i] = acc;
  }
  return out;
}

MetricsRegistry::Metric& MetricsRegistry::find_or_create(std::string_view name,
                                                         Labels labels,
                                                         Kind kind) {
  std::sort(labels.begin(), labels.end());
  Key key{std::string{name}, std::move(labels)};
  const auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    DCS_REQUIRE(it->second.kind == kind,
                "metric '" + key.first + "' already registered as another kind");
    return it->second;
  }
  Metric metric;
  metric.kind = kind;
  switch (kind) {
    case Kind::kCounter: metric.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: metric.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: break;  // built by histogram() with its bounds
  }
  return metrics_.emplace(std::move(key), std::move(metric)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  Metric& metric =
      find_or_create(name, std::move(labels), Kind::kHistogram);
  if (metric.histogram == nullptr) {
    metric.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    DCS_REQUIRE(metric.histogram->upper_bounds() == upper_bounds,
                "histogram '" + std::string{name} +
                    "' already registered with different buckets");
  }
  return *metric.histogram;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "metric,kind,labels,stat,value\n";
  for (const auto& [key, metric] : metrics_) {
    const auto row = [&](const char* kind, const std::string& stat,
                         const std::string& value) {
      out << key.first << "," << kind << ",\"" << csv_labels(key.second)
          << "\"," << stat << "," << value << "\n";
    };
    switch (metric.kind) {
      case Kind::kCounter:
        row("counter", "value", format_value(metric.counter->value()));
        break;
      case Kind::kGauge:
        row("gauge", "value", format_value(metric.gauge->value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *metric.histogram;
        row("histogram", "count", std::to_string(h.count()));
        row("histogram", "sum", format_value(h.sum()));
        const std::vector<std::size_t> cum = h.cumulative_counts();
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          row("histogram", "le_" + format_value(h.upper_bounds()[i]),
              std::to_string(cum[i]));
        }
        row("histogram", "le_+Inf", std::to_string(cum.back()));
        break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\"metrics\": [\n";
  bool first = true;
  for (const auto& [key, metric] : metrics_) {
    out << (first ? "  " : ",\n  ");
    first = false;
    out << "{\"name\": " << json::quote(key.first) << ", \"kind\": \""
        << kind_name(metric.kind == Kind::kCounter, metric.kind == Kind::kGauge)
        << "\", \"labels\": {";
    for (std::size_t i = 0; i < key.second.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json::quote(key.second[i].first) << ": "
          << json::quote(key.second[i].second);
    }
    out << "}";
    switch (metric.kind) {
      case Kind::kCounter:
        out << ", \"value\": " << json::number_or_null(metric.counter->value());
        break;
      case Kind::kGauge:
        out << ", \"value\": " << json::number_or_null(metric.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *metric.histogram;
        out << ", \"count\": " << h.count()
            << ", \"sum\": " << json::number_or_null(h.sum())
            << ", \"buckets\": [";
        const std::vector<std::size_t> cum = h.cumulative_counts();
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out << (i == 0 ? "" : ", ") << "{\"le\": "
              << json::number_or_null(h.upper_bounds()[i])
              << ", \"count\": " << cum[i] << "}";
        }
        out << (h.upper_bounds().empty() ? "" : ", ")
            << "{\"le\": null, \"count\": " << cum.back() << "}]";
        break;
      }
    }
    out << "}";
  }
  out << "\n]}\n";
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::string last_typed;
  for (const auto& [key, metric] : metrics_) {
    const std::string name = prom_name(key.first);
    const char* kind = kind_name(metric.kind == Kind::kCounter,
                                 metric.kind == Kind::kGauge);
    if (name != last_typed) {
      out << "# TYPE " << name << " " << kind << "\n";
      last_typed = name;
    }
    switch (metric.kind) {
      case Kind::kCounter:
        out << name << prom_labels(key.second) << " "
            << format_value(metric.counter->value()) << "\n";
        break;
      case Kind::kGauge:
        out << name << prom_labels(key.second) << " "
            << format_value(metric.gauge->value()) << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *metric.histogram;
        const std::vector<std::size_t> cum = h.cumulative_counts();
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out << name << "_bucket"
              << prom_labels(key.second, "le=\"" +
                                             format_value(h.upper_bounds()[i]) +
                                             "\"")
              << " " << cum[i] << "\n";
        }
        out << name << "_bucket" << prom_labels(key.second, "le=\"+Inf\"")
            << " " << cum.back() << "\n";
        out << name << "_sum" << prom_labels(key.second) << " "
            << format_value(h.sum()) << "\n";
        out << name << "_count" << prom_labels(key.second) << " " << h.count()
            << "\n";
        break;
      }
    }
  }
}

bool export_metrics(const std::string& dir, const std::string& name,
                    const MetricsRegistry& registry, std::ostream* diag) {
  bool ok = true;
  const auto write = [&](const std::string& suffix, auto&& writer) {
    const std::string path = dir + "/" + name + "_metrics" + suffix;
    std::ofstream out(path);
    if (!out) {
      if (diag != nullptr) *diag << "cannot write " << path << "\n";
      ok = false;
      return;
    }
    writer(out);
    if (diag != nullptr) *diag << "[obs] wrote " << path << "\n";
  };
  write(".csv", [&](std::ostream& o) { registry.write_csv(o); });
  write(".json", [&](std::ostream& o) { registry.write_json(o); });
  write(".prom", [&](std::ostream& o) { registry.write_prometheus(o); });
  return ok;
}

}  // namespace dcs::obs
