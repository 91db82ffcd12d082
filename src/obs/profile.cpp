#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

namespace dcs::obs {
namespace {

thread_local std::uint32_t t_lane = 0;

constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();

void add_stats(ScopeStats& into, const ScopeStats& from) {
  if (from.count == 0) return;
  into.min_us =
      into.count == 0 ? from.min_us : std::min(into.min_us, from.min_us);
  into.max_us =
      into.count == 0 ? from.max_us : std::max(into.max_us, from.max_us);
  into.count += from.count;
  into.total_us += from.total_us;
}

std::string lane_name(std::uint32_t lane) {
  return lane == 0 ? "main" : "worker-" + std::to_string(lane);
}

}  // namespace

/// One thread's scope paths and spans. Only the owner thread appends
/// entries, moves `open` and adds to totals; it takes `mu` for every write
/// so collect() and reset() on another thread read and zero consistently.
/// The owner reads the structure (names, parents) without the lock: no
/// other thread writes it.
struct Profiler::ThreadTable {
  struct Entry {
    const char* name = nullptr;
    std::uint32_t lane = 0;
    std::uint32_t parent = kNoEntry;
    ScopeStats stats;
  };
  std::mutex mu;
  std::vector<Entry> entries;
  std::vector<ProfileEvent> spans;
  /// The innermost open scope (owner thread only).
  std::uint32_t open = kNoEntry;
};

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

Profiler::Profiler()
    : epoch_(std::chrono::steady_clock::now()),
      epoch_unix_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()) {}

void Profiler::set_enabled(bool enabled) noexcept {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Profiler::set_thread_lane(std::uint32_t lane) noexcept { t_lane = lane; }

double Profiler::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Profiler::ThreadTable& Profiler::local_table() {
  // Storage is owned by the process singleton, so totals outlive a worker
  // thread that exits before collect().
  thread_local ThreadTable* table = nullptr;
  if (table == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(std::make_unique<ThreadTable>());
    table = tables_.back().get();
  }
  return *table;
}

std::uint32_t Profiler::enter(const char* name) {
  ThreadTable& t = local_table();
  const std::uint32_t parent = t.open;
  // A root entry belongs to the thread's current lane; a nested one to
  // its root's lane.
  const std::uint32_t lane =
      parent == kNoEntry ? t_lane : t.entries[parent].lane;
  for (std::size_t i = 0; i < t.entries.size(); ++i) {
    const ThreadTable::Entry& e = t.entries[i];
    if (e.parent == parent && e.name == name && e.lane == lane) {
      t.open = static_cast<std::uint32_t>(i);
      return t.open;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(t.mu);
    t.entries.push_back({name, lane, parent, {}});
  }
  t.open = static_cast<std::uint32_t>(t.entries.size() - 1);
  return t.open;
}

void Profiler::leave(std::uint32_t entry, double dur_us) {
  ThreadTable& t = local_table();
  {
    const std::lock_guard<std::mutex> lock(t.mu);
    add_stats(t.entries[entry].stats, {1, dur_us, dur_us, dur_us});
  }
  t.open = t.entries[entry].parent;
}

void Profiler::record(const char* name, double start_us, double dur_us) {
  ThreadTable& t = local_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  t.spans.push_back(ProfileEvent{name, t_lane, start_us, dur_us});
}

Profile Profiler::collect() const {
  Profile out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& table : tables_) {
      const std::lock_guard<std::mutex> table_lock(table->mu);
      out.spans.insert(out.spans.end(), table->spans.begin(),
                       table->spans.end());
      for (const ThreadTable::Entry& e : table->entries) {
        if (e.stats.count == 0) continue;
        std::string path = e.name;
        for (std::uint32_t p = e.parent; p != kNoEntry;
             p = table->entries[p].parent) {
          path = std::string(table->entries[p].name) + ";" + path;
        }
        add_stats(out.paths[{e.lane, std::move(path)}], e.stats);
      }
    }
  }
  // (lane, start, longest-first) so outer spans precede the spans they
  // enclose and the order is a function of the data alone.
  std::sort(out.spans.begin(), out.spans.end(),
            [](const ProfileEvent& a, const ProfileEvent& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return std::strcmp(a.name, b.name) < 0;
            });
  out.at_us = now_us();
  return out;
}

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& table : tables_) {
    // Entries stay: a scope open on another thread still leaves into its
    // own entry.
    const std::lock_guard<std::mutex> table_lock(table->mu);
    for (ThreadTable::Entry& e : table->entries) e.stats = ScopeStats{};
    table->spans.clear();
  }
}

ProfileSummary summarize_names(const ScopePaths& paths) {
  ProfileSummary summary;
  for (const auto& [key, stats] : paths) {
    const std::string& path = key.second;
    add_stats(summary[path.substr(path.rfind(';') + 1)], stats);
  }
  return summary;
}

FoldedStacks folded_stacks(const ScopePaths& paths) {
  // Self time: each path's total minus its direct children's totals. A
  // parent with no finished call yet (still open) has no entry to charge.
  std::map<std::pair<std::uint32_t, std::string>, double> self;
  for (const auto& [key, stats] : paths) self.emplace(key, stats.total_us);
  for (const auto& [key, stats] : paths) {
    const std::size_t cut = key.second.rfind(';');
    if (cut == std::string::npos) continue;
    const auto parent = self.find({key.first, key.second.substr(0, cut)});
    if (parent != self.end()) parent->second -= stats.total_us;
  }
  FoldedStacks folded;
  for (const auto& [key, us] : self) {
    // Children finish inside their parent, so a self time falls below
    // zero only by rounding or when a parent call is still open.
    folded[lane_name(key.first) + ";" + key.second] =
        static_cast<std::size_t>(std::llround(std::max(us, 0.0)));
  }
  return folded;
}

void write_folded(std::ostream& out, const FoldedStacks& folded) {
  for (const auto& [stack, value] : folded) {
    out << stack << ' ' << value << '\n';
  }
}

void export_to(Tracer& tracer, const Profile& profile) {
  std::set<std::uint32_t> named;
  const auto name_lane = [&](std::uint32_t lane) {
    // Name each lane once, ahead of its first event: a streaming tracer
    // writes every name_lane call through to its sinks.
    if (named.insert(lane).second) {
      tracer.name_lane(Domain::kWall, lane, lane_name(lane));
    }
  };
  TraceEvent t;
  t.domain = Domain::kWall;
  t.phase = 'X';
  t.cat = "profile";
  for (const ProfileEvent& e : profile.spans) {
    name_lane(e.lane);
    t.ts_us = e.start_us;
    t.dur_us = e.dur_us;
    t.lane = e.lane;
    t.name = e.name;
    tracer.append(t);
  }
  t.phase = 'i';
  t.cat = "scope";
  t.ts_us = profile.at_us;
  t.dur_us = 0.0;
  for (const auto& [key, stats] : profile.paths) {
    name_lane(key.first);
    t.lane = key.first;
    t.name = key.second;
    t.args = {arg("count", static_cast<double>(stats.count)),
              arg("total_us", stats.total_us), arg("min_us", stats.min_us),
              arg("max_us", stats.max_us)};
    tracer.append(t);
  }
}

}  // namespace dcs::obs
