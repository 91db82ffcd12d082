#include "serving/placement.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace dcs::serving {
namespace {

/// The queue length a server shows once `placed` requests have joined it
/// this period: the value the request-by-request rule compares.
double queue_length(double backlog, std::size_t placed) noexcept {
  return backlog + static_cast<double>(placed);
}

/// The number of a >= 0 with queue_length(backlog, a) < level (a prefix,
/// since the length grows with a), capped at `cap`.
std::size_t picks_below(double backlog, double level,
                        std::size_t cap) noexcept {
  const auto below = [&](std::size_t a) {
    return queue_length(backlog, a) < level;
  };
  // Real arithmetic puts the count at ceil(level - backlog). Rounding can
  // move it, so the guess is checked against the exact predicate, and
  // bisection takes over only when it misses.
  const double guess = std::ceil(level - backlog);
  const std::size_t g = guess <= 0.0 ? 0
                        : guess >= static_cast<double>(cap)
                            ? cap
                            : static_cast<std::size_t>(guess);
  if ((g == 0 || below(g - 1)) && (g == cap || !below(g))) return g;
  std::size_t lo = 0;
  std::size_t hi = cap;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void RoundRobinPlacement::place(std::span<const ServerLoad> servers,
                                std::size_t admitted,
                                std::span<std::size_t> counts) {
  const std::size_t n = servers.size();
  const std::size_t start = cursor_ % n;
  const std::size_t extra = admitted % n;
  // Every full turn gives each server one request; the last, partial turn
  // runs from the cursor.
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = admitted / n + ((i + n - start) % n < extra ? 1 : 0);
  }
  cursor_ = (start + extra) % n;
}

JoinShortestQueuePlacement::JoinShortestQueuePlacement(std::size_t servers) {
  candidates_.reserve(servers);
  sorted_backlogs_.reserve(servers);
  heads_.reserve(servers);
}

void JoinShortestQueuePlacement::place(std::span<const ServerLoad> servers,
                                       std::size_t admitted,
                                       std::span<std::size_t> counts) {
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  if (admitted == 0) return;
  // A NaN queue length compares false both ways and +inf loses to every
  // finite one: server 0 keeps every request when its backlog is NaN or
  // no backlog is finite, and otherwise only finite backlogs win picks.
  candidates_.clear();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (std::isfinite(servers[i].backlog)) candidates_.push_back(i);
  }
  if (std::isnan(servers[0].backlog) || candidates_.empty()) {
    counts[0] = admitted;
    return;
  }

  const std::size_t m = candidates_.size();
  std::size_t placed = 0;
  if (admitted > 2 * m) {
    // Water-fill to the level where the candidates below it would hold
    // admitted - 2m requests in real arithmetic. Every pair strictly below
    // the level precedes every other pair in the pick order, so taking
    // them in bulk leaves the state the rule reaches after that many
    // picks. Rounding each share up adds under one request per server, so
    // the bulk stays within `admitted` while the level's own rounding costs
    // less than that: at 512 servers, while backlogs stay below about 2^48.
    // Past that the bulk may overshoot, and the rule places every request.
    sorted_backlogs_.clear();
    for (const std::size_t i : candidates_) {
      sorted_backlogs_.push_back(servers[i].backlog);
    }
    std::sort(sorted_backlogs_.begin(), sorted_backlogs_.end());
    const auto target = static_cast<double>(admitted - 2 * m);
    double prefix = 0.0;
    double level = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      prefix += sorted_backlogs_[j];
      level = (target + prefix) / static_cast<double>(j + 1);
      if (j + 1 == m || level <= sorted_backlogs_[j + 1]) break;
    }
    for (const std::size_t i : candidates_) {
      counts[i] = picks_below(servers[i].backlog, level, admitted + 1);
      placed += counts[i];
      if (placed > admitted) break;
    }
    if (placed > admitted) {
      std::fill(counts.begin(), counts.end(), std::size_t{0});
      placed = 0;
    }
  }

  // The last picks by the rule itself: shortest queue, ties to the lowest
  // index.
  heads_.clear();
  for (const std::size_t i : candidates_) {
    heads_.emplace_back(queue_length(servers[i].backlog, counts[i]), i);
  }
  const std::greater<> later;
  std::make_heap(heads_.begin(), heads_.end(), later);
  for (; placed < admitted; ++placed) {
    std::pop_heap(heads_.begin(), heads_.end(), later);
    auto& [length, server] = heads_.back();
    length = queue_length(servers[server].backlog, ++counts[server]);
    std::push_heap(heads_.begin(), heads_.end(), later);
  }
}

std::unique_ptr<PlacementPolicy> make_placement(std::string_view name,
                                                std::size_t servers) {
  if (name == "round_robin") return std::make_unique<RoundRobinPlacement>();
  if (name == "jsq") {
    return std::make_unique<JoinShortestQueuePlacement>(servers);
  }
  DCS_REQUIRE(false, "unknown placement (want round_robin or jsq)");
  return nullptr;
}

}  // namespace dcs::serving
