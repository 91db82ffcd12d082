// Pluggable request-placement policies over the serving layer's servers.
//
// Mirrors the job-queue + pluggable-scheduler shape of geedo0's
// miniproject3 (ROADMAP exemplar): each control period the serving layer
// asks the policy how many of the period's admitted requests each server
// receives, given every server's queue backlog. The counts are those of a
// request-by-request placement, where each request goes to the server the
// policy's rule picks at that moment:
//   round_robin - rotate through the servers;
//   jsq         - join the shortest queue (backlog + requests already
//                 placed this period), ties to the lowest index.
//
// A period is placed in closed form. Round-robin is an even split with the
// remainder placed from the cursor. JSQ fills a water level over the
// backlogs: every (queue length, server) pair below the level is a prefix
// of the request-by-request pick order, so it is taken in bulk, and the
// last few picks follow the rule itself. A period costs
// O(servers log servers), whatever the number of requests.
//
// Policies are deterministic pure functions of the server view plus their
// own cursor state, so placement never perturbs the sweep bit-identity
// contract.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace dcs::serving {

/// What a policy may observe about one server when placing requests.
struct ServerLoad {
  /// Requests queued at the server (fluid backlog), in requests.
  double backlog = 0.0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Places `admitted` requests: writes each server's count into `counts`
  /// (one entry per server). `servers` is never empty.
  virtual void place(std::span<const ServerLoad> servers,
                     std::size_t admitted, std::span<std::size_t> counts) = 0;
};

class RoundRobinPlacement final : public PlacementPolicy {
 public:
  void place(std::span<const ServerLoad> servers, std::size_t admitted,
             std::span<std::size_t> counts) override;

 private:
  /// The server the next request goes to.
  std::size_t cursor_ = 0;
};

/// Join the shortest queue. Scratch is sized for `servers` at
/// construction, so placing allocates nothing.
class JoinShortestQueuePlacement final : public PlacementPolicy {
 public:
  explicit JoinShortestQueuePlacement(std::size_t servers);

  void place(std::span<const ServerLoad> servers, std::size_t admitted,
             std::span<std::size_t> counts) override;

 private:
  /// The servers with a finite backlog, in index order.
  std::vector<std::size_t> candidates_;
  std::vector<double> sorted_backlogs_;
  /// Min-heap of (queue length, server) for the picks after the bulk.
  std::vector<std::pair<double, std::size_t>> heads_;
};

/// Factory over the bench `placement=` knob: "round_robin" | "jsq", with
/// scratch for `servers` servers. Aborts on an unknown name.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(
    std::string_view name, std::size_t servers);

}  // namespace dcs::serving
