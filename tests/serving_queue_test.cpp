// Request-level serving layer: Poisson arrival sampling, the log latency
// histogram, the M/G/1 and processor-sharing queue models against their
// closed forms, placement policies, admission drops, the bit-identity
// contract (same inputs -> same histograms and sweep rows, regardless of
// thread count), and the per-tick placement, queue steps and histogram
// slots against request-by-request oracles.
#include "serving/serving_layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "serving/latency.h"
#include "serving/placement.h"
#include "serving/queue_model.h"
#include "serving/request_source.h"
#include "sampler_checks.h"
#include "util/rng.h"
#include "util/time_series.h"

// Every heap allocation in this test binary is counted, so a test can
// assert that a stretch of code makes none.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the inlined free() with a
// new-expression and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dcs::serving {
namespace {

TEST(ServingPoisson, SamplerMatchesMeanAndVariance) {
  Rng rng(42);
  EXPECT_EQ(poisson_sample(rng, 0.0), 0u);

  // Small mean (Knuth's product) and large means (PTRS, where a naive
  // exp(-mean) product would underflow to an infinite loop).
  for (const double mean : {3.0, 40.0, 400.0}) {
    const std::size_t n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<double>(poisson_sample(rng, mean));
      sum += k;
      sum_sq += k * k;
    }
    const double sample_mean = sum / static_cast<double>(n);
    const double sample_var =
        sum_sq / static_cast<double>(n) - sample_mean * sample_mean;
    // Poisson: mean == variance == lambda. 5 sigma-ish tolerances.
    EXPECT_NEAR(sample_mean, mean, 5.0 * std::sqrt(mean / n)) << mean;
    EXPECT_NEAR(sample_var, mean, 0.1 * mean + 1.0) << mean;
  }
}

/// Consecutive counts of Poisson(mean) merged into bins of at least
/// `min_mass` each; the last bin runs to infinity.
struct CountBins {
  std::vector<std::size_t> first;  ///< each bin's smallest count
  std::vector<double> mass;
};

CountBins poisson_bins(double mean, double min_mass) {
  CountBins bins{{0}, {}};
  double log_pmf = -mean;  // at k = 0
  double open = 0.0;       // mass of the bin being filled
  double closed = 0.0;     // mass of the bins before it
  for (std::size_t k = 0; 1.0 - closed - open > min_mass; ++k) {
    open += std::exp(log_pmf);
    log_pmf += std::log(mean) - std::log(static_cast<double>(k + 1));
    // Close the bin only if the rest of the tail still fills one.
    if (open >= min_mass && 1.0 - closed - open >= min_mass) {
      bins.mass.push_back(open);
      closed += open;
      open = 0.0;
      bins.first.push_back(k + 1);
    }
  }
  bins.mass.push_back(1.0 - closed);
  return bins;
}

TEST(ServingPoisson, DrawsFitTheExactPmf) {
  // Chi-square of 500,000 draws against the exact pmf, in bins of at least
  // 2% of the mass: Knuth's product below a mean of 10, PTRS from 10 up,
  // and the range just above 10 where PTRS rejects most often. A wrong
  // PTRS constant or log-factorial term fails it; mean and variance alone
  // would not show either. Coarse bins keep the bound tight, so a skew that
  // spreads over many counts still stands out.
  constexpr std::size_t n = 500000;
  for (const double mean : {3.0, 9.5, 10.0, 15.0, 40.0, 400.0, 4000.0}) {
    const CountBins bins = poisson_bins(mean, 0.02);
    std::vector<std::size_t> counts(bins.mass.size());
    Rng rng(0x9015);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = poisson_sample(rng, mean);
      const auto bin = std::upper_bound(bins.first.begin(), bins.first.end(),
                                        k) -
                       bins.first.begin() - 1;
      ++counts[static_cast<std::size_t>(bin)];
    }
    const std::size_t dof = counts.size() - 1;
    EXPECT_LT(test::chi_square(counts, bins.mass), test::chi_square_bound(dof))
        << "mean " << mean << ", " << counts.size() << " bins";
  }
}

TEST(ServingPoisson, DrawsArePinned) {
  // Golden draws: 10^4 samples at each mean from a fixed seed, summed and
  // FNV-1a hashed in draw order. Any change to the sampler's arithmetic
  // (Knuth's exp(-mean) limit, the PTRS constants, the log-factorial, the
  // uniform stream) moves them.
  struct Golden {
    double mean;
    std::uint64_t sum;
    std::uint64_t hash;
  };
  for (const Golden& g : {Golden{3.0, 30341, 0x8fcdf9c0275bda22ULL},
                          Golden{10.0, 99940, 0xadbdac751e6fedd5ULL},
                          Golden{40.0, 400043, 0xc4d44bda4f23ef9cULL},
                          Golden{400.0, 4000631, 0x8654d36cf37fbb32ULL},
                          Golden{4000.0, 40003113, 0xdfbb47cd8c846924ULL}}) {
    Rng rng(20151);
    std::uint64_t sum = 0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t k = poisson_sample(rng, g.mean);
      sum += k;
      hash = (hash ^ k) * 0x100000001b3ULL;
    }
    EXPECT_EQ(sum, g.sum) << g.mean;
    EXPECT_EQ(hash, g.hash) << g.mean;
  }
}

TEST(ServingPoisson, DrawCostDoesNotGrowWithTheMean) {
  // Generator steps a draw consumes, counted by stepping a copy of the
  // pre-draw Rng until it equals the post-draw one. Knuth's product takes
  // mean + 1; PTRS about 2.3 at any mean.
  for (const double mean : {10.0, 400.0, 4000.0, 40000.0}) {
    Rng rng(0xc057);
    std::size_t steps = 0;
    for (int i = 0; i < 1000; ++i) {
      const Rng before = rng;
      (void)poisson_sample(rng, mean);
      steps += test::steps_between(before, rng, std::size_t{1} << 20);
    }
    EXPECT_LE(static_cast<double>(steps) / 1000.0, 3.0) << "mean " << mean;
  }
}

TEST(ServingPoisson, EveryMeanReturns) {
  // NaN and non-positive means offer nothing; an infinite one is clamped
  // to 2^53, so the count fits std::size_t.
  Rng rng(3);
  EXPECT_EQ(poisson_sample(rng, std::nan("")), 0u);
  EXPECT_EQ(poisson_sample(rng, -1.0), 0u);
  EXPECT_EQ(poisson_sample(rng, 0.0), 0u);
  const double huge = static_cast<double>(
      poisson_sample(rng, std::numeric_limits<double>::infinity()));
  EXPECT_NEAR(huge, 0x1.0p53, 0x1.0p40);
}

TEST(ServingPoisson, RequestSourceIsAPureFunctionOfSeedAndTick) {
  const RequestSource a(RequestSourceParams{400.0, 0xABCD});
  const RequestSource b(RequestSourceParams{400.0, 0xABCD});
  const RequestSource other(RequestSourceParams{400.0, 0xABCE});
  const Duration dt = Duration::seconds(1);
  bool any_diff = false;
  for (std::uint64_t tick = 0; tick < 64; ++tick) {
    // Same (seed, tick, demand) -> same count, on the same instance and
    // across instances; re-asking does not advance hidden state.
    const std::size_t n = a.arrivals(tick, 1.0, dt);
    EXPECT_EQ(n, a.arrivals(tick, 1.0, dt));
    EXPECT_EQ(n, b.arrivals(tick, 1.0, dt));
    any_diff = any_diff || n != other.arrivals(tick, 1.0, dt);
  }
  EXPECT_TRUE(any_diff) << "different seeds must give different streams";
  EXPECT_EQ(a.arrivals(0, 0.0, dt), 0u);
}

/// One request's response time into `h`, as the per-request path records
/// it: NaN and negative samples count as 0 s.
void observe(LatencyHistogram& h, double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;
  h.add(LatencyHistogram::slot(seconds), 1, seconds, seconds);
}

/// Bucket-exact equality: the bit-identity check of the determinism tests.
bool same_histogram(const LatencyHistogram& a, const LatencyHistogram& b) {
  return a.bucket_counts() == b.bucket_counts() && a.count() == b.count() &&
         a.sum_seconds() == b.sum_seconds() &&
         a.max_seconds() == b.max_seconds();
}

TEST(ServingHistogram, BucketsAndQuantiles) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);  // empty

  // 100 samples at 10 ms, 10 at 1 s: p50 lands in the 10 ms bucket, p999
  // in the 1 s bucket (within one log-bucket of resolution).
  for (int i = 0; i < 100; ++i) observe(h, 0.010);
  for (int i = 0; i < 10; ++i) observe(h, 1.0);
  EXPECT_EQ(h.count(), 110u);
  EXPECT_NEAR(h.sum_seconds(), 100 * 0.010 + 10 * 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1.0);
  const double step = std::pow(10.0, 1.0 / LatencyHistogram::kPerDecade);
  EXPECT_NEAR(h.quantile(0.5), 0.010, 0.010 * (step - 1.0) * 1.01);
  EXPECT_NEAR(h.quantile(0.999), 1.0, 1.0 * (step - 1.0) * 1.01);

  // Underflow and overflow resolve to the histogram edges.
  LatencyHistogram edges;
  observe(edges, 1e-6);
  observe(edges, 5000.0);
  EXPECT_DOUBLE_EQ(edges.quantile(0.25), LatencyHistogram::kMinSeconds);
  EXPECT_DOUBLE_EQ(edges.quantile(1.0), LatencyHistogram::kMaxSeconds);
  observe(edges, std::nan(""));  // guarded, lands in underflow
  EXPECT_EQ(edges.count(), 3u);
  EXPECT_EQ(edges.bucket_counts().front(), 2u);

  h.reset();
  EXPECT_TRUE(same_histogram(h, LatencyHistogram{}));
}

TEST(ServingTracker, WindowP99FallsBackToLastCompletedWindow) {
  LatencyTracker tracker(/*window_ticks=*/2);
  tracker.observe(0.100);
  tracker.observe(0.100);
  EXPECT_GT(tracker.window_p99(), 0.0);  // current window has samples
  tracker.end_tick();
  tracker.end_tick();  // window completes; snapshot taken, window resets
  const double snapshot = tracker.window_p99();
  EXPECT_GT(snapshot, 0.05);  // falls back to the completed window's p99
  // An empty current window keeps reporting the last completed one.
  tracker.end_tick();
  EXPECT_DOUBLE_EQ(tracker.window_p99(), snapshot);
}

/// Drives a queue with a deterministic `arrivals` per tick for `ticks`
/// periods and returns the tracker.
LatencyTracker drive(QueueModel& queue, std::size_t arrivals, double mu,
                     std::size_t ticks, std::uint64_t seed) {
  LatencyTracker tracker;
  const Rng base(seed);
  for (std::size_t t = 0; t < ticks; ++t) {
    Rng rng = base.fork(t);
    queue.step(arrivals, mu, Duration::seconds(1), rng, tracker);
    tracker.end_tick();
  }
  return tracker;
}

TEST(ServingQueue, Mg1MatchesPollaczekKhinchineMean) {
  // M/M/1 case (cv2 = 1): W = 1/mu + lambda/(mu^2 (1 - rho)).
  for (const double cv2 : {1.0, 0.0, 4.0}) {
    Mg1Queue queue(QueueModelParams{cv2, 0.95});
    const LatencyTracker t = drive(queue, /*arrivals=*/50, /*mu=*/100.0,
                                   /*ticks=*/2000, /*seed=*/7);
    const double expected = mg1_mean_response_s(50.0, 100.0, cv2);
    // 100k exponential samples: relative standard error ~0.3%.
    EXPECT_NEAR(t.total().mean_seconds(), expected, 0.05 * expected) << cv2;
    EXPECT_DOUBLE_EQ(queue.backlog(), 0.0);
  }
  // Closed form sanity: the M/M/1 mean at rho=0.5 is 2/mu.
  EXPECT_NEAR(mg1_mean_response_s(50.0, 100.0, 1.0), 0.02, 1e-12);
}

TEST(ServingQueue, ProcessorSharingMatchesClosedFormAndIgnoresCv2) {
  ProcessorSharingQueue queue(QueueModelParams{1.0, 0.95});
  const LatencyTracker t = drive(queue, 50, 100.0, 2000, 7);
  const double expected = 1.0 / (100.0 - 50.0);  // 1/(mu-lambda)
  EXPECT_NEAR(t.total().mean_seconds(), expected, 0.05 * expected);

  // PS is insensitive to the service-time distribution beyond its mean: a
  // different cv2 with the same seed produces a bit-identical histogram.
  ProcessorSharingQueue other(QueueModelParams{4.0, 0.95});
  const LatencyTracker u = drive(other, 50, 100.0, 2000, 7);
  EXPECT_TRUE(same_histogram(t.total(), u.total()));

  // Exponential response shape: p99/mean ~ ln(100), read through the log
  // histogram's ~15% bucket resolution.
  EXPECT_NEAR(t.p99() / t.total().mean_seconds(), std::log(100.0), 1.0);
}

TEST(ServingQueue, FluidOverloadIsDeterministicAndMonotoneInMu) {
  // arrivals > mu * dt: the fluid regime, no sampling at all.
  Mg1Queue queue;
  LatencyTracker tracker;
  Rng rng(1);
  queue.step(200, 100.0, Duration::seconds(1), rng, tracker);
  EXPECT_DOUBLE_EQ(queue.backlog(), 100.0);  // 200 in, 100 served
  // First request waits 1/mu, last waits (199+1)/mu = 2 s.
  EXPECT_DOUBLE_EQ(tracker.total().max_seconds(), 2.0);

  // The backlog drains at mu when arrivals stop — step() with zero
  // arrivals must keep integrating.
  queue.step(0, 100.0, Duration::seconds(1), rng, tracker);
  EXPECT_DOUBLE_EQ(queue.backlog(), 0.0);

  // More capacity (a deeper sprint) means strictly lower response times —
  // the monotonicity behind the p99-vs-budget curves.
  double prev_mean = 1e9;
  for (const double mu : {100.0, 150.0, 200.0}) {
    Mg1Queue q;
    const LatencyTracker t = drive(q, 180, mu, 50, 3);
    EXPECT_LT(t.total().mean_seconds(), prev_mean) << mu;
    prev_mean = t.total().mean_seconds();
  }

  // mu = 0 (fully shed server): requests pend and saturate the histogram.
  Mg1Queue dead;
  LatencyTracker sat;
  dead.step(5, 0.0, Duration::seconds(1), rng, sat);
  EXPECT_DOUBLE_EQ(dead.backlog(), 5.0);
  EXPECT_DOUBLE_EQ(sat.total().max_seconds(), LatencyHistogram::kMaxSeconds);
  dead.reset();
  EXPECT_DOUBLE_EQ(dead.backlog(), 0.0);
}

TEST(ServingQueue, FactoryValidatesNamesAndParams) {
  EXPECT_EQ(make_queue_model("mg1")->name(), "mg1");
  EXPECT_EQ(make_queue_model("ps")->name(), "ps");
  EXPECT_THROW((void)make_queue_model("lifo"), std::invalid_argument);
  EXPECT_THROW((void)make_queue_model("mg1", {-1.0, 0.95}),
               std::invalid_argument);
  EXPECT_THROW((void)make_queue_model("mg1", {1.0, 1.5}),
               std::invalid_argument);
}

TEST(ServingPlacement, PoliciesPickDeterministically) {
  // Placing one request names the server the policy picks.
  const auto pick = [](PlacementPolicy& policy,
                       std::vector<ServerLoad> loads) {
    std::vector<std::size_t> counts(loads.size());
    policy.place(loads, 1, counts);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
              1u);
    return static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  };

  RoundRobinPlacement rr;
  const std::vector<ServerLoad> three(3);
  EXPECT_EQ(pick(rr, three), 0u);
  EXPECT_EQ(pick(rr, three), 1u);
  EXPECT_EQ(pick(rr, three), 2u);
  EXPECT_EQ(pick(rr, three), 0u);
  rr.reset();
  EXPECT_EQ(pick(rr, three), 0u);

  JoinShortestQueuePlacement jsq(3);
  EXPECT_EQ(pick(jsq, {{2.0}, {0.0}, {1.0}}), 1u);
  EXPECT_EQ(pick(jsq, {{1.0}, {1.0}}), 0u);  // tie: lowest
  // Requests placed earlier in the period count toward the queue: the
  // second request sees 1 at server 0 against 0.5 at server 1.
  std::vector<std::size_t> counts(2);
  jsq.place(std::vector<ServerLoad>{{0.0}, {0.5}}, 2, counts);
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 1}));

  EXPECT_EQ(make_placement("round_robin", 1)->name(), "round_robin");
  EXPECT_EQ(make_placement("jsq", 1)->name(), "jsq");
  EXPECT_THROW((void)make_placement("random", 1), std::invalid_argument);
  EXPECT_THROW((void)make_placement("thermal", 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-request oracles. The serving layer places, draws and buckets a whole
// period at once; these request-by-request loops define what it must
// reproduce: the same counts, backlogs, bucket counts and maxima, and sums
// within rounding.

/// A sample's histogram slot by the defining log10 formula.
std::size_t formula_slot(double seconds) {
  using H = LatencyHistogram;
  if (!(seconds >= 0.0)) seconds = 0.0;
  if (seconds < H::kMinSeconds) return 0;
  if (seconds >= H::kMaxSeconds) return H::kSlots - 1;
  const double pos = std::log10(seconds / H::kMinSeconds) *
                     static_cast<double>(H::kPerDecade);
  const auto index = static_cast<std::size_t>(std::max(pos, 0.0));
  return 1 + std::min(index, H::kBuckets - 1);
}

/// A histogram filled one formula_slot() per sample.
struct OracleHistogram {
  std::vector<std::size_t> counts =
      std::vector<std::size_t>(LatencyHistogram::kSlots);
  std::size_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  void observe(double seconds) {
    if (!(seconds >= 0.0)) seconds = 0.0;
    ++counts[formula_slot(seconds)];
    ++count;
    sum += seconds;
    max = std::max(max, seconds);
  }
};

void expect_histogram_matches(const LatencyHistogram& got,
                              const OracleHistogram& want,
                              const std::string& where) {
  EXPECT_EQ(got.bucket_counts(), want.counts) << where;
  EXPECT_EQ(got.count(), want.count) << where;
  EXPECT_EQ(got.max_seconds(), want.max) << where;
  EXPECT_NEAR(got.sum_seconds(), want.sum, 1e-12 * want.sum) << where;
}

/// One queue step, one response time per request.
struct OracleQueue {
  bool processor_sharing = false;
  QueueModelParams params;
  double backlog = 0.0;

  void step(std::size_t arrivals, double mu, Duration dt, Rng& rng,
            OracleHistogram& latencies) {
    if (mu <= 0.0) {
      backlog += static_cast<double>(arrivals);
      for (std::size_t i = 0; i < arrivals; ++i) {
        latencies.observe(LatencyHistogram::kMaxSeconds);
      }
      return;
    }
    const double lambda = static_cast<double>(arrivals) / dt.sec();
    const double rho = lambda / mu;
    if (backlog <= 0.0 && rho < params.rho_max) {
      for (std::size_t i = 0; i < arrivals; ++i) {
        latencies.observe(
            processor_sharing
                ? rng.exponential(mu) / (1.0 - lambda / mu)
                : rng.exponential(
                      1.0 / mg1_mean_response_s(lambda, mu, params.cv2)));
      }
      return;
    }
    for (std::size_t i = 0; i < arrivals; ++i) {
      latencies.observe((backlog + static_cast<double>(i) + 1.0) / mu);
    }
    backlog = std::max(backlog + static_cast<double>(arrivals) - mu * dt.sec(),
                       0.0);
  }
};

bool same_double(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Steps `model` and the oracle through the same (arrivals, mu) periods;
/// the backlogs must agree after every period.
void expect_queue_matches_oracle(
    const std::string& model, QueueModelParams params,
    const std::vector<std::pair<std::size_t, double>>& periods,
    const std::string& where) {
  const auto queue = make_queue_model(model, params);
  OracleQueue oracle{model == "ps", params};
  LatencyTracker tracker;
  OracleHistogram want;
  const Rng base(0x0dac1e);
  const Duration dt = Duration::seconds(1);
  for (std::size_t k = 0; k < periods.size(); ++k) {
    const auto [arrivals, mu] = periods[k];
    Rng a = base.fork(k);
    Rng b = base.fork(k);
    queue->step(arrivals, mu, dt, a, tracker);
    oracle.step(arrivals, mu, dt, b, want);
    ASSERT_TRUE(same_double(queue->backlog(), oracle.backlog))
        << where << " period " << k << ": " << queue->backlog() << " vs "
        << oracle.backlog;
    tracker.end_tick();
  }
  expect_histogram_matches(tracker.total(), want, where);
}

TEST(ServingOracle, QueueStepsMatchPerRequestLoop) {
  for (const char* model : {"mg1", "ps"}) {
    for (const double cv2 : {1.0, 0.0, 4.0}) {
      const QueueModelParams params{cv2, 0.95};
      const std::string where = std::string(model) + " cv2 " +
                                std::to_string(cv2);
      // Stationary: light load, every response a draw.
      expect_queue_matches_oracle(
          model, params,
          std::vector<std::pair<std::size_t, double>>(200, {50, 100.0}),
          where + " stationary");
      // mu = 0 pends everything at the top bucket; the backlog then drains.
      expect_queue_matches_oracle(
          model, params, {{5, 0.0}, {0, 0.0}, {7, 0.0}, {3, 4.0}, {0, 4.0},
                          {2, 100.0}},
          where + " mu = 0");
      // A NaN rate makes every fluid value NaN, which reads as 0 s.
      expect_queue_matches_oracle(model, params, {{40, std::nan("")}},
                                  where + " NaN mu");
    }
    // One fluid run from underflow ((0 + 1) / mu < 100 us) through every
    // bucket into overflow (n / mu > 1000 s).
    expect_queue_matches_oracle(model, {}, {{12'500'000, 12'000.0}},
                                std::string(model) +
                                    " underflow-to-overflow run");
    // A random walk through both regimes: light and heavy load, rates from
    // 0.01 to 1e5 requests/s, shed servers and idle periods.
    Rng rng(71);
    std::vector<std::pair<std::size_t, double>> periods;
    for (int k = 0; k < 400; ++k) {
      const double mu = rng.uniform() < 0.05
                            ? 0.0
                            : std::pow(10.0, rng.uniform(-2.0, 5.0));
      const double load = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 3.0);
      periods.emplace_back(
          static_cast<std::size_t>(std::min(load * mu, 50'000.0)), mu);
    }
    expect_queue_matches_oracle(model, {1.0, 0.95}, periods,
                                std::string(model) + " random walk");
  }
}

/// One pick per request against the live queue lengths (backlog plus the
/// requests already placed this period).
struct OraclePlacement {
  std::string policy;
  std::size_t cursor = 0;

  std::vector<std::size_t> place(const std::vector<ServerLoad>& servers,
                                 std::size_t admitted) {
    std::vector<std::size_t> counts(servers.size());
    const auto length = [&](std::size_t i) {
      return servers[i].backlog + static_cast<double>(counts[i]);
    };
    for (std::size_t r = 0; r < admitted; ++r) {
      std::size_t best = 0;
      if (policy == "round_robin") {
        best = cursor % servers.size();
        cursor = (cursor + 1) % servers.size();
      } else {
        for (std::size_t i = 1; i < servers.size(); ++i) {
          if (length(i) < length(best)) best = i;
        }
      }
      ++counts[best];
    }
    return counts;
  }
};

/// Seeded server views: `kind` picks the backlog pattern.
std::vector<ServerLoad> random_loads(const std::string& kind,
                                     std::size_t servers, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ServerLoad> loads(servers);
  for (ServerLoad& load : loads) {
    const auto pick = [&rng](std::initializer_list<double> values) {
      return values.begin()[rng.uniform_index(values.size())];
    };
    if (kind == "zero") continue;
    if (kind == "tied") {
      load = {pick({0.0, 1.0, 2.0, 2.5})};
    } else if (kind == "fractional") {
      load = {rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 40.0)};
    } else if (kind == "spread") {
      load = {std::exp(rng.uniform(0.0, 14.0)) - 1.0};
    } else if (kind == "huge") {
      const double base = std::ldexp(1.0, 40);
      load = {pick({base, base + rng.uniform(0.0, 64.0),
                    std::ldexp(1.0, 41) - 0.5, std::ldexp(1.0, 47) + 0.25})};
    } else if (kind == "level") {
      // Servers a few requests apart at 2^49: at 512 servers the water
      // level's rounding costs more than a request per server, the bulk
      // would overshoot and the rule places every request.
      const double quarters = std::floor(rng.uniform(0.0, 128.0));
      load = {std::ldexp(1.0, 49) + quarters / 4.0};
    } else if (kind == "enormous") {
      // From 2^53 up, adding a request can round the queue length back
      // down: lengths plateau and ties pile up.
      load = {pick({std::ldexp(1.0, 53) + 2.0, std::ldexp(1.0, 60),
                    std::ldexp(1.0, 60) + 256.0, std::ldexp(1.0, 61)})};
    } else if (kind == "nonfinite") {
      load = {pick({std::nan(""), inf, 0.0, 3.5, rng.uniform(0.0, 10.0)})};
    }
  }
  return loads;
}

TEST(ServingOracle, PlacementMatchesPerRequestPicks) {
  for (const char* policy : {"round_robin", "jsq"}) {
    for (const std::size_t servers : {1u, 3u, 8u, 512u}) {
      for (const char* kind : {"zero", "tied", "fractional", "spread", "huge",
                               "level", "enormous", "nonfinite"}) {
        const auto placement = make_placement(policy, servers);
        OraclePlacement oracle{policy};
        Rng rng(servers * 1009 + std::string_view(kind).size());
        std::vector<std::size_t> counts(servers);
        // Consecutive periods share the round-robin cursor.
        for (const std::size_t admitted :
             {std::size_t{0}, std::size_t{1}, servers - 1, servers,
              10 * servers + 3, std::size_t{5000}, std::size_t{1}}) {
          const std::vector<ServerLoad> loads =
              random_loads(kind, servers, rng);
          placement->place(loads, admitted, counts);
          EXPECT_EQ(counts, oracle.place(loads, admitted))
              << policy << " " << servers << " servers, " << kind << ", "
              << admitted << " admitted";
        }
      }
    }
  }
}

TEST(ServingOracle, TableSlotsMatchLog10Formula) {
  using H = LatencyHistogram;
  const double inf = std::numeric_limits<double>::infinity();
  // Every bucket edge, 4 ulps either side.
  for (std::size_t k = 0; k <= H::kBuckets; ++k) {
    double x = H::kMinSeconds *
               std::pow(10.0, static_cast<double>(k) /
                                  static_cast<double>(H::kPerDecade));
    for (int i = 0; i < 4; ++i) x = std::nextafter(x, 0.0);
    for (int i = 0; i <= 8; ++i, x = std::nextafter(x, inf)) {
      EXPECT_EQ(H::slot(x), formula_slot(x)) << "edge " << k << " step " << i;
    }
  }
  // 10^6 log-uniform samples from underflow to overflow.
  Rng rng(1406);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-5.0, 4.0));
    mismatches += H::slot(x) != formula_slot(x) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
  for (const double x : {std::nan(""), -1.0, -0.0, 0.0, 5e-324,
                         H::kMinSeconds, H::kMaxSeconds, inf, -inf}) {
    EXPECT_EQ(H::slot(x), formula_slot(x)) << x;
  }
  EXPECT_EQ(H::slot(H::kMinSeconds), 1u);
  EXPECT_EQ(H::slot(H::kMaxSeconds), H::kSlots - 1);
}

/// A short overloaded demand trace for the layer-level tests.
TimeSeries burst_trace() {
  TimeSeries t;
  t.push_back(Duration::zero(), 0.6);
  t.push_back(Duration::seconds(60), 1.8);
  t.push_back(Duration::seconds(200), 1.8);
  t.push_back(Duration::seconds(240), 0.5);
  t.push_back(Duration::seconds(300), 0.5);
  return t;
}

/// Runs a ServingLayer over the burst trace at a fixed capacity degree.
ServingLayer run_layer(const TimeSeries& trace, ServingParams params,
                       double degree) {
  params.demand = &trace;
  ServingLayer layer(params);
  layer.set_capacity_degree(degree);
  const Duration dt = Duration::seconds(1);
  for (Duration now = Duration::zero(); now < trace.end_time(); now += dt) {
    layer.tick(now, dt);
  }
  return layer;
}

TEST(ServingLayer, AdmissionDropsBeyondCapacityHeadroom) {
  const TimeSeries trace = burst_trace();
  ServingParams tight;
  tight.admit_factor = 1.0;  // no queueing headroom
  const ServingLayer capped = run_layer(trace, tight, 1.0);
  EXPECT_GT(capped.dropped_total(), 0u);
  EXPECT_GT(capped.drop_fraction(), 0.0);
  EXPECT_GT(capped.offered_total(), capped.dropped_total());

  // More admission headroom admits more (queueing instead of dropping),
  // which buys a lower drop rate at the cost of latency.
  ServingParams loose;
  loose.admit_factor = 4.0;
  const ServingLayer queued = run_layer(trace, loose, 1.0);
  EXPECT_LT(queued.drop_fraction(), capped.drop_fraction());
  EXPECT_GE(queued.latency().p99(), capped.latency().p99());
}

TEST(ServingLayer, NonFiniteRatesAndAdmission) {
  const TimeSeries trace = burst_trace();
  const double inf = std::numeric_limits<double>::infinity();
  // An infinite request rate is rejected like a zero one.
  for (const double rps : {inf, 0.0, std::nan("")}) {
    ServingParams params;
    params.demand = &trace;
    params.peak_rps = rps;
    EXPECT_THROW((void)ServingLayer(params), std::invalid_argument) << rps;
  }
  // Infinite admission headroom admits every request, through the burst
  // too; the cap is compared with the offered count before any cast.
  ServingParams open;
  open.admit_factor = inf;
  const ServingLayer admitted = run_layer(trace, open, 1.0);
  EXPECT_GT(admitted.offered_total(), 0u);
  EXPECT_EQ(admitted.dropped_total(), 0u);
}

TEST(ServingLayer, MoreCapacityMeansLowerTail) {
  const TimeSeries trace = burst_trace();
  const ServingLayer base = run_layer(trace, {}, 1.0);
  const ServingLayer sprinted = run_layer(trace, {}, 2.0);
  // Same arrival stream (same seed), twice the service rate: the tail must
  // come down. This is the serving-side mechanism fig12 sweeps.
  EXPECT_LT(sprinted.latency().p99(), base.latency().p99());
  EXPECT_LE(sprinted.backlog_total(), base.backlog_total());
}

TEST(ServingLayer, HistogramsAreBitIdenticalAcrossRuns) {
  const TimeSeries trace = burst_trace();
  for (const char* model : {"mg1", "ps"}) {
    for (const char* placement : {"round_robin", "jsq"}) {
      ServingParams params;
      params.queue_model = model;
      params.placement = placement;
      const ServingLayer a = run_layer(trace, params, 1.5);
      const ServingLayer b = run_layer(trace, params, 1.5);
      EXPECT_TRUE(same_histogram(a.latency().total(), b.latency().total()))
          << model << "/" << placement;
      EXPECT_EQ(a.offered_total(), b.offered_total());
      EXPECT_EQ(a.dropped_total(), b.dropped_total());
    }
  }
}

TEST(ServingLayer, TickAllocatesNothing) {
  // Scratch is sized at construction: ticking through stationary, fluid
  // and shed (degree 0) periods allocates nothing, whatever the policy.
  const TimeSeries trace = burst_trace();
  for (const char* model : {"mg1", "ps"}) {
    for (const char* placement : {"round_robin", "jsq"}) {
      for (const std::size_t servers : {1u, 8u, 512u}) {
        ServingParams params;
        params.demand = &trace;
        params.queue_model = model;
        params.placement = placement;
        params.servers = servers;
        params.peak_rps = 4000.0;
        ServingLayer layer(params);
        const Duration dt = Duration::seconds(1);
        const std::size_t before = g_allocations.load();
        int tick = 0;
        for (Duration now = Duration::zero(); now < trace.end_time();
             now += dt, ++tick) {
          layer.set_capacity_degree(tick % 50 < 5 ? 0.0 : 1.2);
          layer.tick(now, dt);
        }
        EXPECT_EQ(g_allocations.load() - before, 0u)
            << model << "/" << placement << " x" << servers;
        EXPECT_GT(layer.backlog_total(), 0.0);
      }
    }
  }
}

TEST(ServingLayer, SweepRowsBitIdenticalAcrossThreadCounts) {
  const TimeSeries trace = burst_trace();
  exp::SweepSpec spec("serving_determinism");
  spec.add_axis("model", std::vector<std::string>{"mg1", "ps"});
  spec.add_axis("admit", std::vector<double>{1.0, 2.0, 4.0}, 0);

  const auto task = [&trace](const exp::SweepSpec::Task& t) {
    ServingParams params;
    params.queue_model = t.level[0] == 0 ? "mg1" : "ps";
    params.admit_factor = std::vector<double>{1.0, 2.0, 4.0}[t.level[1]];
    const ServingLayer layer = run_layer(trace, params, 1.2);
    return std::vector<double>{layer.latency().p50(), layer.latency().p99(),
                               layer.drop_fraction(), layer.backlog_total()};
  };
  const std::vector<std::string> metrics{"p50", "p99", "drop", "backlog"};

  exp::RunnerOptions serial;
  serial.threads = 1;
  exp::RunnerOptions parallel;
  parallel.threads = 4;
  const exp::SweepRun a = exp::run_sweep(spec, metrics, task, serial);
  const exp::SweepRun b = exp::run_sweep(spec, metrics, task, parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]) << "task " << i;
  }
}

TEST(ServingLayer, SloCallbackSeesWindowP99AndRecorderChannels) {
  const TimeSeries trace = burst_trace();
  ServingParams params;
  params.demand = &trace;
  ServingLayer layer(params);
  layer.set_capacity_degree(1.0);

  sim::Recorder recorder;
  layer.set_recorder(&recorder);
  std::size_t callbacks = 0;
  double max_p99 = 0.0;
  layer.set_slo_callback([&](const ServingStats& stats) {
    ++callbacks;
    max_p99 = std::max(max_p99, stats.p99_s);
    EXPECT_EQ(stats.offered, stats.admitted + stats.dropped);
  });

  const Duration dt = Duration::seconds(1);
  std::size_t ticks = 0;
  for (Duration now = Duration::zero(); now < trace.end_time(); now += dt) {
    layer.tick(now, dt);
    ++ticks;
  }
  EXPECT_EQ(callbacks, ticks);
  EXPECT_GT(max_p99, 0.0);
  for (const char* channel :
       {"serving_p50_ms", "serving_p99_ms", "serving_p999_ms",
        "serving_window_p99_ms", "serving_backlog", "serving_dropped",
        "serving_admitted"}) {
    ASSERT_TRUE(recorder.has(channel)) << channel;
    EXPECT_EQ(recorder.series(channel).size(), ticks) << channel;
  }

  // Parameter validation.
  EXPECT_THROW((void)ServingLayer(ServingParams{}), std::invalid_argument);
  ServingParams bad;
  bad.demand = &trace;
  bad.servers = 0;
  EXPECT_THROW((void)ServingLayer(bad), std::invalid_argument);
}

}  // namespace
}  // namespace dcs::serving
