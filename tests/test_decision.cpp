// DecisionKernel in isolation, driven by an arbitrary caller-owned
// clock — the contract the proxy daemon relies on (sim/run_loop.h's use
// is pinned separately by the golden-CSV harness).
#include "sim/decision.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/registry.h"
#include "net/estimator.h"
#include "net/path_process.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "workload/object_catalog.h"

namespace sc::sim {
namespace {

std::shared_ptr<const net::PathModel> constant_paths(std::size_t n) {
  const core::Scenario s = core::registry::make_scenario("constant");
  net::PathModelConfig config;
  config.mode = s.mode;
  return net::make_path_model(n, s.base, s.ratio, config, 7);
}

TEST(DecisionKernel, ObservesFollowsTheEstimator) {
  // Oracle estimators discard completion observations, passive ones
  // consume them; the kernel reports which, so callers can skip the
  // per-transfer event traffic for the former.
  const auto model = constant_paths(2);
  net::OracleEstimator oracle(*model);
  net::PassiveEwmaEstimator ewma(2, 0.3, 1e5);
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 2;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, oracle);
  cache::PartialStore store(1e9);
  ObservationQueue events;
  EXPECT_FALSE(DecisionKernel(*policy, oracle, store, events).observes());
  EXPECT_TRUE(DecisionKernel(*policy, ewma, store, events).observes());
}

TEST(DecisionKernel, TickDeliversObservationsInTimeOrder) {
  net::PassiveEwmaEstimator ewma(1, 0.5, 777.0);  // prior shows until the
                                                  // first observation lands
  cache::PartialStore store(1e9);
  ObservationQueue events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 1;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, ewma);

  DecisionKernel kernel(*policy, ewma, store, events);
  EXPECT_TRUE(kernel.observes());

  // Transfers complete out of schedule order; delivery must follow
  // completion time, not insertion order.
  kernel.record_transfer(0, 200.0, 30.0);
  kernel.record_transfer(0, 100.0, 10.0);
  EXPECT_EQ(events.size(), 2u);

  // Nothing due yet: the estimate is still the never-observed prior.
  kernel.tick(5.0);
  EXPECT_DOUBLE_EQ(kernel.estimator().estimate(0, 5.0), 777.0);

  // First completion (the t=10 one, despite being scheduled second)
  // replaces the prior outright.
  kernel.tick(10.0);
  EXPECT_DOUBLE_EQ(kernel.estimator().estimate(0, 10.0), 100.0);

  // Second completion folds in with alpha = 0.5.
  kernel.tick(30.0);
  EXPECT_DOUBLE_EQ(kernel.estimator().estimate(0, 30.0),
                   0.5 * 200.0 + 0.5 * 100.0);
  EXPECT_TRUE(events.empty());
}

TEST(DecisionKernel, DrainFlushesRegardlessOfClock) {
  net::PassiveEwmaEstimator ewma(1, 1.0, 777.0);  // alpha 1: last sample wins
  cache::PartialStore store(1e9);
  ObservationQueue events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 1;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, ewma);

  DecisionKernel kernel(*policy, ewma, store, events);
  kernel.record_transfer(0, 111.0, 1e12);  // due in the far future
  kernel.drain();
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(kernel.estimator().estimate(0, 0.0), 111.0);
}

TEST(DecisionKernel, AdmitRunsThePolicyAndReportsTheNewPrefix) {
  const auto model = constant_paths(8);
  net::OracleEstimator oracle(*model);
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 8;
  util::Rng cat_rng(3);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, oracle);
  cache::PartialStore store(catalog.total_bytes());  // room for everything
  store.reserve(catalog.size());
  ObservationQueue events;

  DecisionKernel kernel(*policy, oracle, store, events);
  EXPECT_DOUBLE_EQ(kernel.cached(3), 0.0);
  const double after = kernel.admit(3, 1.0);
  // With surplus capacity an access admits a non-empty prefix, and the
  // return value is exactly the store's post-decision contents.
  EXPECT_GT(after, 0.0);
  EXPECT_DOUBLE_EQ(after, kernel.cached(3));
  EXPECT_DOUBLE_EQ(after, store.cached(3));
  EXPECT_LE(after, catalog.object(3).size_bytes);
}

TEST(DecisionKernel, SettleObservesOriginTransfersThenAdmitsWhenFillable) {
  net::PassiveEwmaEstimator ewma(4, 1.0, 777.0);
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 4;
  util::Rng cat_rng(3);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, ewma);
  cache::PartialStore store(catalog.total_bytes());  // room for everything
  store.reserve(catalog.size());
  ObservationQueue events;
  DecisionKernel kernel(*policy, ewma, store, events);

  ServiceOutcome from_origin;
  from_origin.bytes_from_origin = 10.0;
  from_origin.origin_throughput = 50.0;
  // The origin cannot back a fill: the observation is still deferred to
  // the completion time, but no decision runs.
  EXPECT_DOUBLE_EQ(kernel.settle(1, 1, from_origin, 1.0, 9.0, false, 0.0),
                   0.0);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(kernel.cached(1), 0.0);
  // A cache-only outcome defers nothing; the decision admits a prefix
  // and settle returns its growth over the pre-decision prefix.
  const double growth = kernel.settle(1, 1, ServiceOutcome{}, 2.0, 2.0, true,
                                      kernel.cached(1));
  EXPECT_EQ(events.size(), 1u);
  EXPECT_GT(growth, 0.0);
  EXPECT_DOUBLE_EQ(growth, kernel.cached(1));
  kernel.tick(9.0);
  EXPECT_DOUBLE_EQ(kernel.estimator().estimate(1, 9.0), 50.0);
}

}  // namespace
}  // namespace sc::sim
