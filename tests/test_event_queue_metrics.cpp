#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace sc::sim {
namespace {

TEST(ObservationQueue, RunUntilHorizonIsInclusive) {
  ObservationQueue q;
  for (const double t : {0.5, 1.0, 1.5, 2.0}) {
    q.schedule(t, ObservationEvent{0, t});
  }
  std::vector<double> fired;
  const auto record = [&](double now, const ObservationEvent&) {
    fired.push_back(now);
  };
  q.run_until(1.0, record);
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(q.size(), 2u);
  q.run_until(10.0, record);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(ObservationQueue, HandlersReceiveTheirScheduledTime) {
  ObservationQueue q;
  q.schedule(7.5, ObservationEvent{4, 2.0});
  double seen = -1.0;
  q.run_all([&](double now, const ObservationEvent&) { seen = now; });
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(ObservationQueue, NestedSchedulingWithinHorizon) {
  // A handler may schedule further events: those inside the horizon are
  // delivered by the same run_until, later ones wait.
  ObservationQueue q;
  q.schedule(1.0, ObservationEvent{1, 0.0});
  std::vector<std::size_t> order;
  q.run_until(2.0, [&](double, const ObservationEvent& ev) {
    order.push_back(ev.path);
    if (ev.path == 1) {
      q.schedule(1.5, ObservationEvent{2, 0.0});
      q.schedule(5.0, ObservationEvent{9, 0.0});
    }
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2}));  // the 5.0 event waits
  EXPECT_EQ(q.size(), 1u);
}

TEST(ObservationQueue, PodEventsDrainInTimeThenFifoOrder) {
  // Same-timestamp events must keep insertion (FIFO) order.
  ObservationQueue q;
  q.reserve(8);
  q.schedule(2.0, ObservationEvent{20, 1.0});
  q.schedule(1.0, ObservationEvent{10, 1.0});
  q.schedule(1.0, ObservationEvent{11, 2.0});
  q.schedule(1.0, ObservationEvent{12, 3.0});
  q.schedule(0.5, ObservationEvent{5, 1.0});

  std::vector<std::size_t> paths;
  std::vector<double> times;
  q.run_until(1.0, [&](double now, const ObservationEvent& ev) {
    times.push_back(now);
    paths.push_back(ev.path);
  });
  EXPECT_EQ(paths, (std::vector<std::size_t>{5, 10, 11, 12}));
  EXPECT_EQ(times, (std::vector<double>{0.5, 1.0, 1.0, 1.0}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);

  q.run_all([&](double, const ObservationEvent& ev) {
    paths.push_back(ev.path);
  });
  EXPECT_EQ(paths.back(), 20u);
  EXPECT_TRUE(q.empty());
}

TEST(ObservationQueue, PayloadsSurviveInterleavedScheduling) {
  ObservationQueue q;
  // Interleave schedule/run to exercise heap reuse of popped slots.
  std::vector<double> seen;
  q.schedule(1.0, ObservationEvent{1, 10.0});
  q.schedule(3.0, ObservationEvent{3, 30.0});
  q.run_until(1.5, [&](double, const ObservationEvent& ev) {
    seen.push_back(ev.throughput);
  });
  q.schedule(2.0, ObservationEvent{2, 20.0});
  q.run_all([&](double, const ObservationEvent& ev) {
    seen.push_back(ev.throughput);
  });
  EXPECT_EQ(seen, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(Metrics, AccumulatesPerRequestOutcomes) {
  MetricsCollector m;
  ServiceOutcome hit;
  hit.delay_s = 0.0;
  hit.quality = 1.0;
  hit.quality_continuous = 1.0;
  hit.immediate = true;
  hit.bytes_from_cache = 600.0;
  hit.bytes_from_origin = 400.0;

  ServiceOutcome miss;
  miss.delay_s = 50.0;
  miss.quality = 0.5;
  miss.quality_continuous = 0.6;
  miss.immediate = false;
  miss.bytes_from_cache = 0.0;
  miss.bytes_from_origin = 1000.0;

  m.record(hit, 5.0);
  m.record(miss, 7.0);

  EXPECT_EQ(m.requests(), 2u);
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 600.0 / 2000.0);
  EXPECT_DOUBLE_EQ(m.average_delay_s(), 25.0);
  EXPECT_DOUBLE_EQ(m.average_quality(), 0.8);             // continuous
  EXPECT_DOUBLE_EQ(m.average_quality_quantized(), 0.75);  // (1 + 0.5) / 2
  EXPECT_DOUBLE_EQ(m.total_added_value(), 5.0);  // only the immediate one
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(m.immediate_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(m.bytes_from_cache(), 600.0);
  EXPECT_DOUBLE_EQ(m.bytes_from_origin(), 1400.0);
}

TEST(Metrics, EmptyCollectorIsZero) {
  const MetricsCollector m;
  EXPECT_EQ(m.requests(), 0u);
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.immediate_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_added_value(), 0.0);
}

TEST(Metrics, FillTrafficTrackedSeparately) {
  MetricsCollector m;
  m.record_fill(123.0);
  m.record_fill(77.0);
  EXPECT_DOUBLE_EQ(m.fill_bytes(), 200.0);
  // Fill traffic must not affect the §3.3 traffic reduction ratio.
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 0.0);
}

}  // namespace
}  // namespace sc::sim
