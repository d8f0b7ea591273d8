// Crash-safe persistence, bottom-up: the CRC primitive, snapshot +
// journal round trips at the Persistence layer, warm recovery through a
// full ServiceEngine (snapshot-only, journal replay after a no-flush
// "crash", config mismatch), the StateAuditor's invariant checks, and a
// seeded corruption fuzzer over both file kinds — a damaged persist
// directory may cost warmth, never correctness or a crash.
#include "server/persist.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <stdlib.h>

#include "cache/policy.h"
#include "cache/store.h"
#include "net/estimator.h"
#include "server/engine.h"
#include "server/wire.h"
#include "sim/state_auditor.h"
#include "util/rng.h"
#include "workload/object_catalog.h"

namespace sc::server::persist {
namespace {

/// Fresh temp directory, removed (recursively) on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sc-persist-test-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<std::uint8_t> data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

// ----------------------------------------------------------------- crc

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, ChainsIncrementally) {
  const char* msg = "123456789";
  const std::uint32_t whole = crc32(msg, 9);
  const std::uint32_t part = crc32(msg + 4, 5, crc32(msg, 4));
  EXPECT_EQ(part, whole);
}

// ---------------------------------------------- persistence layer

SnapshotState sample_state() {
  SnapshotState state;
  state.objects = 8;
  state.seed = 7;
  state.policy_spec = "lru";
  state.estimator_spec = "oracle";
  state.capacity_bytes = 5000.0;
  state.engine_now_s = 12.5;
  state.store = {{1, 300.0}, {4, 700.0}};
  state.policy.freq = {0, 2, 0, 0, 5, 0, 0, 0};
  state.policy.heap = {{1, 0.25}, {4, 0.5}};
  state.policy.kernel = {3.0};  // the LRU blob: its logical clock
  state.estimator = {10.0, 20.0};
  return state;
}

TEST(Persistence, SnapshotRoundTripsEveryField) {
  TempDir dir;
  Persistence writer(PersistConfig{dir.path, 30.0});
  ASSERT_TRUE(writer.write_snapshot(sample_state()));
  EXPECT_EQ(writer.snapshots_written(), 1u);

  Persistence reader(PersistConfig{dir.path, 30.0});
  RecoveryInfo info;
  const auto got = reader.recover(&info);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(info.warm);
  const SnapshotState want = sample_state();
  EXPECT_EQ(got->objects, want.objects);
  EXPECT_EQ(got->seed, want.seed);
  EXPECT_EQ(got->policy_spec, want.policy_spec);
  EXPECT_EQ(got->estimator_spec, want.estimator_spec);
  EXPECT_DOUBLE_EQ(got->capacity_bytes, want.capacity_bytes);
  EXPECT_DOUBLE_EQ(got->engine_now_s, want.engine_now_s);
  EXPECT_EQ(got->store, want.store);
  EXPECT_EQ(got->policy.freq, want.policy.freq);
  EXPECT_EQ(got->policy.heap, want.policy.heap);
  EXPECT_EQ(got->policy.kernel, want.policy.kernel);
  EXPECT_EQ(got->estimator, want.estimator);
}

TEST(Persistence, JournalReplayIsLastWriterWins) {
  TempDir dir;
  {
    Persistence p(PersistConfig{dir.path, 30.0});
    ASSERT_TRUE(p.write_snapshot(sample_state()));
    // Object 4 shrinks twice (absolute values: the last one wins),
    // object 2 appears, object 1 is erased.
    p.append(JournalRecord{4, 500.0, 6.0, 0.4, true});
    p.append(JournalRecord{4, 400.0, 7.0, 0.3, true});
    p.append(JournalRecord{2, 100.0, 1.0, 0.9, true});
    p.append(JournalRecord{1, 0.0, 2.0, 0.0, false});
    EXPECT_EQ(p.records_appended(), 4u);
  }
  Persistence reader(PersistConfig{dir.path, 30.0});
  RecoveryInfo info;
  const auto got = reader.recover(&info);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(info.journal_records, 4u);
  const std::vector<std::pair<workload::ObjectId, double>> want_store = {
      {2, 100.0}, {4, 400.0}};
  EXPECT_EQ(got->store, want_store);
  EXPECT_DOUBLE_EQ(got->policy.freq.at(4), 7.0);
  EXPECT_DOUBLE_EQ(got->policy.freq.at(2), 1.0);
  const std::vector<std::pair<workload::ObjectId, double>> want_heap = {
      {2, 0.9}, {4, 0.3}};
  EXPECT_EQ(got->policy.heap, want_heap);
}

TEST(Persistence, TornJournalTailIsDiscarded) {
  TempDir dir;
  std::string journal;
  {
    Persistence p(PersistConfig{dir.path, 30.0});
    ASSERT_TRUE(p.write_snapshot(sample_state()));
    p.append(JournalRecord{2, 100.0, 1.0, 0.9, true});
    // write_snapshot rotated to the *other* slot before committing, so
    // the journal that replays on recovery pairs with the slot the
    // snapshot landed in.
    journal = p.journal_path(0);
    if (slurp(journal).empty()) journal = p.journal_path(1);
  }
  // A machine crash mid-append: garbage after the last intact record.
  auto bytes = slurp(journal);
  ASSERT_FALSE(bytes.empty());
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  spit(journal, bytes);

  Persistence reader(PersistConfig{dir.path, 30.0});
  RecoveryInfo info;
  const auto got = reader.recover(&info);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(info.journal_records, 1u);  // the intact prefix, nothing more
  EXPECT_DOUBLE_EQ(got->policy.freq.at(2), 1.0);
}

TEST(Persistence, CorruptSnapshotFallsBackToTheOtherSlot) {
  TempDir dir;
  Persistence writer(PersistConfig{dir.path, 30.0});
  SnapshotState first = sample_state();
  ASSERT_TRUE(writer.write_snapshot(first));  // sequence 1
  SnapshotState second = sample_state();
  second.store = {{5, 42.0}};
  second.policy.freq.assign(8, 0.0);
  second.policy.heap = {{5, 1.0}};
  ASSERT_TRUE(writer.write_snapshot(second));  // sequence 2, other slot

  // Find and corrupt the newer snapshot (the one carrying object 5).
  for (int slot = 0; slot < 2; ++slot) {
    auto bytes = slurp(writer.snapshot_path(slot));
    ASSERT_FALSE(bytes.empty());
    bool is_second = false;
    // Cheap discriminator: the second snapshot is the one whose store
    // has exactly one entry; flip a byte in the middle of each and see
    // which recovery sequence survives instead of parsing here.
    bytes[bytes.size() / 2] ^= 0xFF;
    spit(writer.snapshot_path(slot), bytes);
    Persistence reader(PersistConfig{dir.path, 30.0});
    RecoveryInfo info;
    const auto got = reader.recover(&info);
    ASSERT_TRUE(got.has_value());
    is_second = got->store == second.store;
    if (!is_second) {
      // We corrupted the newer slot: recovery fell back to the first.
      EXPECT_EQ(got->store, first.store);
      EXPECT_EQ(got->sequence, 1u);
      return;
    }
    // We corrupted the older slot; restore it and try the other.
    bytes[bytes.size() / 2] ^= 0xFF;
    spit(writer.snapshot_path(slot), bytes);
  }
  FAIL() << "corrupting either slot never forced a fallback";
}

TEST(Persistence, EmptyDirectoryIsAColdStart) {
  TempDir dir;
  Persistence p(PersistConfig{dir.path, 30.0});
  RecoveryInfo info;
  EXPECT_FALSE(p.recover(&info).has_value());
  EXPECT_FALSE(info.warm);
}

// --------------------------------------------- engine-level recovery

ServiceConfig persist_config(const std::string& dir) {
  ServiceConfig config;
  config.objects = 64;
  config.seed = 11;
  config.policy = "lru";
  config.estimator = "ewma";
  config.cache_fraction = 0.2;
  config.persist.dir = dir;
  config.persist.snapshot_interval_s = 1e9;  // only explicit flushes
  return config;
}

/// Serve offset-0 ranges for `objects` so admissions happen.
void load_engine(ServiceEngine& engine, std::size_t objects) {
  for (std::uint64_t id = 0; id < objects; ++id) {
    const std::uint64_t len =
        std::min<std::uint64_t>(engine.object_size(id), 4096);
    const ServeResult res = engine.serve_range(id, 0, len);
    ASSERT_EQ(res.status, wire::kOk);
  }
}

TEST(EngineRecovery, WarmStartAfterGracefulFlushRestoresTheCache) {
  TempDir dir;
  std::vector<std::uint64_t> cached(64, 0);
  {
    ServiceEngine engine(persist_config(dir.path));
    EXPECT_FALSE(engine.warm_start());
    load_engine(engine, 16);
    engine.flush_snapshot();
    for (std::uint64_t id = 0; id < 64; ++id) {
      cached[id] = engine.cached_bytes(id);
    }
  }
  ServiceEngine revived(persist_config(dir.path));
  EXPECT_TRUE(revived.warm_start()) << revived.recovery_detail();
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(revived.cached_bytes(id), cached[id]) << "object " << id;
  }
  EXPECT_TRUE(revived.audit().ok()) << revived.audit().to_string();
  EXPECT_TRUE(revived.snapshot().warm_start);
}

TEST(EngineRecovery, JournalAloneRecoversAfterACrashWithoutFlush) {
  TempDir dir;
  std::vector<std::uint64_t> cached(64, 0);
  {
    ServiceEngine engine(persist_config(dir.path));
    // The constructor wrote the (empty) baseline snapshot; everything
    // after lands in the journal only. No flush before destruction —
    // this is the SIGKILL case.
    load_engine(engine, 16);
    for (std::uint64_t id = 0; id < 64; ++id) {
      cached[id] = engine.cached_bytes(id);
    }
  }
  ServiceEngine revived(persist_config(dir.path));
  EXPECT_TRUE(revived.warm_start()) << revived.recovery_detail();
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(revived.cached_bytes(id), cached[id]) << "object " << id;
  }
  EXPECT_TRUE(revived.audit().ok()) << revived.audit().to_string();
}

TEST(EngineRecovery, ConfigMismatchForcesACleanColdStart) {
  TempDir dir;
  {
    ServiceEngine engine(persist_config(dir.path));
    load_engine(engine, 8);
    engine.flush_snapshot();
  }
  ServiceConfig other = persist_config(dir.path);
  other.policy = "pb";  // a pb daemon must not trust lru state
  ServiceEngine revived(other);
  EXPECT_FALSE(revived.warm_start());
  EXPECT_TRUE(revived.audit().ok());
  // And it serves fine from cold.
  const ServeResult res = revived.serve_range(0, 0, 1024);
  EXPECT_EQ(res.status, wire::kOk);
}

TEST(EngineRecovery, DisabledPersistenceIsInert) {
  ServiceConfig config = persist_config("");
  config.persist.dir.clear();
  ServiceEngine engine(config);
  load_engine(engine, 8);
  const ServiceStats stats = engine.snapshot();
  EXPECT_FALSE(stats.warm_start);
  EXPECT_EQ(stats.snapshots_written, 0u);
  EXPECT_EQ(stats.journal_records, 0u);
  EXPECT_NE(engine.stats_json().find("\"warm_start\": false"),
            std::string::npos);
}

TEST(EngineRecovery, CorruptionFuzzNeverCrashesAndAlwaysAudits) {
  // Whatever the damage — truncation or bit flips, snapshot or journal —
  // the engine must come up serving correct bytes: warm when the damage
  // spared a valid prefix, cold otherwise, crashed never.
  util::Rng rng(2026);
  for (int iter = 0; iter < 40; ++iter) {
    TempDir dir;
    {
      ServiceEngine engine(persist_config(dir.path));
      load_engine(engine, 12);
      engine.flush_snapshot();
      load_engine(engine, 24);  // post-snapshot journal tail
    }
    Persistence probe(PersistConfig{dir.path, 30.0});
    std::vector<std::string> files;
    for (int slot = 0; slot < 2; ++slot) {
      files.push_back(probe.snapshot_path(slot));
      files.push_back(probe.journal_path(slot));
    }
    // Damage 1-3 files per iteration.
    const int wounds = 1 + static_cast<int>(rng.uniform() * 3.0);
    for (int w = 0; w < wounds; ++w) {
      const auto& victim =
          files[static_cast<std::size_t>(rng.uniform() * 4.0) % 4];
      auto bytes = slurp(victim);
      if (bytes.empty()) continue;
      const auto pos =
          static_cast<std::size_t>(rng.uniform() *
                                   static_cast<double>(bytes.size()));
      if (rng.uniform() < 0.5) {
        bytes.resize(pos);  // truncate (torn write)
      } else {
        bytes[std::min(pos, bytes.size() - 1)] ^= 0xFF;  // bit rot
      }
      spit(victim, bytes);
    }
    ServiceEngine revived(persist_config(dir.path));
    const auto report = revived.audit();
    EXPECT_TRUE(report.ok())
        << "iter " << iter << ": " << report.to_string() << " ("
        << revived.recovery_detail() << ")";
    const ServeResult res = revived.serve_range(3, 0, 2048);
    EXPECT_EQ(res.status, wire::kOk) << "iter " << iter;
  }
}

// ------------------------------------------------- policy/estimator

/// Estimator with fixed per-path values (the test_policy idiom).
class FakeEstimator final : public net::BandwidthEstimator {
 public:
  explicit FakeEstimator(std::vector<double> values)
      : values_(std::move(values)) {}
  void observe(net::PathId, double, double) override {}
  double estimate(net::PathId path, double) override {
    return values_.at(path);
  }

 private:
  std::vector<double> values_;
};

workload::Catalog tiny_catalog(std::size_t n) {
  std::vector<workload::StreamObject> objects;
  for (std::size_t i = 0; i < n; ++i) {
    workload::StreamObject o;
    o.id = i;
    o.duration_s = 100.0;
    o.bitrate = 10.0;
    o.size_bytes = 1000.0;
    o.value = 1.0;
    o.path = i;
    objects.push_back(o);
  }
  return workload::Catalog::from_objects(std::move(objects));
}

TEST(PolicyState, LruSnapshotRoundTripsIncludingKernelRecency) {
  const auto catalog = tiny_catalog(4);
  FakeEstimator est({4.0, 4.0, 4.0, 4.0});
  cache::LruPolicy policy(catalog, est);
  cache::PartialStore store(10000.0);
  policy.on_access(1, 1.0, store);
  policy.on_access(2, 2.0, store);
  policy.on_access(1, 3.0, store);
  const cache::PolicySnapshot saved = policy.save_state();

  cache::LruPolicy other(catalog, est);
  ASSERT_TRUE(other.load_state(saved));
  const cache::PolicySnapshot reloaded = other.save_state();
  EXPECT_EQ(reloaded.freq, saved.freq);
  EXPECT_EQ(reloaded.heap, saved.heap);
  EXPECT_EQ(reloaded.kernel, saved.kernel);
  // The recovered policy agrees with the store it was saved against.
  EXPECT_TRUE(other.check_consistency(store, nullptr));
}

TEST(PolicyState, LruRestoredMidTraceEvictsInTheSameOrder) {
  // The restored recency index is rebuilt from id-ordered entries; it must
  // still pick the same victims as the instance it was saved from.
  constexpr std::size_t kObjects = 32;
  const auto catalog = tiny_catalog(kObjects);
  FakeEstimator est(std::vector<double>(kObjects, 4.0));
  cache::LruPolicy saved_policy(catalog, est);
  cache::PartialStore saved_store(8000.0);  // room for 8 objects
  util::Rng rng(17);
  const auto next_id = [&] {
    // Skewed draws so the trace mixes hits with evictions.
    const double u = rng.uniform();
    return static_cast<workload::ObjectId>(u * u * kObjects);
  };
  double now = 0.0;
  for (int i = 0; i < 500; ++i) {
    saved_policy.on_access(next_id(), now += 1.0, saved_store);
  }

  cache::LruPolicy restored(catalog, est);
  ASSERT_TRUE(restored.load_state(saved_policy.save_state()));
  cache::PartialStore restored_store(8000.0);
  for (const auto& [id, bytes] : saved_store.contents()) {
    restored_store.set_cached(id, bytes);
  }
  ASSERT_TRUE(restored.check_consistency(restored_store, nullptr));

  cache::StoreChangeLog saved_log;
  cache::StoreChangeLog restored_log;
  saved_store.set_change_log(&saved_log);
  restored_store.set_change_log(&restored_log);
  std::size_t evictions = 0;
  for (int i = 0; i < 3000; ++i) {
    const workload::ObjectId id = next_id();
    now += 1.0;
    saved_policy.on_access(id, now, saved_store);
    restored.on_access(id, now, restored_store);
    ASSERT_EQ(saved_log.size(), restored_log.size()) << "access " << i;
  }
  ASSERT_EQ(saved_log.size(), restored_log.size());
  for (std::size_t k = 0; k < saved_log.size(); ++k) {
    EXPECT_EQ(saved_log[k].id, restored_log[k].id) << "change " << k;
    EXPECT_EQ(saved_log[k].bytes, restored_log[k].bytes) << "change " << k;
    if (saved_log[k].bytes == 0.0) ++evictions;
  }
  EXPECT_GT(evictions, 100u);
  EXPECT_EQ(restored.save_state().heap, saved_policy.save_state().heap);
}

TEST(PolicyState, MalformedSnapshotsAreRejectedNotApplied) {
  const auto catalog = tiny_catalog(4);
  FakeEstimator est({4.0, 4.0, 4.0, 4.0});
  cache::LruPolicy policy(catalog, est);
  cache::PartialStore store(10000.0);
  policy.on_access(0, 1.0, store);
  const cache::PolicySnapshot good = policy.save_state();

  cache::LruPolicy target(catalog, est);
  cache::PolicySnapshot bad = good;
  bad.freq.resize(2);  // wrong shape
  EXPECT_FALSE(target.load_state(bad));
  bad = good;
  bad.heap.push_back({99, 1.0});  // id out of range
  EXPECT_FALSE(target.load_state(bad));
  bad = good;
  bad.kernel.clear();  // LRU kernel blob must carry the clock
  EXPECT_FALSE(target.load_state(bad));
  bad = good;
  // The older {clock, recency per object} layout degrades to a cold
  // start rather than being half-applied.
  bad.kernel.assign(1 + catalog.size(), 1.0);
  EXPECT_FALSE(target.load_state(bad));
  // After every rejection the target still loads the good state.
  EXPECT_TRUE(target.load_state(good));
}

TEST(EstimatorState, KernelsRoundTripAndRejectWrongShapes) {
  net::PassiveEwmaEstimator ewma(3, 0.2, 50.0);
  ewma.observe(1, 80.0, 0.0);
  const auto blob = ewma.save_state();
  net::PassiveEwmaEstimator other(3, 0.2, 50.0);
  ASSERT_TRUE(other.load_state(blob));
  EXPECT_DOUBLE_EQ(other.estimate(1, 0.0), ewma.estimate(1, 0.0));
  EXPECT_FALSE(other.load_state(std::vector<double>(2, 1.0)));

  net::LastSampleEstimator last(2, 10.0);
  last.observe(0, 30.0, 0.0);
  net::LastSampleEstimator last2(2, 10.0);
  ASSERT_TRUE(last2.load_state(last.save_state()));
  EXPECT_DOUBLE_EQ(last2.estimate(0, 0.0), 30.0);
}

// ------------------------------------------------------- auditor

TEST(StateAuditor, CleanStateAuditsClean) {
  cache::PartialStore store(1000.0);
  store.set_cached(1, 200.0);
  store.set_cached(2, 300.0);
  const auto report = sim::StateAuditor::audit(store);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(StateAuditor, DetectsAPolicyIndexDesync) {
  const auto catalog = tiny_catalog(4);
  FakeEstimator est({4.0, 4.0, 4.0, 4.0});
  cache::LruPolicy policy(catalog, est);
  cache::PartialStore store(10000.0);
  policy.on_access(1, 1.0, store);
  EXPECT_TRUE(sim::StateAuditor::audit(store, &policy).ok());
  // Mutate the store behind the policy's back: the index now tracks an
  // id set the store does not have.
  store.set_cached(3, 500.0);
  const auto report = sim::StateAuditor::audit(store, &policy);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_json().find("\"ok\": false"), std::string::npos);
}

TEST(StateAuditor, ReportSerializesToJson) {
  cache::PartialStore store(100.0);
  const auto report = sim::StateAuditor::audit(store);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"checks\":"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": []"), std::string::npos);
}

}  // namespace
}  // namespace sc::server::persist
