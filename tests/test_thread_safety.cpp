// Regression tests for the locking contracts hardened by the
// thread-safety annotation sweep (src/common/thread_safety.h; DESIGN.md
// "Concurrency & locking policy"). Each test pins a behavior that an
// off-lock access could silently break and that clang's capability
// analysis now rejects at compile time:
//
//   * WorkerPool shutdown ordering — shutdown() (what the destructor
//     runs) racing submitters, the 0-thread inline mode, and concurrent
//     double-shutdown idempotence under join_mutex_;
//   * the distrust latch — N threads feeding one Auditor the same
//     equivocation evidence converge on exactly ONE kEquivocation
//     transition, and N threads driving ResilientClient::sync() against
//     an equivocating provider bump the distrusted counter exactly once;
//   * OprfServer read accessors (key_commitment / epoch / serves /
//     entry_count) and limiter maintenance, which used to touch guarded
//     state without the lock, stay coherent under concurrent rotation
//     and maintenance;
//   * OprfServer build-then-install maintenance — a query issued
//     mid-rotation is answered from the old epoch before the rotation
//     returns, adds racing rotations are never lost, the split keeps
//     the published bytes of the old in-lock rebuild, and each op
//     reports exactly one exclusive-lock hold time.
//
// Designed to run under the TSan CI stage (scripts/ci.sh, stage 6).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "exec/worker_pool.h"
#include "hash/sha256.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "tlog/tlog.h"

namespace cbl {
namespace {

using net::Freshness;
using net::ResilienceConfig;
using net::ResilientClient;

double counter_value(const char* name, obs::Labels labels) {
  return obs::MetricsRegistry::global()
      .counter(name, std::move(labels))
      .value();
}

// ------------------------------------------------- WorkerPool shutdown

TEST(WorkerPoolShutdown, ShutdownRacesSubmitters) {
  exec::WorkerPool pool({.threads = 3, .name = "ts-race"});

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> accepted{0};
  std::atomic<int> executed{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        if (pool.try_submit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }

  go.store(true);
  // Stop the pool mid-storm: this is the destructor's body racing the
  // enqueue path. Late submits must fail cleanly, accepted work must
  // still run to completion before shutdown returns.
  pool.shutdown();
  for (auto& th : submitters) th.join();
  // Any task accepted after shutdown() returned would be lost work, and
  // shutdown() already joined the workers — so by here the two counters
  // must reconcile exactly. Stragglers that raced the flag flip got
  // `false` back and are in neither count.
  pool.shutdown();  // idempotent: second call must be a no-op
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(WorkerPoolShutdown, ZeroThreadPoolRunsInline) {
  exec::WorkerPool pool;  // Options defaults: threads = 0
  EXPECT_EQ(pool.threads(), 0u);

  int ran = 0;
  EXPECT_TRUE(pool.submit([&] { ++ran; }));
  EXPECT_EQ(ran, 1);  // ran on the caller, synchronously
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_TRUE(pool.try_submit([&] { ++ran; }));
  EXPECT_EQ(ran, 2);
  pool.drain();  // nothing queued: returns immediately

  pool.shutdown();
  EXPECT_FALSE(pool.submit([&] { ++ran; }));
  EXPECT_FALSE(pool.try_submit([&] { ++ran; }));
  EXPECT_EQ(ran, 2);  // refused work never runs
}

TEST(WorkerPoolShutdown, ConcurrentShutdownIsIdempotent) {
  std::optional<exec::WorkerPool> pool;
  pool.emplace(exec::WorkerPool::Options{.threads = 2, .name = "ts-dshut"});

  std::atomic<int> executed{0};
  int queued = 0;
  for (int i = 0; i < 64; ++i) {
    if (pool->try_submit([&] { executed.fetch_add(1); })) ++queued;
  }

  // Several threads race the full shutdown path (flag flip under
  // mutex_, join loop under join_mutex_). Exactly one join per worker
  // may happen; every queued task still runs.
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] { pool->shutdown(); });
  }
  for (auto& th : stoppers) th.join();
  EXPECT_EQ(executed.load(), queued);
  EXPECT_FALSE(pool->submit([] {}));
  pool.reset();  // destructor runs shutdown() one more time: still a no-op
}

// ---------------------------------------------------- distrust latch

TEST(DistrustLatch, AuditorConvergesOnOneEquivocation) {
  using tlog::Auditor;
  const std::string endpoint = "ts-auditor-latch";
  auto rng = ChaChaRng::from_string_seed("ts-auditor-latch");
  const auto key = nizk::SigningKey::generate(rng);
  Auditor auditor(key.pk, endpoint);

  tlog::Digest root{};
  root[0] = 0x5a;
  const auto honest = tlog::sign_checkpoint(key, 5, root, 1, rng);
  ASSERT_EQ(auditor.observe_checkpoint(honest, nullptr), Auditor::Status::kOk);

  auto other_root = root;
  other_root[7] ^= 0x20;  // same tree size, different signed root
  const auto forged = tlog::sign_checkpoint(key, 5, other_root, 1, rng);

  const auto equiv_before = counter_value("cbl_tlog_equivocations_total",
                                          {{"endpoint", endpoint}});
  const auto audit_equiv_before = counter_value(
      "cbl_tlog_audit_total",
      {{"endpoint", endpoint}, {"result", "equivocation"}});
  const auto audit_distrusted_before = counter_value(
      "cbl_tlog_audit_total",
      {{"endpoint", endpoint}, {"result", "distrusted"}});

  constexpr int kThreads = 8;
  std::vector<Auditor::Status> statuses(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([&, t] {
      while (!go.load()) {
      }
      statuses[static_cast<std::size_t>(t)] =
          auditor.observe_checkpoint(forged, nullptr);
    });
  }
  go.store(true);
  for (auto& th : observers) th.join();

  // Exactly one thread witnesses the equivocation transition; everyone
  // who arrives after the latch gets the sticky kDistrusted refusal.
  int equivocations = 0;
  int distrusted = 0;
  for (const auto status : statuses) {
    if (status == Auditor::Status::kEquivocation) ++equivocations;
    if (status == Auditor::Status::kDistrusted) ++distrusted;
  }
  EXPECT_EQ(equivocations, 1);
  EXPECT_EQ(distrusted, kThreads - 1);
  EXPECT_FALSE(auditor.trusted());

  // The counters reconcile with the transition count, not the caller
  // count: one equivocation, N-1 distrusted refusals.
  EXPECT_EQ(counter_value("cbl_tlog_equivocations_total",
                          {{"endpoint", endpoint}}) -
                equiv_before,
            1.0);
  EXPECT_EQ(counter_value("cbl_tlog_audit_total", {{"endpoint", endpoint},
                                                   {"result", "equivocation"}}) -
                audit_equiv_before,
            1.0);
  EXPECT_EQ(counter_value("cbl_tlog_audit_total", {{"endpoint", endpoint},
                                                   {"result", "distrusted"}}) -
                audit_distrusted_before,
            static_cast<double>(kThreads - 1));
}

TEST(DistrustLatch, ResilientClientCountsOneDistrustUnderConcurrentSyncs) {
  const std::string endpoint = "ts-client-latch";
  obs::ManualClock clock;
  obs::MetricsRegistry::global().set_clock(&clock);

  auto corpus_rng = ChaChaRng::from_string_seed("ts-latch-corpus");
  auto server_rng = ChaChaRng::from_string_seed("ts-latch-server");
  auto key_rng = ChaChaRng::from_string_seed("ts-latch-key");
  auto pub_rng = ChaChaRng::from_string_seed("ts-latch-pub");
  auto transport_rng = ChaChaRng::from_string_seed("ts-latch-trans");
  auto client_rng = ChaChaRng::from_string_seed("ts-latch-client");

  const auto corpus = blocklist::generate_corpus(40, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  net::Transport transport(net::TransportConfig{.latency_ms_min = 0.5,
                                                .latency_ms_max = 1.0,
                                                .drop_rate = 0.0},
                           transport_rng);
  auto node = std::make_optional<net::BlocklistServiceNode>(
      transport, endpoint, server, oprf::Oracle::fast(), net::NodeLimits(),
      nullptr, &publisher);

  ResilienceConfig config;
  config.hedge_after_ms = 0.0;  // single provider
  ResilientClient client(transport, {endpoint}, client_rng, config, &clock);
  client.pin_tlog_key(endpoint, key.pk);

  const auto distrusted_before =
      counter_value("cbl_tlog_providers_distrusted_total", {});

  // One honest verified sync establishes the checkpoint to equivocate
  // against.
  ASSERT_EQ(client.sync(), 1u);
  ASSERT_FALSE(client.distrusted(endpoint));
  const tlog::Auditor* auditor = client.tlog_auditor(endpoint);
  ASSERT_NE(auditor, nullptr);
  const auto latest = auditor->latest_checkpoint();
  ASSERT_TRUE(latest.has_value());

  // The provider turns equivocator: same tree size, different signed
  // root, served to every checkpoint fetch.
  auto other_root = latest->root;
  other_root[7] ^= 0x20;
  const auto forged = tlog::sign_checkpoint(key, latest->tree_size,
                                            other_root, latest->epoch,
                                            pub_rng);
  node.reset();
  transport.register_endpoint(
      endpoint, [&forged](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kTlogCheckpoint) {
          return net::encode_response_frame(net::Status::kOk,
                                            forged.to_bytes());
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  // N threads observe the same evidence through sync(); the per-provider
  // latch must admit exactly one kDistrusted transition.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> syncers;
  for (int t = 0; t < kThreads; ++t) {
    syncers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 3; ++i) (void)client.sync();
    });
  }
  go.store(true);
  for (auto& th : syncers) th.join();

  EXPECT_TRUE(client.distrusted(endpoint));
  EXPECT_EQ(counter_value("cbl_tlog_providers_distrusted_total", {}) -
                distrusted_before,
            1.0);
  // Condemned means off the wire entirely.
  EXPECT_EQ(client.sync(), 0u);
  const auto out = client.query(corpus[0]);
  EXPECT_NE(out.freshness, Freshness::kFresh);

  obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
}

// ----------------------------------------- OprfServer off-lock fixes

TEST(OprfServerLocking, AccessorsStayCoherentUnderRotation) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-rot-corpus");
  const auto corpus = blocklist::generate_corpus(60, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("ts-rot-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  // The rotator is the only writer, so the set of commitments ever
  // published is exactly what it records; a torn or off-lock read in
  // key_commitment() would surface as a value outside this set.
  constexpr int kRotations = 8;
  std::set<ec::RistrettoPoint::Encoding> published;
  published.insert(server.key_commitment().encode());

  std::atomic<bool> stop{false};
  std::atomic<int> bad_commitments{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::vector<ec::RistrettoPoint::Encoding>> seen(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      while (!stop.load()) {
        seen[static_cast<std::size_t>(t)].push_back(
            server.key_commitment().encode());
        const auto epoch = server.epoch();
        if (epoch < last_epoch) ++bad_reads;  // epochs only move forward
        last_epoch = epoch;
        if (!server.serves(corpus[static_cast<std::size_t>(t)])) ++bad_reads;
        if (server.entry_count() != corpus.size()) ++bad_reads;
      }
    });
  }
  for (int i = 0; i < kRotations; ++i) {
    server.rotate_key();
    published.insert(server.key_commitment().encode());
    // Exercise the now-locked metadata-provider setter against the
    // same reader storm (it takes the exclusive data lock).
    server.set_metadata_provider(
        i % 2 == 0 ? oprf::MetadataProvider(nullptr)
                   : oprf::MetadataProvider(
                         [](const std::string&) { return Bytes{0x01}; }));
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  for (const auto& observed : seen) {
    for (const auto& encoding : observed) {
      if (!published.contains(encoding)) ++bad_commitments;
    }
  }
  EXPECT_EQ(bad_commitments.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(published.size(), kRotations + 1u);
}

TEST(OprfServerLocking, LimiterMaintenanceRacesQueries) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-lim-corpus");
  const auto corpus = blocklist::generate_corpus(50, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("ts-lim-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  const std::string api_key = "wallet-key";
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> served{0};

  // Maintenance thread exercises every limiter entry point that used to
  // mutate limiter state off-lock: the on-switch, authorization churn,
  // and window turnover.
  std::thread maintenance([&] {
    for (int round = 0; round < 40; ++round) {
      server.enable_rate_limiting(1u << 20);
      server.authorize_key(api_key);
      server.advance_window();
      server.revoke_key(api_key);
      server.authorize_key(api_key);
    }
    stop.store(true);
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto rng =
          ChaChaRng::from_string_seed("ts-lim-client-" + std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 20) {
        const auto& target = corpus[static_cast<std::size_t>(
            (t * 17 + q) % static_cast<int>(corpus.size()))];
        auto prepared = client.prepare(target);
        prepared.request.api_key = api_key;
        try {
          const auto response = server.handle(prepared.request);
          if (!client.finish(prepared.pending, response).listed) ++wrong;
          ++served;
        } catch (const ProtocolError&) {
          // Raced a revoke window: an honest refusal, never a wrong
          // verdict.
        }
        ++q;
        if (q > 400) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : clients) th.join();
  EXPECT_EQ(wrong.load(), 0);

  // Post-churn determinism: the key ended authorized, so a query must
  // be served, and a revoked key must be refused.
  auto rng = ChaChaRng::from_string_seed("ts-lim-final");
  oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
  auto prepared = client.prepare(corpus[0]);
  prepared.request.api_key = api_key;
  EXPECT_TRUE(client.finish(prepared.pending, server.handle(prepared.request))
                  .listed);
  server.revoke_key(api_key);
  auto refused = client.prepare(corpus[0]);
  refused.request.api_key = api_key;
  EXPECT_THROW((void)server.handle(refused.request), ProtocolError);
}

// ------------------------------------- OprfServer build-then-install

// Forwards to a seeded ChaCha stream and raises `drawn` on the first
// draw after arm(): the first thing a key rotation does is sample its
// fresh mask, so the flag says "the rotation has started".
class SignallingRng : public Rng {
 public:
  explicit SignallingRng(std::string_view seed)
      : inner_(ChaChaRng::from_string_seed(seed)) {}
  void fill(std::uint8_t* out, std::size_t len) override {
    inner_.fill(out, len);
    if (armed_.load()) drawn_.store(true);
  }
  void arm() { armed_.store(true); }
  bool drawn() const { return drawn_.load(); }

 private:
  ChaChaRng inner_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> drawn_{false};
};

std::vector<std::string> numbered(std::string_view stem, std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::string(stem) + std::to_string(i));
  }
  return out;
}

// A rotation builds its tables outside the exclusive lock, so a query
// issued once the rotation has started is answered from the old epoch
// while the build is still running — and that answer is whole: the
// evaluation proof verifies against the old commitment and the bucket
// decides membership under the old mask.
TEST(OprfServerLocking, QueryDuringRotationIsAnsweredFromTheOldEpoch) {
  const auto entries = numbered("rotation-entry-", 20000);
  SignallingRng server_rng("ts-split-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 8, server_rng);
  server.setup(entries, 4);
  const std::uint64_t old_epoch = server.epoch();

  auto client_rng = ChaChaRng::from_string_seed("ts-split-client");
  oprf::OprfClient client(oprf::Oracle::fast(), 8, client_rng);
  client.pin_key_commitment(server.key_commitment());
  const auto prepared = client.prepare(entries[4321]);

  std::atomic<bool> rotated{false};
  server_rng.arm();
  std::thread rotator([&] {
    server.rotate_key(1);
    rotated.store(true);
  });
  while (!server_rng.drawn()) std::this_thread::yield();
  const auto response = server.handle(prepared.request);
  const bool answered_mid_rotation = !rotated.load();
  rotator.join();

  EXPECT_TRUE(answered_mid_rotation)
      << "handle() waited for the whole rotation";
  EXPECT_EQ(response.epoch, old_epoch);
  EXPECT_TRUE(client.finish(prepared.pending, response).listed);
  EXPECT_EQ(server.epoch(), old_epoch + 1);
}

// The writer mutex serialises maintenance: an add_entries that lands
// while a rotation is building must survive the rotation's install. The
// adder keeps going until the last rotation has returned, so some adds
// always contend with a rotation in flight; it pauses between batches so
// it cannot starve the rotator of the writer mutex.
TEST(OprfServerLocking, AddsRacingRotationAreNotLost) {
  const auto base = numbered("base-entry-", 2000);
  auto server_rng = ChaChaRng::from_string_seed("ts-race-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(base, 2);

  constexpr int kRotations = 3;
  constexpr std::size_t kBatchSize = 5;
  std::atomic<bool> rotating{true};
  std::thread rotator([&] {
    for (int i = 0; i < kRotations; ++i) server.rotate_key(2);
    rotating.store(false);
  });
  std::vector<std::vector<std::string>> batches;
  std::size_t added_count = 0;
  while (rotating.load() || batches.size() < 10) {
    batches.push_back(
        numbered("added-" + std::to_string(batches.size()) + "-", kBatchSize));
    added_count += server.add_entries(batches.back());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rotator.join();

  // A lost add would still be in entry_index_ (rotations keep it) but
  // missing from the buckets, so count what the buckets hold.
  const std::size_t expected = base.size() + batches.size() * kBatchSize;
  EXPECT_EQ(added_count, batches.size() * kBatchSize);
  EXPECT_EQ(server.entry_count(), expected);
  std::size_t bucketed = 0;
  for (const std::size_t n : server.bucket_sizes()) bucketed += n;
  EXPECT_EQ(bucketed, expected);
  EXPECT_EQ(server.epoch(), 1u + kRotations + batches.size());
  auto client_rng = ChaChaRng::from_string_seed("ts-race-client");
  oprf::OprfClient client(oprf::Oracle::fast(), 6, client_rng);
  for (const auto& batch : batches) {
    for (const auto& entry : batch) EXPECT_TRUE(server.serves(entry)) << entry;
    const auto p = client.prepare(batch.back());
    EXPECT_TRUE(client.finish(p.pending, server.handle(p.request)).listed)
        << batch.back();
  }
}

// Fixed-seed golden over the published tables after a full maintenance
// sequence. The hash was captured from the in-lock rebuild that predates
// the build-then-install split; the split must produce identical bytes.
TEST(OprfServerLocking, MaintenanceSequenceBytesAreUnchanged) {
  constexpr const char* kGolden =
      "bd5ad26aea29d1901b85942e78f85a17be2ebac949af1b2692bffb245733ebb8";
  auto corpus_rng = ChaChaRng::from_string_seed("ts-golden-corpus");
  const auto corpus = blocklist::generate_corpus(300, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("ts-golden-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);

  server.setup(std::span(corpus).first(250), 2);
  server.rotate_key(3);
  EXPECT_EQ(server.add_entries(std::span(corpus).subspan(250)), 50u);
  std::vector<std::string> gone;
  for (std::size_t i = 0; i < 40; i += 3) gone.push_back(corpus[i]);
  EXPECT_EQ(server.remove_entries(gone), gone.size());
  EXPECT_EQ(server.epoch(), 4u);

  hash::Sha256 h;
  for (const auto& [prefix, bucket] : server.bucket_snapshot()) {
    std::uint8_t head[8];
    store_le32(head, prefix);
    store_le32(head + 4, static_cast<std::uint32_t>(bucket.size()));
    h.update(ByteView(head, sizeof head));
    for (const auto& encoding : bucket) h.update(encoding);
  }
  h.update(server.key_commitment().encode());
  EXPECT_EQ(to_hex(h.finalize()), kGolden);
}

// Every maintenance op that changes the tables holds the exclusive lock
// exactly once, and says so in cbl_oprf_write_lock_ms{op}; a no-op
// add/remove never takes it.
TEST(OprfServerLocking, EachWriterObservesOneWriteLockSample) {
  auto& registry = obs::MetricsRegistry::global();
  const auto samples = [&](const std::string& name, obs::Labels labels) {
    return registry
        .histogram(name, obs::Histogram::default_latency_ms_buckets(),
                   std::move(labels))
        .count();
  };
  const char* const ops[] = {"setup", "rotate", "add", "remove"};
  std::map<std::string, std::uint64_t> seen;
  for (const char* op : ops) {
    seen[op] = samples("cbl_oprf_write_lock_ms", {{"op", op}});
  }
  // Since the last call, `op` gained exactly one sample and every other
  // op none (nullptr: no op gained any).
  const auto expect_only = [&](const char* op) {
    for (const char* other : ops) {
      const auto now = samples("cbl_oprf_write_lock_ms", {{"op", other}});
      const bool expected = op != nullptr && std::string(op) == other;
      EXPECT_EQ(now - seen[other], expected ? 1u : 0u)
          << "op=" << other << " after " << (op ? op : "no-op");
      seen[other] = now;
    }
  };
  const auto builds0 = samples("cbl_oprf_rebuild_ms", {});

  auto server_rng = ChaChaRng::from_string_seed("ts-hist-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(numbered("hist-entry-", 40));
  expect_only("setup");
  server.rotate_key();
  expect_only("rotate");
  const std::vector<std::string> extra = {"hist-extra"};
  ASSERT_EQ(server.add_entries(extra), 1u);
  expect_only("add");
  ASSERT_EQ(server.remove_entries(extra), 1u);
  expect_only("remove");
  EXPECT_EQ(samples("cbl_oprf_rebuild_ms", {}) - builds0, 2u);

  // Nothing to add or remove: no exclusive section at all.
  ASSERT_EQ(server.add_entries(std::vector<std::string>{"hist-entry-0"}), 0u);
  ASSERT_EQ(server.remove_entries(extra), 0u);
  expect_only(nullptr);
}

}  // namespace
}  // namespace cbl
