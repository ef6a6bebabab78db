// Self-tests for the benchmark's own code: quantiles against a
// brute-force sort, seed-determined schedules, span self-time
// arithmetic on a synthetic tree, and the pass-through wrappers (a run
// through them gives the same verdicts, bytes and files as one without).
//
//   wallbench_selftest        exits 0 when every check passes
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "net/resilient_client.h"
#include "net/service_node.h"
#include "oprf/server.h"
#include "schedule.h"
#include "stats.h"
#include "store/state_store.h"
#include "trace.h"
#include "wrappers.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++failures;                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
    }                                                                \
  } while (0)

using namespace wallbench;

/// Quantile by full sort, the textbook way.
double sorted_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void test_quantiles() {
  auto rng = seeded_rng(7, "selftest/quantiles");
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u}) {
    std::vector<double> values(n);
    for (auto& v : values) v = static_cast<double>(rng.uniform(1000)) / 7.0;
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      CHECK(std::abs(quantile_of(values, q) - sorted_quantile(values, q)) <
            1e-9);
    }
  }
  // Ties and a constant sample.
  CHECK(quantile_of({5, 5, 5, 5}, 0.99) == 5.0);
  CHECK(quantile_of({}, 0.5) == 0.0);
  CHECK(quantile_of({1, 2}, 0.5) == 1.5);
  // Tail rule: ten samples beyond, at most p99, at least p50.
  CHECK(tail_q(1000) == 0.99);
  CHECK(tail_q(5000) == 0.99);
  CHECK(std::abs(tail_q(50) - 0.8) < 1e-12);
  CHECK(tail_q(12) == 0.5);
}

void test_schedules() {
  cbl::load::WorkloadConfig config;
  config.unique_addresses = 512;
  config.listed_addresses = 64;
  const Corpus a(config, 64, 42);
  const Corpus b(config, 64, 42);
  const Corpus c(config, 64, 43);
  CHECK(a.churn_begin() == 512);
  CHECK(a.listed().size() == 64);
  bool same = true;
  bool other = false;
  for (std::uint32_t id = 0; id < 512 + 64; ++id) {
    same = same && a.address(id) == b.address(id);
    other = other || a.address(id) != c.address(id);
  }
  CHECK(same);
  CHECK(other);
  CHECK(a.listed()[0] == a.address(0));

  UpdateConfig updates;
  updates.count = 10;
  updates.interval_ns = 1'000'000;
  updates.rotate_every = 5;
  const UpdatePlan ua = plan_updates(a, updates, 42);
  const UpdatePlan ub = plan_updates(b, updates, 42);
  CHECK(ua.updates.size() == 10);
  CHECK(ua.add_due_ns == ub.add_due_ns);
  CHECK(ua.add_version == ub.add_version);
  CHECK(ua.add_version.size() == ua.add_due_ns.size());
  for (std::size_t i = 0; i < ua.updates.size(); ++i) {
    CHECK(ua.updates[i].add == ub.updates[i].add);
    CHECK(ua.updates[i].remove == ub.updates[i].remove);
    CHECK(ua.updates[i].due_ns == ub.updates[i].due_ns);
  }
  CHECK(ua.updates[4].kind == Update::Kind::kRotate);
  // Ground truth follows the plan: an added address is listed from its
  // update's version on, a removed one stops being listed.
  const std::uint32_t added = ua.updates[0].add.front();
  CHECK(!ua.truth.listed_at(added, 0));
  CHECK(ua.truth.listed_at(added, 1));
  const std::uint32_t removed = ua.updates[0].remove.front();
  CHECK(ua.truth.listed_at(removed, 0));
  CHECK(!ua.truth.listed_at(removed, 1));
  CHECK(ua.truth.matches_some(added, false, 0, 1));
  CHECK(!ua.truth.matches_some(added, false, 1, 3));

  TrafficConfig traffic;
  traffic.churn_share = 0.3;
  traffic.churn_recent = 16;
  traffic.churn_margin_ns = 3'000'000;
  traffic.add_due_ns = ua.add_due_ns;
  traffic.add_version = ua.add_version;
  const LevelPlan pa = plan_level(a, traffic, 1000, 500, 3, 42, 0, 1);
  const LevelPlan pb = plan_level(b, traffic, 1000, 500, 3, 42, 0, 1);
  const LevelPlan pc = plan_level(a, traffic, 1000, 500, 3, 43, 0, 1);
  CHECK(pa.per_worker.size() == 3);
  std::size_t total = 0;
  std::size_t churn_queries = 0;
  bool differs = false;
  for (std::size_t w = 0; w < 3; ++w) {
    total += pa.per_worker[w].size();
    CHECK(pa.per_worker[w].size() == pb.per_worker[w].size());
    for (std::size_t i = 0; i < pa.per_worker[w].size(); ++i) {
      CHECK(pa.per_worker[w][i].due_ns == pb.per_worker[w][i].due_ns);
      CHECK(pa.per_worker[w][i].address == pb.per_worker[w][i].address);
      if (i < pc.per_worker[w].size() &&
          pa.per_worker[w][i].address != pc.per_worker[w][i].address) {
        differs = true;
      }
      // A churn address is only chosen once its add has been due for the
      // margin, only among the churn_recent latest such adds, and the
      // query waits for the version that adds it.
      const PlannedQuery& q = pa.per_worker[w][i];
      if (q.address >= a.churn_begin()) {
        const std::size_t pool_index = q.address - a.churn_begin();
        const auto added = static_cast<std::size_t>(
            std::upper_bound(ua.add_due_ns.begin(), ua.add_due_ns.end(),
                             q.due_ns - traffic.churn_margin_ns) -
            ua.add_due_ns.begin());
        CHECK(pool_index < added);
        CHECK(pool_index + traffic.churn_recent >= added);
        CHECK(q.after_version == ua.add_version[pool_index]);
        CHECK(ua.truth.listed_at(q.address, q.after_version));
        ++churn_queries;
      } else {
        CHECK(q.after_version == 0);
      }
    }
  }
  CHECK(total == 500);
  CHECK(churn_queries > 100);
  CHECK(differs);
}

void test_self_times() {
  // root [0,100]; a [10,40] with child [15,20]; b [30,60] overlapping a;
  // c [90,120] sticking out of root.
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100},  {2, 1, 7, "a", 10, 40},
      {3, 2, 7, "a.x", 15, 20},   {4, 1, 7, "b", 30, 60},
      {5, 1, 7, "c", 90, 120},
  };
  const auto self = self_times(spans);
  CHECK(self.at(1) == 100 - 50 - 10);  // children cover [10,60] and [90,100]
  CHECK(self.at(2) == 30 - 5);
  CHECK(self.at(3) == 5);
  CHECK(self.at(4) == 30);
  CHECK(self.at(5) == 30);

  // SpanLog builds parent links and inherits the request id.
  SpanLog log(3);
  log.open("outer", 99, 0);
  log.open("inner", 0, 10);
  log.add("leaf", 12, 14);
  log.close(20);
  log.close(30);
  const auto& recorded = log.spans();
  CHECK(recorded.size() == 3);
  CHECK(recorded[0].parent == 0);
  CHECK(recorded[1].parent == recorded[0].id);
  CHECK(recorded[2].parent == recorded[1].id);
  CHECK(recorded[2].request == 99);
  const auto log_self = self_times(recorded);
  CHECK(log_self.at(recorded[0].id) == 20);
  CHECK(log_self.at(recorded[1].id) == 8);
}

struct WrapperRun {
  std::vector<int> verdicts;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t counted_bytes = 0;
};

/// One client session over a small service, with or without the
/// channel wrapper in between.
WrapperRun run_service(bool wrapped) {
  cbl::load::WorkloadConfig config;
  config.unique_addresses = 1024;
  config.listed_addresses = 300;
  const Corpus corpus(config, 0, 5);
  auto server_rng = seeded_rng(5, "selftest/server");
  auto transport_rng = seeded_rng(5, "selftest/transport");
  auto client_rng = seeded_rng(5, "selftest/client");
  cbl::oprf::OprfServer server(cbl::oprf::Oracle::fast(), 6, server_rng);
  server.setup(corpus.listed());
  cbl::net::Transport transport(cbl::net::TransportConfig{}, transport_rng);
  cbl::net::BlocklistServiceNode node(transport, "svc", server,
                                      cbl::oprf::Oracle::fast());
  TracingChannel channel(transport);
  cbl::net::Channel& used =
      wrapped ? static_cast<cbl::net::Channel&>(channel) : transport;
  cbl::net::ResilientClient client(used, {"svc"}, client_rng);
  WrapperRun run;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto outcome = client.query(corpus.address((i * 7) % 600));
    run.verdicts.push_back(static_cast<int>(outcome.verdict) * 10 +
                           static_cast<int>(outcome.freshness));
  }
  run.bytes_sent = transport.stats().bytes_sent;
  run.bytes_received = transport.stats().bytes_received;
  run.counted_bytes = channel.queries().request_bytes +
                      channel.queries().response_bytes +
                      channel.other().request_bytes +
                      channel.other().response_bytes;
  return run;
}

void test_channel_wrapper() {
  const WrapperRun bare = run_service(false);
  const WrapperRun wrapped = run_service(true);
  CHECK(bare.verdicts == wrapped.verdicts);
  CHECK(bare.bytes_sent == wrapped.bytes_sent);
  CHECK(bare.bytes_received == wrapped.bytes_received);
  CHECK(wrapped.counted_bytes == wrapped.bytes_sent + wrapped.bytes_received);
}

/// A store session: appends, a checkpoint, more appends, then a reload.
std::vector<std::string> run_store(cbl::store::Fs& fs) {
  std::vector<std::string> out;
  cbl::store::StateStore store(fs, "s");
  out.push_back(std::to_string(store.load().records.size()));
  for (int i = 0; i < 5; ++i) {
    const std::string record = "record-" + std::to_string(i);
    out.push_back(std::to_string(store.append(cbl::ByteView(
        reinterpret_cast<const std::uint8_t*>(record.data()), record.size()))));
  }
  const std::string snap = "snapshot";
  out.push_back(std::to_string(store.checkpoint(cbl::ByteView(
      reinterpret_cast<const std::uint8_t*>(snap.data()), snap.size()))));
  out.push_back(std::to_string(store.append(cbl::ByteView(
      reinterpret_cast<const std::uint8_t*>(snap.data()), 3))));
  cbl::store::StateStore reopened(fs, "s");
  const auto loaded = reopened.load();
  out.push_back(std::to_string(loaded.records.size()));
  out.push_back(loaded.snapshot ? cbl::to_hex(*loaded.snapshot) : "none");
  for (const char* path : {"s.snap", "s.jrnl"}) {
    const auto bytes = fs.read(path);
    out.push_back(bytes ? cbl::to_hex(*bytes) : "missing");
  }
  return out;
}

void test_fs_wrapper() {
  cbl::store::MemFs bare;
  cbl::store::MemFs inner;
  CountingFs counting(inner);
  const auto a = run_store(bare);
  const auto b = run_store(counting);
  CHECK(a == b);
  CHECK(counting.ops() > 0);
  CHECK(counting.bytes_written() > 0);
}

}  // namespace

int main() {
  test_quantiles();
  test_schedules();
  test_self_times();
  test_channel_wrapper();
  test_fs_wrapper();
  if (failures > 0) {
    std::fprintf(stderr, "wallbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("wallbench_selftest: all checks passed\n");
  return 0;
}
