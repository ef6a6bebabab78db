// Tests for concurrent query serving (many client threads against one
// OprfServer while a maintenance thread mutates the blocklist), the
// pipeline's overload path end to end over the wire, and the
// transaction-authorization gateway (signatures, nonces, replay).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "blocklist/generator.h"
#include "chain/tx_auth.h"
#include "common/rng.h"
#include "exec/worker_pool.h"
#include "net/query_pipeline.h"
#include "net/service_node.h"
#include "obs/metrics.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"

namespace cbl {
namespace {

using cbl::ChaChaRng;

TEST(Concurrency, ParallelQueriesStayCorrect) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc-corpus");
  const auto corpus =
      blocklist::generate_corpus(200, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("conc-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto rng = ChaChaRng::from_string_seed("conc-client-" +
                                             std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        // Alternate listed and clean addresses.
        const bool expect_listed = q % 2 == 0;
        const std::string target =
            expect_listed
                ? corpus[static_cast<std::size_t>((t * 37 + q) %
                                                  static_cast<int>(
                                                      corpus.size()))]
                : blocklist::random_address(blocklist::Chain::kBitcoin, rng);
        try {
          const auto prepared = client.prepare(target);
          const auto response = server.handle(prepared.request);
          const bool listed =
              client.finish(prepared.pending, response).listed;
          if (listed != expect_listed) ++wrong;
        } catch (const ProtocolError&) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Concurrency, QueriesRideThroughMaintenance) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc2-corpus");
  auto all = blocklist::generate_corpus(300, corpus_rng).addresses();
  const std::vector<std::string> stable(all.begin(), all.begin() + 150);
  const std::vector<std::string> churn(all.begin() + 150, all.end());

  auto server_rng = ChaChaRng::from_string_seed("conc2-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(stable);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};

  // Maintenance thread: repeatedly add and remove the churn set.
  std::thread maintenance([&] {
    for (int round = 0; round < 10; ++round) {
      server.add_entries(churn);
      server.remove_entries(churn);
    }
    stop = true;
  });

  // Query threads: stable entries must ALWAYS be listed regardless of
  // the concurrent churn.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto rng = ChaChaRng::from_string_seed("conc2-client-" +
                                             std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 20) {
        const auto& target = stable[static_cast<std::size_t>(
            (t * 53 + q) % static_cast<int>(stable.size()))];
        try {
          const auto prepared = client.prepare(target);
          const auto response = server.handle(prepared.request);
          if (!client.finish(prepared.pending, response).listed) ++wrong;
        } catch (const ProtocolError&) {
          ++wrong;
        }
        ++q;
        if (q > 500) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // Churn ended with a removal round: only the stable set remains.
  EXPECT_EQ(server.entry_count(), stable.size());
}

// The batched serving path under the same adversarial schedule, designed
// to run under TSan: many client threads funnel through
// QueryPipeline::serve (group-commit coalescing, WorkerPool sub-batch
// split) while a maintenance thread rotates the key and churns entries.
// Every non-shed answer must be a correct verdict; shed answers must be
// kRateLimited and must never have occupied a batch slot.
TEST(Concurrency, PipelineServesCorrectlyUnderChurnAndRotation) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc3-corpus");
  auto all = blocklist::generate_corpus(240, corpus_rng).addresses();
  const std::vector<std::string> stable(all.begin(), all.begin() + 120);
  const std::vector<std::string> churn(all.begin() + 120, all.end());

  auto server_rng = ChaChaRng::from_string_seed("conc3-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(stable);

  exec::WorkerPool pool({.threads = 2, .name = "conc3"});
  net::PipelineOptions options;
  options.shards = 2;
  options.max_batch = 8;
  options.max_queue = 2;  // small enough that bursts shed
  options.pool = &pool;
  net::QueryPipeline pipeline(server, options);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> ok_served{0};
  std::atomic<int> shed{0};

  std::thread maintenance([&] {
    for (int round = 0; round < 6; ++round) {
      server.add_entries(churn);
      server.remove_entries(churn);
      server.rotate_key();
    }
    stop = true;
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      auto rng =
          ChaChaRng::from_string_seed("conc3-client-" + std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 30) {
        const auto& target = stable[static_cast<std::size_t>(
            (t * 31 + q) % static_cast<int>(stable.size()))];
        const auto prepared = client.prepare(target);
        const Bytes body = oprf::serialize(prepared.request);
        const auto result = pipeline.serve(body);
        if (result.status == net::Status::kRateLimited) {
          // Pipeline shed: refused before enqueue, so it carries the
          // pipeline's own retry hint and no body.
          EXPECT_EQ(result.retry_after_ms, options.shed_retry_after_ms);
          EXPECT_TRUE(result.body.empty());
          ++shed;
        } else if (result.status == net::Status::kOk) {
          try {
            const auto response = oprf::parse_query_response(result.body);
            if (!response ||
                !client.finish(prepared.pending, *response).listed) {
              ++wrong;
            }
          } catch (const ProtocolError&) {
            ++wrong;
          }
          ++ok_served;
        } else {
          ++wrong;  // a well-formed query must never be kBadRequest
        }
        client.clear_cache();  // epochs churn; keep every query cold
        ++q;
        if (q > 400) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : clients) th.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(ok_served.load(), 4 * 30 - shed.load());
  EXPECT_GT(ok_served.load(), 0);
}

// ------------------------------------------------------------- overload

/// Polls `done` until it holds or `timeout` passes; false on timeout.
template <typename Pred>
bool wait_until(Pred done,
                std::chrono::seconds timeout = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The service's one overload path, end to end: client -> transport ->
// node -> QueryPipeline -> OprfServer. Each client thread has its own
// Transport, node and RemoteBlocklistClient (a Transport is
// single-caller), and all of them share one server and one pipeline
// with a small shard queue.
//
// The shed is made deterministic rather than timing-dependent: an epoch
// listener parks an add_entries install while it holds the server's
// exclusive data lock, so the first query's batch leader blocks in
// evaluate_batch and every later arrival has to queue. Once exactly
// max_queue queries wait, the next arrival must be refused with
// kRateLimited and the pipeline's retry hint, without being enqueued.
// Releasing the install serves every queued query against the new
// epoch, and a free burst afterwards keeps the accounting exact: every
// query frame the nodes saw was either enqueued or shed, and every
// enqueued query took exactly one batch slot. No wall-clock assertion:
// the sanitizer builds would make one flaky.
TEST(Overload, FullPipelineQueueShedsThenRecovers) {
  using Kind = net::RemoteBlocklistClient::QueryOutcome::Kind;
  constexpr std::size_t kQueue = 4;
  constexpr int kBurstPerThread = 12;

  auto corpus_rng = ChaChaRng::from_string_seed("overload-corpus");
  auto all = blocklist::generate_corpus(200, corpus_rng).addresses();
  const std::vector<std::string> stable(all.begin(), all.begin() + 150);
  const std::vector<std::string> added(all.begin() + 150, all.end());
  std::set<std::string> listed(all.begin(), all.end());  // after the add
  std::vector<std::string> clean;
  while (clean.size() < 50) {
    auto address =
        blocklist::random_address(blocklist::Chain::kBitcoin, corpus_rng);
    if (!listed.contains(address)) clean.push_back(std::move(address));
  }

  auto server_rng = ChaChaRng::from_string_seed("overload-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(stable);
  net::PipelineOptions options;
  options.shards = 1;
  options.max_queue = kQueue;
  net::QueryPipeline pipeline(server, options);

  // One leader, kQueue queued followers, and one arrival that must shed.
  struct Worker {
    explicit Worker(std::size_t i, oprf::OprfServer& server,
                    net::QueryPipeline& pipeline)
        : transport_rng(ChaChaRng::from_string_seed(
              "overload-transport-" + std::to_string(i))),
          client_rng(ChaChaRng::from_string_seed("overload-client-" +
                                                 std::to_string(i))),
          transport(net::TransportConfig{}, transport_rng),
          node(transport, "scamdb", server, oprf::Oracle::fast(),
               net::NodeLimits(), &pipeline),
          client(transport, "scamdb", client_rng) {}
    ChaChaRng transport_rng;
    ChaChaRng client_rng;
    net::Transport transport;
    net::BlocklistServiceNode node;
    net::RemoteBlocklistClient client;
  };
  constexpr std::size_t kWorkers = kQueue + 2;
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    workers.push_back(std::make_unique<Worker>(i, server, pipeline));
  }

  auto& reg = obs::MetricsRegistry::global();
  auto& frames = reg.counter("cbl_net_requests_total", {{"method", "query"}});
  auto& enqueued = reg.counter("cbl_net_pipeline_enqueued_total");
  auto& shed = reg.counter("cbl_net_pipeline_shed_total");
  auto& batch_size = reg.histogram("cbl_net_pipeline_batch_size",
                                   obs::Histogram::log_buckets(1.0, 4096.0, 4));
  const auto frames0 = frames.value();
  const auto enqueued0 = enqueued.value();
  const auto shed0 = shed.value();
  const auto batch_sum0 = batch_size.sum();

  std::atomic<int> wrong{0};
  std::atomic<int> queries{0};
  std::atomic<int> rate_limited{0};
  const auto check = [&](const net::RemoteBlocklistClient::QueryOutcome& out,
                         const std::string& address) {
    ++queries;
    if (out.kind == Kind::kRateLimited) {
      EXPECT_EQ(out.retry_after_ms, options.shed_retry_after_ms);
      ++rate_limited;
    } else if (out.kind != Kind::kOk || out.listed != listed.contains(address)) {
      ++wrong;
    }
  };

  // Park the next install inside the exclusive data lock.
  std::atomic<bool> hold{false};
  std::promise<void> installing;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.set_epoch_listener([&](std::uint64_t) {
    if (!hold.exchange(false)) return;
    installing.set_value();
    released.wait();
  });
  hold = true;
  std::thread maintenance([&] { server.add_entries(added); });
  installing.get_future().wait();

  // Every parked query asks about an entry the held install adds, so a
  // listed verdict proves it was served from the new epoch.
  std::vector<std::thread> parked;
  std::vector<Kind> parked_kinds(kQueue + 1, Kind::kUnreachable);
  const auto park = [&](std::size_t i) {
    parked.emplace_back([&, i] {
      const auto out = workers[i]->client.query(added[i]);
      parked_kinds[i] = out.kind;
      check(out, added[i]);
    });
  };
  park(0);  // the leader: takes its own batch, then blocks on the lock
  EXPECT_TRUE(wait_until([&] { return enqueued.value() == enqueued0 + 1; }));
  for (std::size_t i = 1; i <= kQueue; ++i) park(i);
  EXPECT_TRUE(wait_until(
      [&] { return enqueued.value() == enqueued0 + 1 + kQueue; }));

  // The queue is full: the next arrival is refused before enqueue.
  std::promise<net::RemoteBlocklistClient::QueryOutcome> shed_outcome;
  std::thread shedder([&] {
    shed_outcome.set_value(workers[kQueue + 1]->client.query(clean[0]));
  });
  auto shed_future = shed_outcome.get_future();
  const bool answered =
      shed_future.wait_for(std::chrono::seconds(30)) ==
      std::future_status::ready;
  EXPECT_TRUE(answered) << "a query arriving at a full queue was not shed";
  if (answered) {
    const auto out = shed_future.get();
    check(out, clean[0]);
    EXPECT_EQ(out.kind, Kind::kRateLimited);
    EXPECT_EQ(shed.value(), shed0 + 1);
    EXPECT_EQ(enqueued.value(), enqueued0 + 1 + kQueue);
  }

  release.set_value();
  maintenance.join();
  shedder.join();
  for (auto& t : parked) t.join();
  for (std::size_t i = 0; i <= kQueue; ++i) {
    EXPECT_EQ(parked_kinds[i], Kind::kOk) << "parked query " << i;
  }
  EXPECT_EQ(wrong.load(), 0);

  // Shedding spent nothing: the refused client is served right after.
  check(workers[kQueue + 1]->client.query(clean[0]), clean[0]);
  EXPECT_EQ(wrong.load(), 0);

  // A free burst over listed, newly added and clean addresses.
  std::vector<std::thread> burst;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    burst.emplace_back([&, i] {
      for (int q = 0; q < kBurstPerThread; ++q) {
        const std::size_t k = i * 7 + static_cast<std::size_t>(q);
        const std::string& address =
            q % 3 == 0 ? stable[k % stable.size()]
            : q % 3 == 1 ? added[k % added.size()]
                         : clean[k % clean.size()];
        check(workers[i]->client.query(address), address);
      }
    });
  }
  for (auto& t : burst) t.join();

  EXPECT_EQ(wrong.load(), 0);
  // Exact accounting: one frame per query (no loss, no prefix list),
  // each frame either enqueued or shed, each shed answered kRateLimited,
  // and each enqueued query in exactly one batch.
  const auto frames_seen = frames.value() - frames0;
  const auto enqueued_n = enqueued.value() - enqueued0;
  const auto shed_n = shed.value() - shed0;
  EXPECT_EQ(frames_seen, static_cast<std::uint64_t>(queries.load()));
  EXPECT_EQ(enqueued_n + shed_n, frames_seen);
  EXPECT_EQ(shed_n, static_cast<std::uint64_t>(rate_limited.load()));
  EXPECT_EQ(static_cast<std::uint64_t>(batch_size.sum() - batch_sum0),
            enqueued_n);
}

// ------------------------------------------------------------ tx gateway

class TxAuthTest : public ::testing::Test {
 protected:
  ChaChaRng rng_ = ChaChaRng::from_string_seed("tx-auth");
  chain::Blockchain chain_;
  chain::AuthorizedGateway gateway_{chain_};

  std::pair<chain::AccountId, nizk::SigningKey> make_account(
      const std::string& label) {
    const auto id = chain_.ledger().create_account(label);
    chain_.ledger().mint(id, 100);
    const auto key = nizk::SigningKey::generate(rng_);
    gateway_.bind_key(id, key.pk);
    return {id, key};
  }
};

TEST_F(TxAuthTest, SignedSubmissionExecutes) {
  const auto [alice, key] = make_account("alice");
  const Bytes payload = to_bytes("transfer 10 to bob");
  const auto sig = chain::AuthorizedGateway::sign_submission(
      key, alice, "transfer", payload, 0, rng_);

  int executed = 0;
  const auto receipt =
      gateway_.submit(alice, "transfer", payload, 0, sig, [&] { ++executed; });
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(receipt.payer, alice);
  EXPECT_EQ(gateway_.next_nonce(alice), 1u);
}

TEST_F(TxAuthTest, ReplayRejected) {
  const auto [alice, key] = make_account("alice");
  const Bytes payload = to_bytes("tx");
  const auto sig = chain::AuthorizedGateway::sign_submission(
      key, alice, "m", payload, 0, rng_);
  gateway_.submit(alice, "m", payload, 0, sig, [] {});
  // Same signed submission again: nonce already burned.
  EXPECT_THROW(gateway_.submit(alice, "m", payload, 0, sig, [] {}),
               ChainError);
}

TEST_F(TxAuthTest, ForgedAndForeignSignaturesRejected) {
  const auto [alice, alice_key] = make_account("alice");
  const auto [bob, bob_key] = make_account("bob");
  const Bytes payload = to_bytes("tx");

  // Bob's key cannot authorize alice's tx.
  const auto foreign = chain::AuthorizedGateway::sign_submission(
      bob_key, alice, "m", payload, 0, rng_);
  EXPECT_THROW(gateway_.submit(alice, "m", payload, 0, foreign, [] {}),
               ChainError);

  // A signature over different payload/method/nonce is rejected.
  auto sig = chain::AuthorizedGateway::sign_submission(alice_key, alice, "m",
                                                       payload, 0, rng_);
  EXPECT_THROW(
      gateway_.submit(alice, "m", to_bytes("other payload"), 0, sig, [] {}),
      ChainError);
  EXPECT_THROW(gateway_.submit(alice, "other-method", payload, 0, sig, [] {}),
               ChainError);
  EXPECT_THROW(gateway_.submit(alice, "m", payload, 1, sig, [] {}),
               ChainError);

  // Unbound account.
  const auto stranger = chain_.ledger().create_account("stranger");
  EXPECT_THROW(gateway_.submit(stranger, "m", payload, 0, sig, [] {}),
               ChainError);
}

TEST_F(TxAuthTest, RevertedTxDoesNotBurnNonce) {
  const auto [alice, key] = make_account("alice");
  const Bytes payload = to_bytes("tx");
  const auto sig = chain::AuthorizedGateway::sign_submission(
      key, alice, "m", payload, 0, rng_);
  EXPECT_THROW(gateway_.submit(alice, "m", payload, 0, sig,
                               [] { throw ChainError("contract revert"); }),
               ChainError);
  EXPECT_EQ(gateway_.next_nonce(alice), 0u);
  // The same signed submission succeeds on retry.
  int executed = 0;
  gateway_.submit(alice, "m", payload, 0, sig, [&] { ++executed; });
  EXPECT_EQ(executed, 1);
}

TEST_F(TxAuthTest, KeyRotation) {
  const auto [alice, old_key] = make_account("alice");
  const auto new_key = nizk::SigningKey::generate(rng_);
  gateway_.bind_key(alice, new_key.pk);

  const Bytes payload = to_bytes("tx");
  const auto stale = chain::AuthorizedGateway::sign_submission(
      old_key, alice, "m", payload, 0, rng_);
  EXPECT_THROW(gateway_.submit(alice, "m", payload, 0, stale, [] {}),
               ChainError);
  const auto fresh = chain::AuthorizedGateway::sign_submission(
      new_key, alice, "m", payload, 0, rng_);
  EXPECT_NO_THROW(gateway_.submit(alice, "m", payload, 0, fresh, [] {}));
}

}  // namespace
}  // namespace cbl
