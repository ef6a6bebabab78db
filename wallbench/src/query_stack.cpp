#include "query_stack.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "nizk/signature.h"

namespace wallbench {

namespace {

cbl::net::TransportConfig transport_config() {
  // The simulated RTT is only accounted, never slept; keep it small and
  // fixed so no resilience timer (hedging, attempt timeout) ever fires.
  cbl::net::TransportConfig config;
  config.latency_ms_min = 0.5;
  config.latency_ms_max = 0.5;
  config.drop_rate = 0.0;
  return config;
}

cbl::net::PipelineOptions pipeline_options() {
  cbl::net::PipelineOptions options;
  options.shards = 1;
  options.max_batch = 64;
  options.max_queue = 256;
  return options;
}

/// Spins until `deadline_ns`. The generator never sleeps: on a shared
/// virtual machine a sleeping thread's core goes idle, and waking it
/// again can take milliseconds, which would count as lateness.
void wait_until(std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
  }
}

}  // namespace

Worker::Worker(unsigned index, std::uint64_t seed)
    : transport_rng(seeded_rng(seed, "transport" + std::to_string(index))),
      client_rng(seeded_rng(seed, "client" + std::to_string(index))),
      transport(transport_config(), transport_rng),
      log(index) {}

QueryStack::QueryStack(const Corpus& corpus, const StackOptions& options)
    : options_(options),
      server_rng_(seeded_rng(options.seed, "server")),
      publisher_rng_(seeded_rng(options.seed, "publisher")),
      server_(cbl::oprf::Oracle::fast(), kLambda, server_rng_),
      pipeline_(server_, pipeline_options()) {
  {
    ScopedSpan span("oprf.setup");
    server_.setup(corpus.listed(), options.setup_threads);
  }
  auto key_rng = seeded_rng(options.seed, "signing-key");
  publisher_ = std::make_unique<cbl::tlog::EpochPublisher>(
      cbl::nizk::SigningKey::generate(key_rng), publisher_rng_);
  publish();

  for (unsigned i = 0; i < options.workers; ++i) {
    workers_.push_back(connect(i));
  }
  mirror_ = connect(options.workers);
}

std::unique_ptr<Worker> QueryStack::connect(unsigned index) {
  auto worker = std::make_unique<Worker>(index, options_.seed);
  worker->node = std::make_unique<cbl::net::BlocklistServiceNode>(
      worker->transport, kEndpoint, server_, cbl::oprf::Oracle::fast(),
      cbl::net::NodeLimits(), &pipeline_, publisher_.get());
  if (options_.traced) {
    Worker* w = worker.get();
    // The hook runs on the calling thread inside the transport call,
    // after the response is sealed: place the three stages back to
    // back, ending now, as children of the open transport span.
    worker->node->set_stage_hook([w](const cbl::net::QueryStageTiming& timing) {
      if (timing.shed) ++w->shed;
      SpanLog* log = active_log();
      if (log == nullptr) return;
      const std::int64_t end = now_ns();
      const auto seal = static_cast<std::int64_t>(timing.seal_ns);
      const auto eval = static_cast<std::int64_t>(timing.crypto_ns);
      const auto parse = static_cast<std::int64_t>(timing.parse_ns);
      log->add("net.node.seal", end - seal, end);
      log->add("net.node.eval", end - seal - eval, end - seal);
      log->add("net.node.parse", end - seal - eval - parse, end - seal - eval);
    });
  }
  worker->store =
      std::make_unique<cbl::store::StateStore>(worker->fs, "auditor");
  // The constructor connects and fetches the prefix list.
  worker->client = std::make_unique<cbl::net::ResilientClient>(
      worker->channel, std::vector<std::string>{kEndpoint},
      worker->client_rng);
  if (worker->client->connected_providers() != 1) {
    throw std::runtime_error("client failed to connect");
  }
  worker->client->pin_tlog_key(kEndpoint, publisher_->public_key(),
                               worker->store.get());
  if (sync(*worker) != server_.epoch()) {
    throw std::runtime_error("first verified sync did not reach the epoch");
  }
  return worker;
}

// Workers (clients and nodes) go first: nodes unregister from their
// transports and reference the pipeline, server and publisher.
QueryStack::~QueryStack() {
  mirror_.reset();
  workers_.clear();
}

void QueryStack::publish() {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  ScopedSpan span("tlog.publish");
  publisher_->publish_epoch(server_);
}

std::uint64_t QueryStack::sync(Worker& worker) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  ScopedSpan span("tlog.sync");
  worker.client->sync();
  const auto* auditor = worker.client->tlog_auditor(kEndpoint);
  if (auditor == nullptr || !auditor->trusted()) {
    throw std::runtime_error("transparency sync lost trust in the provider");
  }
  return auditor->mirror_epoch();
}

bool VerdictCheck::correct(std::uint32_t address, bool listed,
                           std::uint32_t lo, std::uint32_t hi) const {
  if (truth == nullptr) return listed == corpus->initially_listed(address);
  return truth->matches_some(address, listed, lo, hi);
}

namespace {

/// Sends one query through `worker` and records its outcome; `lo` is the
/// earliest blocklist version it may observe.
QueryRecord ask(Worker& worker, const VerdictCheck& check,
                std::uint32_t address, std::uint32_t lo) {
  const cbl::net::ResilientClient::Outcome outcome = [&] {
    ScopedSpan span("net.client");
    return worker.client->query(check.corpus->address(address));
  }();
  const std::uint32_t hi =
      check.versions ? check.versions->started.load(std::memory_order_acquire)
                     : 0;
  QueryRecord record;
  record.address = address;
  record.listed = outcome.listed();
  record.attempts = outcome.attempts;
  record.fresh = outcome.freshness == cbl::net::Freshness::kFresh;
  record.unknown = outcome.verdict ==
                   cbl::net::ResilientClient::Outcome::Verdict::kUnknown;
  record.wrong =
      !record.unknown && !check.correct(address, record.listed, lo, hi);
  return record;
}

/// One worker's walk through its arrival list; returns its records.
std::vector<QueryRecord> run_worker(Worker& worker,
                                    const std::vector<PlannedQuery>& queue,
                                    const VerdictCheck& check,
                                    std::int64_t t0, bool traced) {
  set_active_log(traced ? &worker.log : nullptr);
  const VersionClock* versions = check.versions;
  std::vector<QueryRecord> out;
  out.reserve(queue.size());
  std::size_t due_cursor = 0;  // first queue entry not yet due
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const PlannedQuery& query = queue[i];
    const std::int64_t due = t0 + query.due_ns;
    wait_until(due);
    bool held = false;
    while (versions != nullptr && query.after_version >
                                      versions->completed.load(
                                          std::memory_order_acquire)) {
      held = true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const std::int64_t start = now_ns();
    due_cursor = std::max(due_cursor, i + 1);
    while (due_cursor < queue.size() &&
           t0 + queue[due_cursor].due_ns <= start) {
      ++due_cursor;
    }
    const std::uint32_t lo =
        versions ? versions->completed.load(std::memory_order_acquire) : 0;
    SpanLog* log = active_log();
    if (log != nullptr) {
      log->open("query", query.request, due);
      log->add("load.late", due, start);
    }
    QueryRecord record = ask(worker, check, query.address, lo);
    const std::int64_t end = now_ns();
    if (log != nullptr) log->close(end);
    record.held = held;
    record.backlog = static_cast<std::uint32_t>(due_cursor - i - 1);
    record.due_ms = static_cast<double>(query.due_ns) / 1e6;
    record.late_ms = static_cast<double>(start - due) / 1e6;
    record.latency_ms = static_cast<double>(end - due) / 1e6;
    out.push_back(record);
  }
  set_active_log(nullptr);
  return out;
}

}  // namespace

void run_threads(std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&errors, &body, i] {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

LevelRun run_level(QueryStack& stack, const LevelPlan& plan,
                   const VerdictCheck& check,
                   const std::function<void(std::int64_t)>& side) {
  auto& workers = stack.workers();
  if (plan.per_worker.size() != workers.size()) {
    throw std::invalid_argument("level planned for another worker count");
  }
  const bool traced = stack.options().traced;
  std::vector<std::vector<QueryRecord>> records(workers.size());
  std::vector<std::uint64_t> bytes_before(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const auto& traffic = workers[w]->channel.queries();
    bytes_before[w] = traffic.request_bytes + traffic.response_bytes;
  }

  // Every thread starts on the same clock, a little in the future.
  const std::int64_t t0 = now_ns() + 2'000'000;
  run_threads(workers.size() + (side ? 1 : 0), [&](std::size_t w) {
    if (w == workers.size()) {
      side(t0);
    } else {
      records[w] =
          run_worker(*workers[w], plan.per_worker[w], check, t0, traced);
    }
  });

  LevelRun run;
  run.rate_qps = plan.rate_qps;
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const auto& traffic = workers[w]->channel.queries();
    run.wire_bytes +=
        traffic.request_bytes + traffic.response_bytes - bytes_before[w];
    run.records.insert(run.records.end(), records[w].begin(),
                       records[w].end());
  }
  return run;
}

LevelRun run_closed(QueryStack& stack, const VerdictCheck& check,
                    unsigned active, std::int64_t duration_ns,
                    std::uint64_t seed, std::size_t segment) {
  auto& workers = stack.workers();
  active = std::min<unsigned>(active, static_cast<unsigned>(workers.size()));
  std::vector<std::vector<QueryRecord>> records(active);
  std::vector<std::uint64_t> bytes_before(active);
  for (std::size_t w = 0; w < active; ++w) {
    const auto& traffic = workers[w]->channel.queries();
    bytes_before[w] = traffic.request_bytes + traffic.response_bytes;
  }
  const std::int64_t t0 = now_ns() + 2'000'000;
  const std::int64_t stop = t0 + duration_ns;
  run_threads(active, [&](std::size_t w) {
    auto rng = seeded_rng(seed, "closed" + std::to_string(segment) + "/" +
                                    std::to_string(w));
    wait_until(t0);
    for (std::int64_t start = now_ns(); start < stop; start = now_ns()) {
      QueryRecord record =
          ask(*workers[w], check, check.corpus->sample(rng), 0);
      record.due_ms = static_cast<double>(start - t0) / 1e6;
      record.latency_ms = static_cast<double>(now_ns() - start) / 1e6;
      records[w].push_back(record);
    }
  });

  LevelRun run;
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t w = 0; w < active; ++w) {
    const auto& traffic = workers[w]->channel.queries();
    run.wire_bytes +=
        traffic.request_bytes + traffic.response_bytes - bytes_before[w];
    run.records.insert(run.records.end(), records[w].begin(),
                       records[w].end());
  }
  return run;
}

}  // namespace wallbench
