#include "workloads.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "chain/blockchain.h"
#include "obs/metrics.h"
#include "oprf/client.h"
#include "oprf/oracle.h"
#include "query_stack.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"
#include "voting/ceremony.h"

namespace wallbench {

namespace {

// ---- Fixed benchmark parameters -------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Service-level limits a ladder rate must meet to count as sustained.
constexpr double kP99LimitMs = 20.0;
constexpr double kFailRateLimit = 0.01;
/// Backlog growth limit: how much later the last quarter of a level's
/// arrivals may be sent than the first quarter, on average.
constexpr double kGrowthLimitMs = 5.0;
/// The rate at which query latency is reported.
constexpr double kNominalQps = 1000.0;
/// Queries at every other ladder rate: at least this many (so p99 has
/// ten samples beyond it), or this share of the run at that rate.
constexpr std::size_t kMinLevelQueries = 1000;
/// Addresses timed through direct OPRF calls in a traced run.
constexpr std::size_t kOprfSample = 256;

/// The query universe: cbl::load::WorkloadConfig's Zipf skew and listed
/// share (1 in 8), scaled to 16k listed addresses. At lambda = 12 that is
/// 4096 buckets with four entries each on average, so about 98% of
/// prefixes are non-empty and nearly every query goes online. Every query
/// runs through the real client, so the model's cache and prefix-list
/// shortcuts are off.
cbl::load::WorkloadConfig query_universe() {
  const cbl::load::WorkloadConfig defaults;
  cbl::load::WorkloadConfig config;
  config.listed_addresses = 16384;
  config.unique_addresses = config.listed_addresses *
                            (defaults.unique_addresses / defaults.listed_addresses);
  config.cache_hit_ratio = 0.0;
  config.prefix_local_ratio = 0.0;
  return config;
}

/// The rate ladder besides the nominal rate. The low rungs run once; the
/// high rungs, where the knee lies on a 4-core machine, climb until two
/// rungs in a row miss the limits.
const std::vector<double>& low_ladder_qps() {
  static const std::vector<double> ladder = {500, 1500, 2000, 2500};
  return ladder;
}
const std::vector<double>& high_ladder_qps() {
  static const std::vector<double> ladder = {3000, 3250, 3500, 3750, 4000,
                                             4250, 4500, 4750, 5000, 5500,
                                             6000, 7000, 8000};
  return ladder;
}
/// query_zipf's measured phase is kBlocks blocks, spread over the run
/// between the ladder's parts. Each block alternates two nominal-rate
/// segments with two closed-loop segments, so a stretch of machine noise
/// lands in a few segments, not all of them.
constexpr std::size_t kBlocks = 5;
constexpr std::size_t kWindows = 2 * kBlocks;  // segments of each kind
/// Shares of the run: each nominal segment, each closed-loop segment,
/// each ladder rung, and the closed-loop warm-up before anything is timed.
constexpr double kNominalShare = 0.04;
constexpr double kClosedShare = 0.03;
constexpr double kRungShare = 0.02;
constexpr double kWarmupShare = 0.02;
/// query_zipf does the same work in every segment, and a busy host only
/// ever adds latency and takes throughput away. So its latency figures
/// are the lower quartile of the per-segment values, and its throughput
/// the upper quartile of the closed-loop segments' rates: the program's
/// own cost as long as noise spares a quarter of the segments. The
/// whole-level figures are printed beside them.
constexpr double kLatencyWindowQ = 0.25;
constexpr double kThroughputSegmentQ = 0.75;

// ---- Shared helpers --------------------------------------------------------

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

struct LevelStats {
  double rate_qps = 0.0;
  std::size_t queries = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double tail_q = 0.99;
  double late_p99_ms = 0.0;
  // The lower quartile (kLatencyWindowQ) of the per-window values.
  double windowed_p50_ms = 0.0;
  double windowed_p95_ms = 0.0;
  double windowed_p99_ms = 0.0;
  std::uint32_t backlog_max = 0;
  bool growing = false;  // lateness grew over the level
  std::size_t ok = 0;    // fresh and right
  std::size_t wrong = 0;
  std::size_t degraded = 0;  // answered, but not fresh
  std::size_t unknown = 0;   // no verdict
  std::uint64_t attempts = 0;
  std::uint64_t wire_bytes = 0;
  double wall_s = 0.0;
  /// Queries over the time from the first arrival to the last verdict.
  double achieved_qps = 0.0;

  std::size_t failed() const { return queries - ok; }
  double fail_rate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(queries);
  }
  bool sustained() const {
    return p99_ms <= kP99LimitMs && fail_rate() <= kFailRateLimit &&
           !growing;
  }
};

LevelStats summarize(const LevelRun& run) {
  LevelStats s;
  s.rate_qps = run.rate_qps;
  s.queries = run.records.size();
  s.wire_bytes = run.wire_bytes;
  s.wall_s = run.wall_s;
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(s.queries);
  late.reserve(s.queries);
  for (const QueryRecord& r : run.records) {
    latency.push_back(r.latency_ms);
    late.push_back(r.late_ms);
    s.backlog_max = std::max(s.backlog_max, r.backlog);
    s.attempts += r.attempts;
    if (r.unknown) {
      ++s.unknown;
    } else if (r.wrong) {
      ++s.wrong;
    } else if (!r.fresh) {
      ++s.degraded;
    } else {
      ++s.ok;
    }
  }
  s.tail_q = tail_q(s.queries);
  s.p50_ms = quantile(latency, 0.5);
  s.p99_ms = quantile(latency, s.tail_q);
  s.late_p99_ms = quantile_of(late, s.tail_q);

  // Lateness growth: mean lateness of the last quarter of arrivals
  // against the first quarter. A level the stack keeps up with drains
  // every burst; an overloaded one falls further behind with every
  // arrival (1% overload adds 4 ms of lateness over a 0.4 s rung).
  std::vector<const QueryRecord*> by_due;
  by_due.reserve(s.queries);
  for (const QueryRecord& r : run.records) by_due.push_back(&r);
  std::sort(by_due.begin(), by_due.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->due_ms < b->due_ms;
            });
  if (!by_due.empty()) {
    double last_verdict_ms = 0.0;
    for (const QueryRecord* r : by_due) {
      last_verdict_ms = std::max(last_verdict_ms, r->due_ms + r->latency_ms);
    }
    const double span_ms = last_verdict_ms - by_due.front()->due_ms;
    if (span_ms > 0) {
      s.achieved_qps = static_cast<double>(s.queries) * 1e3 / span_ms;
    }
  }
  const std::size_t quarter = by_due.size() / 4;
  if (quarter > 0) {
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += by_due[i]->late_ms;
      last += by_due[by_due.size() - 1 - i]->late_ms;
    }
    first /= static_cast<double>(quarter);
    last /= static_cast<double>(quarter);
    s.growing = last - first > kGrowthLimitMs;
  }

  // Windowed latency: p50, p95 and p99 of each of kWindows consecutive
  // windows (in arrival order), then their lower quartiles.
  const std::size_t window = by_due.size() / kWindows;
  std::vector<double> window_p50;
  std::vector<double> window_p95;
  std::vector<double> window_p99;
  for (std::size_t w = 0; window > 0 && w < kWindows; ++w) {
    std::vector<double> values;
    values.reserve(window);
    for (std::size_t i = w * window; i < (w + 1) * window; ++i) {
      values.push_back(by_due[i]->latency_ms);
    }
    window_p50.push_back(quantile(values, 0.5));
    window_p95.push_back(quantile(values, 0.95));
    window_p99.push_back(quantile(values, tail_q(window)));
  }
  s.windowed_p50_ms = quantile(window_p50, kLatencyWindowQ);
  s.windowed_p95_ms = quantile(window_p95, kLatencyWindowQ);
  s.windowed_p99_ms = quantile(window_p99, kLatencyWindowQ);
  return s;
}

std::string level_line(const LevelStats& s) {
  return format(
      "rate=%6.0f qps  n=%6zu  p50=%8.3f ms  p%.0f=%9.3f ms  windowed "
      "p50/p95/p99=%.3f/%.3f/%.3f ms  late_p99=%9.3f ms  backlog_max=%4u  "
      "growing=%d  fail=%.5f (wrong=%zu degraded=%zu unknown=%zu)  %s",
      s.rate_qps, s.queries, s.p50_ms, s.tail_q * 100, s.p99_ms,
      s.windowed_p50_ms, s.windowed_p95_ms, s.windowed_p99_ms, s.late_p99_ms,
      s.backlog_max,
      s.growing ? 1 : 0, s.fail_rate(), s.wrong, s.degraded, s.unknown,
      s.sustained() ? "sustained" : "NOT sustained");
}

/// Process-wide library counters the per-layer metrics read as deltas.
struct RegistryProbe {
  std::uint64_t enqueued = 0;
  std::uint64_t crypto_ns = 0;
  std::uint64_t pipeline_shed = 0;
  double batch_sum = 0.0;
  std::uint64_t batch_count = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t full_bytes = 0;

  static RegistryProbe read() {
    auto& reg = cbl::obs::MetricsRegistry::global();
    RegistryProbe p;
    p.enqueued = reg.counter("cbl_net_pipeline_enqueued_total").value();
    p.crypto_ns = reg.counter("cbl_net_pipeline_crypto_ns_total").value();
    p.pipeline_shed = reg.counter("cbl_net_pipeline_shed_total").value();
    auto& batch = reg.histogram("cbl_net_pipeline_batch_size",
                                cbl::obs::Histogram::log_buckets(1.0, 4096.0, 4));
    p.batch_sum = batch.sum();
    p.batch_count = batch.count();
    const std::string endpoint = QueryStack::kEndpoint;
    p.delta_bytes = reg.counter("cbl_tlog_sync_bytes_total",
                                {{"endpoint", endpoint}, {"kind", "delta"}})
                        .value();
    p.full_bytes = reg.counter("cbl_tlog_sync_bytes_total",
                               {{"endpoint", endpoint}, {"kind", "full"}})
                       .value();
    return p;
  }
};

struct StoreProbe {
  std::uint64_t ops = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t busy_ns = 0;

  static StoreProbe read(QueryStack& stack) {
    StoreProbe p;
    const auto add = [&p](const Worker& worker) {
      p.ops += worker.fs.ops();
      p.bytes_written += worker.fs.bytes_written();
      p.busy_ns += worker.fs.busy_ns();
    };
    for (const auto& worker : stack.workers()) add(*worker);
    add(stack.mirror());
    return p;
  }
};

/// Chain methods a ceremony executes; chain.verify_ms.<method> is
/// reported for each.
const std::vector<std::string>& ceremony_methods() {
  static const std::vector<std::string> methods = {
      "shield-deposit", "VoteCommit", "VrfReveal", "FinalizeCommittee",
      "Vote",           "payoff",     "settle-provider", "withdraw"};
  return methods;
}

/// Every per-layer metric name, set to zero: a layer a workload does not
/// exercise reports 0, the "should not move" prediction made visible.
void zero_layer_metrics(Report& report) {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"load.late_ms_p99", "ms"}, {"load.backlog_max", "count"},
      {"net.client.self_us_p50", "us"}, {"net.client.attempts", "count/query"},
      {"net.client.degraded", "count"}, {"net.transport.calls", "count"},
      {"net.transport.req_bytes", "B/call"}, {"net.transport.resp_bytes", "B/call"},
      {"net.transport.us_p50", "us"}, {"net.transport.self_us_p50", "us"},
      {"net.node.parse_us_p50", "us"},
      {"net.node.eval_us_p50", "us"}, {"net.node.seal_us_p50", "us"},
      {"net.node.shed", "count"}, {"net.pipeline.batch_mean", "queries"},
      {"net.pipeline.batches", "count"}, {"net.pipeline.crypto_us_per_query", "us"},
      {"net.pipeline.wait_us_p50", "us"}, {"oprf.prepare_us_p50", "us"},
      {"oprf.evaluate_us_p50", "us"}, {"oprf.finish_us_p50", "us"},
      {"oprf.setup_ms", "ms"}, {"oprf.update_ms_p50", "ms"},
      {"oprf.rotate_ms", "ms"}, {"tlog.publish_ms_p50", "ms"},
      {"tlog.sync_ms_p50", "ms"}, {"tlog.delta_bytes", "B"},
      {"tlog.full_bytes", "B"}, {"store.ops", "count"},
      {"store.bytes_written", "B"}, {"store.busy_us", "us"},
      {"voting.fund_ms", "ms"}, {"voting.register_ms", "ms"},
      {"voting.reveal_ms", "ms"}, {"voting.committee_ms", "ms"},
      {"voting.vote_ms", "ms"}, {"voting.payoff_ms", "ms"},
      {"voting.prover_ms", "ms"}, {"chain.storage_gas", "gas"},
      {"chain.compute_gas", "gas"}, {"chain.proof_bytes", "B"},
      {"chain.txs", "count"}, {"trace.unattributed_us_p50", "us"},
      {"trace.sum_error_us_max", "us"}, {"check.wrong_verdicts", "count"},
      {"check.wrong_stale_prefix_list", "count"},
  };
  for (const auto& [name, unit] : names) report.set(name, 0.0, unit, 0);
  for (const auto& method : ceremony_methods()) {
    report.set("chain.verify_ms." + method, 0.0, "ms", 0);
  }
}


double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Span durations of `name` (optionally only spans starting at or after
/// `from_ns`), in the unit `scale` converts to.
std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              double (*scale)(std::int64_t),
                              std::int64_t from_ns = 0) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == name && span.start_ns >= from_ns) {
      out.push_back(scale(span.duration_ns()));
    }
  }
  return out;
}

/// Per-layer metrics of the query path, from the measured levels' spans.
void query_layer_metrics(Report& report, const std::vector<Span>& spans,
                         double crypto_us_per_query) {
  const auto self = self_times(spans);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) by_id.emplace(span.id, &span);
  const auto parent_name = [&](const Span& span) -> std::string_view {
    const auto it = by_id.find(span.parent);
    return it == by_id.end() ? std::string_view() : it->second->name;
  };

  std::vector<double> client_self, transport, transport_self, parse, eval,
      seal, unattributed;
  // Per query root: latency against the sum of its spans' self times. The
  // node stage spans are placed inside the open transport span, so this
  // only checks that the spans are built consistently; the time no layer
  // accounts for is the transport span's own (net.transport.self_us_p50).
  std::unordered_map<std::uint64_t, double> parts_us;  // by request id
  std::unordered_map<std::uint64_t, double> latency_us;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    const double self_us = us(self.at(span.id));
    if (name == "query") {
      latency_us[span.request] = us(span.duration_ns());
      unattributed.push_back(self_us);
      parts_us[span.request] += self_us;
    } else if (name == "load.late") {
      parts_us[span.request] += self_us;
    } else if (name == "net.client") {
      client_self.push_back(self_us);
      parts_us[span.request] += self_us;
    } else if (name == "net.transport" && parent_name(span) == "net.client") {
      transport.push_back(us(span.duration_ns()));
      transport_self.push_back(self_us);
      parts_us[span.request] += self_us;
    } else if (name == "net.node.parse") {
      parse.push_back(self_us);
      parts_us[span.request] += self_us;
    } else if (name == "net.node.eval") {
      eval.push_back(self_us);
      parts_us[span.request] += self_us;
    } else if (name == "net.node.seal") {
      seal.push_back(self_us);
      parts_us[span.request] += self_us;
    }
  }
  double sum_error_us = 0.0;
  for (const auto& [request, latency] : latency_us) {
    sum_error_us = std::max(sum_error_us, std::abs(latency - parts_us[request]));
  }
  std::vector<double> wait;
  wait.reserve(eval.size());
  for (const double e : eval) wait.push_back(e - crypto_us_per_query);

  report.set("net.client.self_us_p50", quantile(client_self, 0.5), "us",
             client_self.size());
  report.set("net.transport.us_p50", quantile(transport, 0.5), "us",
             transport.size());
  report.set("net.transport.self_us_p50", quantile(transport_self, 0.5), "us",
             transport_self.size());
  report.set("net.node.parse_us_p50", quantile(parse, 0.5), "us", parse.size());
  report.set("net.node.eval_us_p50", quantile_of(eval, 0.5), "us", eval.size());
  report.set("net.node.seal_us_p50", quantile(seal, 0.5), "us", seal.size());
  report.set("net.pipeline.wait_us_p50", quantile(wait, 0.5), "us", wait.size());
  report.set("trace.unattributed_us_p50", quantile(unattributed, 0.5), "us",
             unattributed.size());
  report.set("trace.sum_error_us_max", sum_error_us, "us", latency_us.size());
}

/// Times a fixed sample of addresses through direct OPRF calls:
/// OprfClient::prepare, OprfServer::handle, OprfClient::finish.
void oprf_direct_metrics(Report& report, QueryStack& stack,
                         const Corpus& corpus, std::uint64_t seed) {
  auto rng = seeded_rng(seed, "oprf-direct");
  cbl::oprf::OprfClient client(cbl::oprf::Oracle::fast(), kLambda, rng);
  std::vector<double> prepare, evaluate, finish;
  std::size_t wrong = 0;
  auto sample_rng = seeded_rng(seed, "oprf-direct/addresses");
  for (std::size_t i = 0; i < kOprfSample; ++i) {
    const std::string& entry = corpus.address(corpus.sample(sample_rng));
    const std::int64_t t0 = now_ns();
    const auto prepared = client.prepare(entry);
    const std::int64_t t1 = now_ns();
    const auto response = stack.server().handle(prepared.request);
    const std::int64_t t2 = now_ns();
    const auto result = client.finish(prepared.pending, response);
    const std::int64_t t3 = now_ns();
    prepare.push_back(us(t1 - t0));
    evaluate.push_back(us(t2 - t1));
    finish.push_back(us(t3 - t2));
    if (result.listed != stack.server().serves(entry)) ++wrong;
  }
  if (wrong > 0) {
    report.fail_check(format("direct OPRF sample: %zu wrong verdicts", wrong));
  }
  report.set("oprf.prepare_us_p50", quantile(prepare, 0.5), "us", prepare.size());
  report.set("oprf.evaluate_us_p50", quantile(evaluate, 0.5), "us",
             evaluate.size());
  report.set("oprf.finish_us_p50", quantile(finish, 0.5), "us", finish.size());
}

/// Every span the stack's query workers recorded.
std::vector<Span> worker_spans(QueryStack& stack) {
  std::vector<Span> spans;
  for (const auto& worker : stack.workers()) {
    spans.insert(spans.end(), worker->log.spans().begin(),
                 worker->log.spans().end());
  }
  return spans;
}

/// Metrics common to both query workloads, from the nominal level and
/// the whole measured phase. With `windowed`, latency is the lower
/// quartile over the nominal level's windows (query_zipf, whose windows
/// are segments spread over the run); without, it is the whole level's
/// (epoch_churn, whose tail must hold the queries that waited on provider
/// writes).
void query_metrics(Report& report, const LevelStats& nominal,
                   const std::vector<LevelStats>& levels, bool windowed) {
  std::uint64_t ok = 0;
  std::uint64_t queries = 0;
  for (const LevelStats& level : levels) {
    report.attempted += level.queries;
    report.failed += level.failed();
    ok += level.ok;
    queries += level.queries;
  }
  const double p50 = windowed ? nominal.windowed_p50_ms : nominal.p50_ms;
  const double p99 = windowed ? nominal.windowed_p99_ms : nominal.p99_ms;
  report.set("query_p50_ms", p50, "ms", nominal.queries);
  report.set("query_p99_ms", p99, "ms", nominal.queries);
  report.set("latency_p50_ms", p50, "ms", nominal.queries);
  // query_zipf gates its p95: on a shared machine the p99 at this rate is
  // set by host stalls that come and go over minutes, so it does not
  // repeat from run to run. In epoch_churn the key rotations set the p99.
  report.set("latency_tail_ms", windowed ? nominal.windowed_p95_ms : p99, "ms",
             nominal.queries);
  report.set("fail_rate",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
             "ratio", report.attempted);
  report.set("ok_ratio",
             static_cast<double>(ok) /
                 static_cast<double>(std::max<std::uint64_t>(1, queries)),
             "ratio", queries);
}

/// Request plus response bytes of kQuery frames per query, over `levels`.
void set_bytes_per_query(Report& report, const std::vector<LevelStats>& levels) {
  std::uint64_t bytes = 0;
  std::uint64_t queries = 0;
  for (const LevelStats& level : levels) {
    bytes += level.wire_bytes;
    queries += level.queries;
  }
  report.set("bytes_per_query",
             static_cast<double>(bytes) /
                 static_cast<double>(std::max<std::uint64_t>(1, queries)),
             "B", queries);
}

/// Every per-layer metric of the query and update paths, for a traced
/// query workload: counters as deltas over the measured phase, stage
/// times from the spans. `provider_log` is null when there were no
/// provider writes.
void query_layer_report(Report& report, QueryStack& stack,
                        const Corpus& corpus, std::uint64_t seed,
                        const std::vector<LevelStats>& levels,
                        const LevelStats& nominal,
                        const RegistryProbe& registry0,
                        const StoreProbe& store0, const SpanLog& main_log,
                        std::int64_t last_setup_start,
                        const SpanLog* provider_log) {
  const RegistryProbe registry1 = RegistryProbe::read();
  const StoreProbe store1 = StoreProbe::read(stack);
  const std::uint64_t enqueued = registry1.enqueued - registry0.enqueued;
  const double crypto_us_per_query =
      enqueued > 0 ? static_cast<double>(registry1.crypto_ns -
                                         registry0.crypto_ns) /
                         1e3 / static_cast<double>(enqueued)
                   : 0.0;
  std::uint64_t calls = 0, req = 0, resp = 0, shed = 0;
  for (const auto& worker : stack.workers()) {
    calls += worker->channel.queries().calls;
    req += worker->channel.queries().request_bytes;
    resp += worker->channel.queries().response_bytes;
    shed += worker->shed;
  }
  std::uint64_t degraded = 0, attempts = 0, queries = 0;
  for (const LevelStats& level : levels) {
    degraded += level.degraded + level.unknown;
    attempts += level.attempts;
    queries += level.queries;
  }
  const auto per = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  report.set("load.late_ms_p99", nominal.late_p99_ms, "ms", nominal.queries);
  report.set("load.backlog_max", nominal.backlog_max, "count", nominal.queries);
  report.set("net.client.attempts", per(static_cast<double>(attempts), queries),
             "count/query", queries);
  report.set("net.client.degraded", static_cast<double>(degraded), "count",
             queries);
  report.set("net.transport.calls", static_cast<double>(calls), "count", calls);
  report.set("net.transport.req_bytes", per(static_cast<double>(req), calls),
             "B/call", calls);
  report.set("net.transport.resp_bytes", per(static_cast<double>(resp), calls),
             "B/call", calls);
  report.set("net.node.shed",
             static_cast<double>(shed + registry1.pipeline_shed -
                                 registry0.pipeline_shed),
             "count", queries);
  const std::uint64_t batches = registry1.batch_count - registry0.batch_count;
  report.set("net.pipeline.batches", static_cast<double>(batches), "count",
             batches);
  report.set("net.pipeline.batch_mean",
             per(registry1.batch_sum - registry0.batch_sum, batches), "queries",
             batches);
  report.set("net.pipeline.crypto_us_per_query", crypto_us_per_query, "us",
             enqueued);
  query_layer_metrics(report, worker_spans(stack), crypto_us_per_query);

  const auto setup_spans =
      durations(main_log.spans(), "oprf.setup", ms, last_setup_start);
  report.set("oprf.setup_ms", quantile_of(setup_spans, 0.5), "ms",
             setup_spans.size());
  if (provider_log != nullptr) {
    const auto& spans = provider_log->spans();
    const auto updates = durations(spans, "oprf.update", ms);
    const auto rotations = durations(spans, "oprf.rotate", ms);
    const auto publishes = durations(spans, "tlog.publish", ms);
    const auto syncs = durations(spans, "tlog.sync", ms);
    report.set("oprf.update_ms_p50", quantile_of(updates, 0.5), "ms",
               updates.size());
    report.set("oprf.rotate_ms", quantile_of(rotations, 0.5), "ms",
               rotations.size());
    report.set("tlog.publish_ms_p50", quantile_of(publishes, 0.5), "ms",
               publishes.size());
    report.set("tlog.sync_ms_p50", quantile_of(syncs, 0.5), "ms", syncs.size());
  }
  report.set("tlog.delta_bytes",
             static_cast<double>(registry1.delta_bytes - registry0.delta_bytes),
             "B", 0);
  report.set("tlog.full_bytes",
             static_cast<double>(registry1.full_bytes - registry0.full_bytes),
             "B", 0);
  report.set("store.ops", static_cast<double>(store1.ops - store0.ops), "count",
             0);
  report.set("store.bytes_written",
             static_cast<double>(store1.bytes_written - store0.bytes_written),
             "B", 0);
  report.set("store.busy_us",
             us(static_cast<std::int64_t>(store1.busy_ns - store0.busy_ns)),
             "us", 0);
  oprf_direct_metrics(report, stack, corpus, seed);
}

unsigned query_workers(const RunOptions& options, unsigned reserved) {
  return std::max(1u, options.threads - reserved);
}

/// Builds the query stack kSetupRepeats times, timing each build (the
/// median is setup_s), and keeps the last; `*last_start` receives when
/// that one began, so its spans can be told from the earlier builds'.
std::unique_ptr<QueryStack> build_stack(Report& report, const Corpus& corpus,
                                        const RunOptions& options,
                                        unsigned workers,
                                        std::int64_t* last_start) {
  StackOptions stack_options;
  stack_options.workers = workers;
  stack_options.setup_threads = options.threads;
  stack_options.traced = options.traced;
  stack_options.seed = options.seed;
  std::vector<double> times;
  std::unique_ptr<QueryStack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();  // tear the previous one down outside the timed part
    *last_start = now_ns();
    stack = std::make_unique<QueryStack>(corpus, stack_options);
    times.push_back(seconds_since(*last_start));
  }
  report.set("setup_s", quantile_of(times, 0.5), "s", times.size());
  return stack;
}

}  // namespace

// ---- query_zipf ------------------------------------------------------------

Report run_query_zipf(const RunOptions& options) {
  Report report;
  report.workload = "query_zipf";
  report.traced = options.traced;
  zero_layer_metrics(report);

  const Corpus corpus(query_universe(), 0, options.seed);
  const unsigned workers = query_workers(options, 1);
  SpanLog main_log(1000);
  set_active_log(options.traced ? &main_log : nullptr);

  std::int64_t last_setup_start = 0;
  auto stack = build_stack(report, corpus, options, workers, &last_setup_start);

  const VerdictCheck check{&corpus, nullptr, nullptr};
  // Warm-up, not counted: caches, allocator and branch predictors reach
  // their steady state before the first segment.
  run_closed(*stack, check, workers,
             static_cast<std::int64_t>(options.seconds * kWarmupShare * 1e9),
             options.seed, 0);

  const RegistryProbe registry0 = RegistryProbe::read();
  const StoreProbe store0 = StoreProbe::read(*stack);
  std::vector<LevelStats> levels;
  std::uint64_t next_request = 1;
  std::size_t level_index = 0;
  std::vector<LevelRun> nominal_runs;
  const auto run_rate = [&](double rate, double share, bool nominal_segment) {
    const std::size_t count = std::max(
        kMinLevelQueries,
        static_cast<std::size_t>(rate * options.seconds * share));
    const LevelPlan plan = plan_level(corpus, TrafficConfig{}, rate, count,
                                      workers, options.seed, level_index++,
                                      next_request);
    next_request += count;
    LevelRun run = run_level(*stack, plan, check);
    const LevelStats stats = summarize(run);
    report.note(level_line(stats));
    levels.push_back(stats);
    if (nominal_segment) nominal_runs.push_back(std::move(run));
    return stats;
  };
  // A closed-loop segment: every worker sends back to back. Its rate is
  // one throughput sample; its records' latency is service time.
  std::vector<double> closed_qps;
  const auto closed_segment = [&] {
    const LevelRun run = run_closed(
        *stack, check, workers,
        static_cast<std::int64_t>(options.seconds * kClosedShare * 1e9),
        options.seed, closed_qps.size() + 1);
    const LevelStats stats = summarize(run);
    closed_qps.push_back(static_cast<double>(stats.queries) / run.wall_s);
    levels.push_back(stats);
    report.note(format("closed loop, %u workers: n=%6zu  %.1f qps  service "
                       "p50=%.3f ms  fail=%.5f",
                       workers, stats.queries, closed_qps.back(),
                       stats.p50_ms, stats.fail_rate()));
  };
  const auto block = [&] {
    for (int i = 0; i < 2; ++i) {
      run_rate(kNominalQps, kNominalShare, true);
      closed_segment();
    }
  };
  const std::int64_t phase_start = now_ns();
  block();
  // The highest sustained rung so far, and the rate it achieved.
  std::pair<double, double> sustained = {0.0, 0.0};
  for (const double rate : low_ladder_qps()) {
    const LevelStats stats = run_rate(rate, kRungShare, false);
    if (stats.sustained()) sustained = {rate, stats.achieved_qps};
  }
  // Every open-loop level so far runs the same queries in the same order
  // on every run of a seed (closed-loop segments and the high rungs stop
  // where the machine gives out), so their wire bytes repeat exactly.
  std::vector<LevelStats> fixed_levels;
  for (const LevelStats& level : levels) {
    if (level.rate_qps > 0) fixed_levels.push_back(level);
  }
  block();
  int consecutive_failures = 0;
  for (const double rate : high_ladder_qps()) {
    const LevelStats stats = run_rate(rate, kRungShare, false);
    if (stats.sustained()) {
      sustained = {rate, stats.achieved_qps};
      consecutive_failures = 0;
    } else if (++consecutive_failures == 2) {
      break;  // two rates in a row missed the limits: stop climbing
    }
  }
  report.note(format("ladder: highest sustained rate %.0f qps (achieved "
                     "%.1f qps)",
                     sustained.first, sustained.second));
  while (nominal_runs.size() < kWindows) block();
  // One level of the segments back to back: its kWindows windows are
  // exactly the segments.
  LevelRun nominal_run;
  nominal_run.rate_qps = kNominalQps;
  for (std::size_t i = 0; i < nominal_runs.size(); ++i) {
    for (QueryRecord record : nominal_runs[i].records) {
      record.due_ms += 1e7 * static_cast<double>(i);
      nominal_run.records.push_back(record);
    }
  }
  const LevelStats nominal = summarize(nominal_run);
  report.note("nominal rate, all segments: " + level_line(nominal));
  const double phase_s = seconds_since(phase_start);
  report.note(format("measured phase %.2f s over %zu levels; p99 limit "
                     "%.0f ms, fail-rate limit %.3f",
                     phase_s, levels.size(), kP99LimitMs, kFailRateLimit));

  query_metrics(report, nominal, levels, true);
  set_bytes_per_query(report, fixed_levels);
  report.set("sustained_qps", sustained.first, "queries/s", 1);
  report.set("throughput_per_s", quantile_of(closed_qps, kThroughputSegmentQ),
             "1/s", closed_qps.size());
  std::size_t wrong = 0;
  for (const LevelStats& level : levels) {
    wrong += level.wrong;
    if (level.wrong > 0) {
      report.fail_check(format("%zu wrong verdicts at %.0f qps", level.wrong,
                               level.rate_qps));
    }
  }
  report.set("check.wrong_verdicts", static_cast<double>(wrong), "count",
             report.attempted);

  if (options.traced) {
    query_layer_report(report, *stack, corpus, options.seed, levels, nominal,
                       registry0, store0, main_log, last_setup_start, nullptr);
  }
  set_active_log(nullptr);
  return report;
}

// ---- epoch_churn ----------------------------------------------------------

namespace {

/// Provider writes during epoch_churn. No measured cadence is at hand, so
/// these are assumptions, each sized for what the run must show:
/// - an update every kUpdateIntervalMs, adding kAddsPerUpdate churn-pool
///   addresses and removing kRemovesPerUpdate listed ones: writes run
///   beside reads all through the run, and update_lag_ms gets over a
///   hundred samples per run;
/// - every kRotateEvery-th update (every 8 s) rotates the key instead,
///   with the set-up thread count: several rotations per run, so the
///   whole-run tail they set does not hang on a single event. Each one
///   stalls and then slows queries for about two seconds, so at this
///   cadence a fifth of the queries are affected, and the whole-run p50
///   stays a figure of the quiet stretches (with two fifths affected it
///   falls between them and the stalls, and swings from run to run);
/// - kChurnShare of the arrivals aim at churn-pool addresses whose add
///   was due at least kChurnMarginMs earlier: enough queries to new
///   addresses to expose the prefix-list defect (classify_wrong) on every
///   run. They pick among the kChurnRecent latest such adds (two seconds'
///   worth), so each new address draws about the same number of queries
///   and the defect's share does not hang on which addresses came first.
///   The margin is longer than the provider lags its schedule (a key
///   rotation holds it up for about a second), and a query whose add has
///   not completed anyway waits for it, so which queries meet the defect
///   depends on the seed alone, never on thread timing.
constexpr std::int64_t kUpdateIntervalMs = 200;
constexpr std::size_t kAddsPerUpdate = 8;
constexpr std::size_t kRemovesPerUpdate = 4;
constexpr std::size_t kRotateEvery = 40;
constexpr double kChurnShare = 0.2;
constexpr std::size_t kChurnRecent = 10 * kAddsPerUpdate;
constexpr std::int64_t kChurnMarginMs = 3000;

/// Splits epoch_churn's wrong verdicts into the known client defect —
/// ResilientClient fetches the prefix list only once, so an address added
/// under a prefix that was empty at connect time is answered "not listed"
/// locally, tagged fresh — and anything else, which fails the check. Both
/// kinds count as failed queries in fail_rate.
void classify_wrong(Report& report, const Corpus& corpus, unsigned lambda,
                    const std::unordered_set<std::uint32_t>& setup_prefixes,
                    const LevelStats& stats,
                    const std::vector<QueryRecord>& wrong) {
  std::size_t stale_prefix = 0;
  for (const QueryRecord& record : wrong) {
    const std::string& address = corpus.address(record.address);
    const auto prefix = cbl::oprf::Oracle::prefix(
        cbl::ByteView(reinterpret_cast<const std::uint8_t*>(address.data()),
                      address.size()),
        lambda);
    if (record.address >= corpus.churn_begin() && !record.listed &&
        !setup_prefixes.contains(prefix)) {
      ++stale_prefix;
    } else {
      report.fail_check(format("wrong verdict for address %u (verdict %s)",
                               record.address,
                               record.listed ? "listed" : "not listed"));
    }
  }
  report.set("check.wrong_verdicts", static_cast<double>(wrong.size()),
             "count", stats.queries);
  report.set("check.wrong_stale_prefix_list", static_cast<double>(stale_prefix),
             "count", stats.queries);
  report.note(format("wrong verdicts: %zu of %zu queries; %zu match the known "
                     "stale-prefix-list defect (added address, prefix empty at "
                     "connect, answered not-listed as fresh)",
                     wrong.size(), stats.queries, stale_prefix));
}

struct ProviderLog {
  std::vector<double> lag_ms;  // per update
  std::size_t updates = 0;
  std::size_t rotations = 0;
};

}  // namespace

Report run_epoch_churn(const RunOptions& options) {
  Report report;
  report.workload = "epoch_churn";
  report.traced = options.traced;
  zero_layer_metrics(report);

  const unsigned workers = query_workers(options, 1);  // one provider thread
  const auto phase_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  UpdateConfig update_config;
  update_config.interval_ns = kUpdateIntervalMs * 1'000'000;
  update_config.count = static_cast<std::size_t>(
      std::max<std::int64_t>(2, phase_ns / update_config.interval_ns - 1));
  update_config.add_per_batch = kAddsPerUpdate;
  update_config.remove_per_batch = kRemovesPerUpdate;
  // At least one rotation, however short the run.
  update_config.rotate_every =
      std::min(kRotateEvery, update_config.count / 2 + 1);

  const Corpus corpus(query_universe(), update_config.count * kAddsPerUpdate,
                      options.seed);
  const UpdatePlan updates = plan_updates(corpus, update_config, options.seed);
  TrafficConfig traffic;
  traffic.churn_share = kChurnShare;
  traffic.churn_recent = kChurnRecent;
  traffic.churn_margin_ns = kChurnMarginMs * 1'000'000;
  traffic.add_due_ns = updates.add_due_ns;
  traffic.add_version = updates.add_version;

  SpanLog main_log(1000);
  SpanLog provider_log(1001);
  set_active_log(options.traced ? &main_log : nullptr);
  std::int64_t last_setup_start = 0;
  auto stack = build_stack(report, corpus, options, workers, &last_setup_start);

  // Every client fetched this prefix list at connect and keeps it.
  const auto setup_prefixes = stack->server().prefix_list();
  const std::unordered_set<std::uint32_t> prefix_set(setup_prefixes.begin(),
                                                     setup_prefixes.end());

  const RegistryProbe registry0 = RegistryProbe::read();
  const StoreProbe store0 = StoreProbe::read(*stack);
  VersionClock versions;
  const VerdictCheck check{&corpus, &updates.truth, &versions};
  ProviderLog provider;
  const auto rate_count = static_cast<std::size_t>(
      kNominalQps * static_cast<double>(phase_ns) / 1e9);
  const LevelPlan plan = plan_level(corpus, traffic, kNominalQps, rate_count,
                                    workers, options.seed, 0, 1);
  const auto provider_task = [&](std::int64_t t0) {
    set_active_log(options.traced ? &provider_log : nullptr);
    auto& server = stack->server();
    const auto entries = [&](const std::vector<std::uint32_t>& ids) {
      std::vector<std::string> out;
      out.reserve(ids.size());
      for (const auto id : ids) out.push_back(corpus.address(id));
      return out;
    };
    for (std::size_t i = 0; i < updates.updates.size(); ++i) {
      const Update& update = updates.updates[i];
      const auto version = static_cast<std::uint32_t>(i + 1);
      while (now_ns() < t0 + update.due_ns) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const std::int64_t start = now_ns();
      versions.started.store(version, std::memory_order_release);
      if (update.kind == Update::Kind::kRotate) {
        ScopedSpan span("oprf.rotate");
        server.rotate_key(options.threads);
        ++provider.rotations;
      } else {
        ScopedSpan span("oprf.update");
        const auto add = entries(update.add);
        const auto remove = entries(update.remove);
        if (server.add_entries(add) != add.size() ||
            server.remove_entries(remove) != remove.size()) {
          throw std::runtime_error("provider update skipped entries");
        }
      }
      versions.completed.store(version, std::memory_order_release);
      ++provider.updates;
      stack->publish();
      if (stack->sync_mirror() != server.epoch()) {
        throw std::runtime_error("mirror sync did not reach the new epoch");
      }
      provider.lag_ms.push_back(ms(now_ns() - start));
    }
    set_active_log(nullptr);
  };
  const std::int64_t phase_start = now_ns();
  const LevelRun run = run_level(*stack, plan, check, provider_task);
  const LevelStats stats = summarize(run);
  std::vector<QueryRecord> wrong_records;
  std::size_t held = 0;
  for (const QueryRecord& record : run.records) {
    if (record.wrong) wrong_records.push_back(record);
    if (record.held) ++held;
  }
  report.note(level_line(stats));
  report.note(format("%zu queries waited for the update adding their address",
                     held));
  report.note(format("%zu provider updates (%zu key rotations); phase %.2f s",
                     provider.updates, provider.rotations,
                     seconds_since(phase_start)));
  query_metrics(report, stats, {stats}, false);
  set_bytes_per_query(report, {stats});
  classify_wrong(report, corpus, stack->server().lambda(), prefix_set, stats,
                 wrong_records);
  report.set("throughput_per_s",
             static_cast<double>(stats.ok) / stats.wall_s, "1/s", stats.queries);
  report.set("update_lag_ms", quantile_of(provider.lag_ms, 0.5), "ms",
             provider.lag_ms.size());
  if (options.traced) {
    query_layer_report(report, *stack, corpus, options.seed, {stats}, stats,
                       registry0, store0, main_log, last_setup_start,
                       &provider_log);
  }
  set_active_log(nullptr);
  return report;
}

// ---- vote_round -------------------------------------------------------------

namespace {

/// Ceremony size: a committee of 11 (the top of the paper's Table II)
/// drawn from 16 registering candidates.
constexpr std::size_t kCommittee = 11;
constexpr std::size_t kThresh = 16;
/// Rounds measured at least, however long they take: enough for kWindows
/// windows of two rounds.
constexpr std::size_t kMinRounds = 2 * kWindows;
/// A ceremony set-up takes milliseconds, so time more of them.
constexpr int kVoteSetupRepeats = 60;

cbl::voting::EvaluationConfig ceremony_config() {
  cbl::voting::EvaluationConfig config;
  config.committee_size = kCommittee;
  config.thresh = kThresh;
  config.deposit = 100;
  config.reward = 1;
  config.penalty = 1;
  config.provider_deposit = static_cast<cbl::chain::Amount>(2 * kCommittee);
  return config;
}

/// One round's inputs and ceremony, built on `chain`.
struct Round {
  std::vector<unsigned> votes;
  std::unique_ptr<cbl::voting::Ceremony> ceremony;
};

Round make_round(cbl::chain::Blockchain& chain, cbl::Rng& vote_rng,
                 cbl::Rng& ceremony_rng) {
  Round round;
  round.votes.resize(kThresh);
  for (auto& vote : round.votes) vote = static_cast<unsigned>(vote_rng.uniform(2));
  round.ceremony = std::make_unique<cbl::voting::Ceremony>(
      chain, ceremony_config(), round.votes, ceremony_rng);
  return round;
}

/// Checks the round's outcome against the intended votes (participant i
/// was built with votes[i]) of the members the sortition selected.
/// Returns an empty string when the tally is right.
std::string check_tally(const Round& round) {
  auto& ceremony = *round.ceremony;
  auto& contract = ceremony.contract();
  std::uint64_t expected = 0;
  std::size_t selected = 0;
  for (std::size_t i = 0; i < ceremony.participants().size(); ++i) {
    if (!contract.is_selected(ceremony.participants()[i].index)) continue;
    ++selected;
    expected += round.votes.at(i);
  }
  const auto& outcome = contract.outcome();
  if (selected != kCommittee) {
    return format("committee has %zu members, want %zu", selected, kCommittee);
  }
  if (outcome.tally != expected || outcome.total_weight != kCommittee ||
      outcome.approved != (outcome.tally > outcome.total_weight / 2)) {
    return format("tally %llu/%llu approved=%d, intended %llu",
                  static_cast<unsigned long long>(outcome.tally),
                  static_cast<unsigned long long>(outcome.total_weight),
                  outcome.approved ? 1 : 0,
                  static_cast<unsigned long long>(expected));
  }
  return {};
}

/// Per-round observations for the per-layer metrics.
struct RoundTrace {
  std::map<std::string, double> stage_ms;      // voting.<stage>_ms
  std::map<std::string, double> verify_ms;     // by chain method
  double prover_ms = 0.0;
  double storage_gas = 0.0;
  double compute_gas = 0.0;
  double proof_bytes = 0.0;
  double txs = 0.0;
};

using Stage = void (cbl::voting::Ceremony::*)();
/// The six staged Ceremony calls of a round, with their span names; the
/// per-layer metric of each is <name>_ms.
const std::vector<std::pair<const char*, Stage>>& ceremony_stages() {
  static const std::vector<std::pair<const char*, Stage>> stages = {
      {"voting.fund", &cbl::voting::Ceremony::fund_and_shield},
      {"voting.register", &cbl::voting::Ceremony::register_all},
      {"voting.reveal", &cbl::voting::Ceremony::reveal_all},
      {"voting.committee", &cbl::voting::Ceremony::finalize_committee},
      {"voting.vote", &cbl::voting::Ceremony::vote_all},
      {"voting.payoff", &cbl::voting::Ceremony::payoff_and_withdraw},
  };
  return stages;
}

/// One thread's ceremonies: its own chain and seeded streams, and what
/// its rounds measured.
struct Voter {
  Voter(std::uint64_t seed, unsigned index)
      : vote_rng(seeded_rng(seed, "votes" + std::to_string(index))),
        ceremony_rng(seeded_rng(seed, "ceremony" + std::to_string(index))),
        log(index) {}

  cbl::ChaChaRng vote_rng;
  cbl::ChaChaRng ceremony_rng;
  std::unique_ptr<cbl::chain::Blockchain> chain;
  Round next;
  SpanLog log;
  std::vector<double> round_ms;
  std::vector<double> round_end_s;  // from the phase start
  std::vector<double> gas;
  std::vector<RoundTrace> traces;
  std::size_t aborted = 0;
  std::vector<std::string> failures;  // aborted and mis-tallied rounds
};

/// Runs `voter`'s rounds back to back until `budget_ns` has passed since
/// `phase_start` and it has done at least `min_rounds`.
void run_rounds(Voter& voter, bool traced, std::int64_t phase_start,
                std::int64_t budget_ns, std::size_t min_rounds) {
  set_active_log(traced ? &voter.log : nullptr);
  auto& chain = *voter.chain;
  while (voter.round_ms.size() + voter.aborted < min_rounds ||
         now_ns() - phase_start < budget_ns) {
    if (!voter.next.ceremony) {
      voter.next = make_round(chain, voter.vote_rng, voter.ceremony_rng);
    }
    Round round = std::move(voter.next);
    const auto& receipts = chain.receipts();
    const std::size_t receipts0 = receipts.size();
    const std::uint64_t gas0 = chain.total_gas();
    const std::size_t first_span = voter.log.spans().size();
    const std::int64_t start = now_ns();
    try {
      ScopedSpan round_span("vote.round",
                            voter.round_ms.size() + voter.aborted + 1);
      for (const auto& [name, stage] : ceremony_stages()) {
        ScopedSpan stage_span(name);
        ((*round.ceremony).*stage)();
      }
    } catch (const std::exception& e) {
      ++voter.aborted;
      voter.failures.push_back(format("round aborted: %s", e.what()));
      continue;
    }
    const std::int64_t end = now_ns();
    voter.round_ms.push_back(ms(end - start));
    voter.round_end_s.push_back(static_cast<double>(end - phase_start) / 1e9);
    voter.gas.push_back(static_cast<double>(chain.total_gas() - gas0));
    const std::string tally_error = check_tally(round);
    if (!tally_error.empty()) {
      voter.failures.push_back("mis-tallied round: " + tally_error);
    }
    if (traced) {
      // Prover time: the stages' span time minus the on-chain verify time
      // the round's receipts metered.
      RoundTrace trace;
      const auto& spans = voter.log.spans();
      for (std::size_t i = first_span; i < spans.size(); ++i) {
        if (std::string_view(spans[i].name) == "vote.round") continue;
        const double span_ms = ms(spans[i].duration_ns());
        trace.stage_ms[std::string(spans[i].name) + "_ms"] = span_ms;
        trace.prover_ms += span_ms;
      }
      for (std::size_t r = receipts0; r < receipts.size(); ++r) {
        trace.prover_ms -= receipts[r].cpu_micros / 1e3;
        trace.verify_ms[receipts[r].method] += receipts[r].cpu_micros / 1e3;
        trace.storage_gas += static_cast<double>(receipts[r].storage_gas);
        trace.compute_gas += static_cast<double>(receipts[r].compute_gas);
      }
      trace.proof_bytes =
          static_cast<double>(round.ceremony->contract().stored_proof_bytes());
      trace.txs = static_cast<double>(receipts.size() - receipts0);
      voter.traces.push_back(std::move(trace));
    }
  }
  set_active_log(nullptr);
}

}  // namespace

Report run_vote_round(const RunOptions& options) {
  Report report;
  report.workload = "vote_round";
  report.traced = options.traced;
  zero_layer_metrics(report);

  // One voter per query worker a query workload would run, each on its
  // own chain: rounds on several cores at once, so a slow core sets only
  // its share of them.
  std::vector<std::unique_ptr<Voter>> voters;
  for (unsigned i = 0; i < query_workers(options, 1); ++i) {
    voters.push_back(std::make_unique<Voter>(options.seed, i));
  }
  // setup_s times the first voter's set-up; the others set up untimed.
  std::vector<double> setup_times;
  for (int i = 0; i < kVoteSetupRepeats; ++i) {
    Voter& voter = *voters.front();
    voter.next = Round{};
    voter.chain.reset();
    const std::int64_t start = now_ns();
    voter.chain = std::make_unique<cbl::chain::Blockchain>();
    voter.next = make_round(*voter.chain, voter.vote_rng, voter.ceremony_rng);
    setup_times.push_back(seconds_since(start));
  }
  report.set("setup_s", quantile_of(setup_times, 0.5), "s", setup_times.size());
  for (auto& voter : voters) {
    if (voter->chain) continue;
    voter->chain = std::make_unique<cbl::chain::Blockchain>();
    voter->next = make_round(*voter->chain, voter->vote_rng,
                             voter->ceremony_rng);
  }

  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const std::size_t min_rounds = (kMinRounds + voters.size() - 1) / voters.size();
  const std::int64_t phase_start = now_ns();
  run_threads(voters.size(), [&](std::size_t i) {
    run_rounds(*voters[i], options.traced, phase_start, budget_ns, min_rounds);
  });
  const double phase_s = seconds_since(phase_start);

  // Every voter's rounds, in the order they ended.
  std::vector<std::pair<double, double>> by_end;  // (end s, round ms)
  std::vector<double> round_ms;
  std::vector<double> gas;
  std::vector<RoundTrace> traces;
  std::size_t aborted = 0;
  std::size_t mistallied = 0;
  for (const auto& voter : voters) {
    for (std::size_t r = 0; r < voter->round_ms.size(); ++r) {
      by_end.emplace_back(voter->round_end_s[r], voter->round_ms[r]);
    }
    round_ms.insert(round_ms.end(), voter->round_ms.begin(),
                    voter->round_ms.end());
    gas.insert(gas.end(), voter->gas.begin(), voter->gas.end());
    traces.insert(traces.end(), voter->traces.begin(), voter->traces.end());
    aborted += voter->aborted;
    mistallied += voter->failures.size() - voter->aborted;
    for (const std::string& failure : voter->failures) {
      report.fail_check(failure);
    }
  }
  std::sort(by_end.begin(), by_end.end());
  const std::size_t rounds = round_ms.size() + aborted;
  report.attempted = rounds;
  report.failed = aborted + mistallied;
  report.set("check.wrong_verdicts", static_cast<double>(mistallied), "count",
             rounds);

  // Every round does the same work, and a busy host only ever adds time,
  // so (as in query_zipf) the gated figures come from kWindows windows of
  // consecutive rounds: latency is the lower quartile of the windows'
  // p50s and p90s, throughput the upper quartile of their rates.
  const std::size_t per_window = by_end.size() / kWindows;
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  std::vector<double> window_rate;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t first = w * per_window;
    const std::size_t last = first + per_window;  // exclusive
    std::vector<double> values;
    for (std::size_t r = first; r < last; ++r) values.push_back(by_end[r].second);
    window_p50.push_back(quantile(values, 0.5));
    window_p90.push_back(quantile(values, 0.9));
    const double since = first == 0 ? 0.0 : by_end[first - 1].first;
    window_rate.push_back(static_cast<double>(per_window) /
                          (by_end[last - 1].first - since));
  }
  const double p50 = quantile(window_p50, kLatencyWindowQ);
  const double p90 = quantile(window_p90, kLatencyWindowQ);
  report.note(format("%zu rounds on %zu voters (committee %zu of %zu "
                     "candidates) in %.2f s; %zu aborted, %zu mis-tallied",
                     rounds, voters.size(), kCommittee, kThresh, phase_s,
                     aborted, mistallied));
  report.note(format("whole run: p50=%.3f ms p90=%.3f ms %.3f rounds/s; over "
                     "%zu windows of %zu rounds: p50=%.3f ms p90=%.3f ms "
                     "%.3f rounds/s",
                     quantile_of(round_ms, 0.5), quantile_of(round_ms, 0.9),
                     static_cast<double>(round_ms.size()) / phase_s, kWindows,
                     per_window, p50, p90,
                     quantile(window_rate, kThroughputSegmentQ)));
  report.set("vote_round_s", p50 / 1e3, "s", round_ms.size());
  report.set("vote_gas", quantile_of(gas, 0.5), "gas", gas.size());
  report.set("latency_p50_ms", p50, "ms", round_ms.size());
  report.set("latency_tail_ms", p90, "ms", round_ms.size());
  report.set("throughput_per_s", quantile(window_rate, kThroughputSegmentQ),
             "1/s", round_ms.size());
  report.set("fail_rate",
             static_cast<double>(report.failed) / static_cast<double>(rounds),
             "ratio", rounds);
  report.set("ok_ratio",
             static_cast<double>(rounds - report.failed) /
                 static_cast<double>(rounds),
             "ratio", rounds);

  if (options.traced && !traces.empty()) {
    const auto p50_of = [&](auto&& field) {
      std::vector<double> values;
      for (const RoundTrace& t : traces) values.push_back(field(t));
      return quantile(values, 0.5);
    };
    for (const auto& [name, stage] : ceremony_stages()) {
      const std::string key = std::string(name) + "_ms";
      report.set(key,
                 p50_of([&](const RoundTrace& t) { return t.stage_ms.at(key); }),
                 "ms", traces.size());
    }
    report.set("voting.prover_ms",
               p50_of([](const RoundTrace& t) { return t.prover_ms; }), "ms",
               traces.size());
    for (const auto& method : ceremony_methods()) {
      report.set("chain.verify_ms." + method,
                 p50_of([&](const RoundTrace& t) {
                   const auto it = t.verify_ms.find(method);
                   return it == t.verify_ms.end() ? 0.0 : it->second;
                 }),
                 "ms", traces.size());
    }
    report.set("chain.storage_gas",
               p50_of([](const RoundTrace& t) { return t.storage_gas; }), "gas",
               traces.size());
    report.set("chain.compute_gas",
               p50_of([](const RoundTrace& t) { return t.compute_gas; }), "gas",
               traces.size());
    report.set("chain.proof_bytes",
               p50_of([](const RoundTrace& t) { return t.proof_bytes; }), "B",
               traces.size());
    report.set("chain.txs", p50_of([](const RoundTrace& t) { return t.txs; }),
               "count", traces.size());
  }
  set_active_log(nullptr);
  return report;
}

}  // namespace wallbench
