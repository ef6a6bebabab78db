// Reproduces Fig. 6: maximum concurrent requests sustainable by one
// server as a function of the fraction of queries that need online
// interaction (0.25%..4%, center 1% = blocklist/address-universe ratio),
// for the small-response setting (k~4: CPU-bound, left panel) and the
// large-response setting (k~977: bandwidth-bound, right panel).
//
// Per-online-query CPU cost is measured from the real library; the
// population-scale concurrency comes from the closed-form capacity model.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "blocklist/generator.h"
#include "common/rng.h"
#include "netsim/capacity.h"
#include "oprf/client.h"
#include "oprf/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using cbl::ChaChaRng;
namespace oprf = cbl::oprf;
namespace netsim = cbl::netsim;

// Measures the server-side CPU cost of one online query at a given
// lambda over a scaled corpus (the exponentiation dominates and is
// corpus-size independent; bucket serialization scales with k).
double measure_online_cpu_us(unsigned lambda) {
  auto rng = ChaChaRng::from_string_seed("fig6");
  auto server_rng = ChaChaRng::from_string_seed("fig6-server");
  auto client_rng = ChaChaRng::from_string_seed("fig6-client");
  const auto corpus =
      cbl::blocklist::generate_corpus(4'096, rng).addresses();

  oprf::OprfServer server(oprf::Oracle::fast(), lambda, server_rng);
  server.setup(corpus);
  oprf::OprfClient client(oprf::Oracle::fast(), lambda, client_rng);

  const int reps = 100;
  std::vector<oprf::OprfClient::Prepared> prepared;
  prepared.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    prepared.push_back(client.prepare(corpus[static_cast<std::size_t>(i)]));
  }
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    (void)server.handle(prepared[static_cast<std::size_t>(i)].request);
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
             .count() /
         reps;
}

void run_panel(const char* title, const char* panel_tag,
               double response_bytes, double cpu_us,
               cbl::benchjson::Summary& summary) {
  netsim::ServerProfile server;       // the paper's 8-core server
  server.cpu_cores = 8;
  server.bandwidth_bits_per_sec = 1e9;

  std::printf("\n--- %s (resp %.2f KB, %.0f us CPU/online query) ---\n",
              title, response_bytes / 1024.0, cpu_us);
  std::printf("%-14s %-22s %-22s %-22s %-10s\n", "online frac",
              "CPU-bound clients", "BW-bound clients", "max concurrent",
              "binding");

  summary.add({"fig6/online_query_cpu", std::string("panel=") + panel_tag,
               cpu_us * 1e3, response_bytes});

  for (const double f : {0.0025, 0.005, 0.01, 0.02, 0.04}) {
    netsim::WorkloadProfile w;
    w.online_fraction = f;
    w.queries_per_client_per_sec = 1.0;
    w.cpu_us_per_online_query = cpu_us;
    w.response_bytes = response_bytes;
    w.request_bytes = 64;
    const auto est = netsim::estimate_capacity(server, w);
    std::printf("%-14.2f%% %-22.0f %-22.0f %-22.0f %-10s\n", f * 100,
                est.cpu_bound_clients, est.bandwidth_bound_clients,
                est.max_concurrent_clients,
                est.cpu_limited ? "CPU" : "bandwidth");
    char params[96];
    std::snprintf(params, sizeof params, "panel=%s,online_frac=%.2f%%",
                  panel_tag, f * 100);
    summary.add({"fig6/max_concurrent", params, cpu_us * 1e3, response_bytes,
                 est.max_concurrent_clients, "clients"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      cbl::benchjson::json_path_from_args(argc, argv);
  cbl::benchjson::Summary summary("fig6");

  std::printf("=== Fig. 6: max concurrent requests vs online-query "
              "fraction ===\n");

  const double cpu_small = measure_online_cpu_us(16);
  const double cpu_large = measure_online_cpu_us(8);

  // Response payloads at the paper's 243k-entry scale.
  run_panel("left panel: k~4 setting (CPU-constrained)", "k4", 4 * 32.0,
            cpu_small, summary);
  run_panel("right panel: k~977 setting (bandwidth-constrained)", "k977",
            977 * 32.0, cpu_large, summary);

  std::printf(
      "\nPaper shape to check: capacity falls ~1/f in both panels; the "
      "small-response setting saturates CPU first, while the stronger "
      "k~977 setting saturates bandwidth first.\n");

  if (!json_path.empty() && summary.write(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
