#include "schedule.h"

#include <algorithm>
#include <numeric>

#include "blocklist/address.h"
#include "load/arrivals.h"
#include "load/zipf.h"

namespace wallbench {

cbl::ChaChaRng seeded_rng(std::uint64_t seed, const std::string& stream) {
  return cbl::ChaChaRng::from_string_seed("wallbench/" + stream + "/" +
                                          std::to_string(seed));
}

namespace {

template <typename T>
void shuffle(std::vector<T>& values, cbl::Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.uniform(i)]);
  }
}

}  // namespace

Corpus::Corpus(const cbl::load::WorkloadConfig& config, std::size_t churn_pool,
               std::uint64_t seed)
    : Corpus(config, churn_pool, seeded_rng(seed, "corpus")) {}

Corpus::Corpus(const cbl::load::WorkloadConfig& config, std::size_t churn_pool,
               cbl::ChaChaRng&& rng)
    : workload_(config, rng) {
  // Workload draws Bitcoin addresses; the pool is Ethereum ones, so the
  // two never collide.
  churn_.reserve(churn_pool);
  for (std::size_t i = 0; i < churn_pool; ++i) {
    churn_.push_back(
        cbl::blocklist::random_address(cbl::blocklist::Chain::kEthereum, rng));
  }
}

std::uint32_t Corpus::sample(cbl::Rng& rng) const {
  return static_cast<std::uint32_t>(workload_.sample(rng).address -
                                    workload_.addresses().data());
}

LevelPlan plan_level(const Corpus& corpus, const TrafficConfig& traffic,
                     double rate_qps, std::size_t count, unsigned workers,
                     std::uint64_t seed, std::size_t level_index,
                     std::uint64_t first_request) {
  const std::string label = "level" + std::to_string(level_index);
  auto arrival_rng = seeded_rng(seed, label + "/arrivals");
  auto address_rng = seeded_rng(seed, label + "/addresses");
  auto churn_rng = seeded_rng(seed, label + "/churn");
  const auto dues = cbl::load::poisson_schedule_ns(rate_qps, count, arrival_rng);

  LevelPlan plan;
  plan.rate_qps = rate_qps;
  plan.per_worker.resize(workers);
  for (auto& queue : plan.per_worker) queue.reserve(count / workers + 1);
  for (std::size_t i = 0; i < count; ++i) {
    PlannedQuery query;
    query.due_ns = static_cast<std::int64_t>(dues[i]);
    query.request = first_request + i;
    // Every draw happens for every arrival, so the address stream never
    // depends on which branch an earlier arrival took.
    query.address = corpus.sample(address_rng);
    const double u = cbl::load::uniform_unit(churn_rng);
    const std::uint64_t pick = churn_rng.uniform(1ull << 32);
    if (u < traffic.churn_share) {
      const auto added = static_cast<std::size_t>(
          std::upper_bound(traffic.add_due_ns.begin(),
                           traffic.add_due_ns.end(),
                           query.due_ns - traffic.churn_margin_ns) -
          traffic.add_due_ns.begin());
      if (added > 0) {
        const std::size_t recent = std::min(added, traffic.churn_recent);
        const std::size_t pool_index = added - 1 - pick % recent;
        query.address =
            static_cast<std::uint32_t>(corpus.churn_begin() + pool_index);
        query.after_version = traffic.add_version[pool_index];
      }
    }
    plan.per_worker[i % workers].push_back(query);
  }
  return plan;
}

bool Truth::listed_at(std::uint32_t address, std::uint32_t version) const {
  bool listed = corpus_->initially_listed(address);
  const auto it = flips_.find(address);
  if (it == flips_.end()) return listed;
  for (const std::uint32_t flip : it->second) {
    if (flip <= version) listed = !listed;
  }
  return listed;
}

bool Truth::matches_some(std::uint32_t address, bool listed,
                         std::uint32_t lo, std::uint32_t hi) const {
  for (std::uint32_t v = lo; v <= hi; ++v) {
    if (listed_at(address, v) == listed) return true;
  }
  return false;
}

UpdatePlan plan_updates(const Corpus& corpus, const UpdateConfig& config,
                        std::uint64_t seed) {
  auto rng = seeded_rng(seed, "updates");
  UpdatePlan plan{{}, Truth(corpus), {}, {}};
  // Removal candidates: the initially listed set, in seeded order.
  std::vector<std::uint32_t> removable(corpus.listed_count());
  std::iota(removable.begin(), removable.end(), 0u);
  shuffle(removable, rng);
  std::size_t next_remove = 0;
  std::size_t next_add = 0;
  for (std::size_t i = 0; i < config.count; ++i) {
    Update update;
    update.due_ns = static_cast<std::int64_t>(i + 1) * config.interval_ns;
    const auto version = static_cast<std::uint32_t>(i + 1);
    if (config.rotate_every > 0 && (i + 1) % config.rotate_every == 0) {
      update.kind = Update::Kind::kRotate;
    } else {
      for (std::size_t k = 0; k < config.add_per_batch &&
                              next_add < corpus.churn_pool();
           ++k, ++next_add) {
        const auto address =
            static_cast<std::uint32_t>(corpus.churn_begin() + next_add);
        update.add.push_back(address);
        plan.truth.record_flip(address, version);
        plan.add_due_ns.push_back(update.due_ns);
        plan.add_version.push_back(version);
      }
      for (std::size_t k = 0;
           k < config.remove_per_batch && next_remove < removable.size();
           ++k, ++next_remove) {
        update.remove.push_back(removable[next_remove]);
        plan.truth.record_flip(removable[next_remove], version);
      }
    }
    plan.updates.push_back(std::move(update));
  }
  return plan;
}

}  // namespace wallbench
