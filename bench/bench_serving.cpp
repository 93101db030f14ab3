// bench_serving — SLO benchmark for the explanation-serving layer
// (DESIGN.md §12): drives thousands of queries through ExplainService
// under uniform and bursty arrivals, plus a fault-injected slow-model
// arm, and emits per-tier p50/p99 latency, shed/demotion rates and the
// FNV-1a result-stream digest as a deterministic JSON SLO report.
//
//   bench_serving [--requests N] [--seed S] [--out FILE]
//                 [--check] [--threads-check]
//
//   --check          enforce the committed SLO thresholds (CI gate):
//                    zero queue overflow, full request accounting,
//                    per-tier p99 within the deadline-derived bound, and
//                    nonzero demotions on the slow arm.
//   --threads-check  run every arm under ThreadPool(1) and ThreadPool(4)
//                    and require byte-identical result-stream digests.
//
// Everything is tick-clocked and seeded: two runs with the same flags
// produce byte-identical JSON on any machine and thread count.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "explora/explain_service.hpp"
#include "ml/features.hpp"
#include "ml/ppo.hpp"
#include "xai/serving.hpp"
#include "xai/tree.hpp"

namespace {

using namespace explora;
using xai::serving::kNumTiers;
using xai::serving::ShedReason;
using xai::serving::Tier;

struct CliOptions {
  std::size_t requests = 600;  ///< arrivals per arm
  std::uint64_t seed = 2027;
  std::string out_file;
  bool check = false;
  bool threads_check = false;
};

void usage() {
  std::fputs(
      "usage: bench_serving [options]\n"
      "  --requests N     arrivals per arm (default 600)\n"
      "  --seed S         arrival/latent stream seed (default 2027)\n"
      "  --out FILE       write the JSON SLO report here (default stdout)\n"
      "  --check          enforce committed SLO thresholds\n"
      "  --threads-check  byte-compare digests across thread pools {1,4}\n",
      stderr);
}

/// One load arm: arrival pattern plus fault injection on the model-eval
/// tiers. A burst of `burst_size` requests lands every `burst_period`
/// ticks (size 1 = uniform arrivals).
struct ArmSpec {
  const char* name;
  std::size_t burst_size;
  std::int64_t burst_period;
  double eval_slow_probability;
  std::int64_t eval_slow_factor;
  double eval_failure_probability;
};

constexpr std::array<ArmSpec, 3> kArms{{
    {"uniform", 1, 96, 0.0, 4, 0.0},
    {"bursty", 12, 256, 0.0, 4, 0.0},
    {"bursty_slow", 12, 256, 0.30, 4, 0.05},
}};

struct ArmResult {
  ExplainService::Stats stats;
  std::uint64_t delivered = 0;
  std::uint64_t shed_notices = 0;
  std::uint64_t ladder_demotions = 0;
  std::uint64_t ladder_promotions = 0;
  std::uint64_t digest = common::kFnvBasis;
  std::array<std::vector<std::int64_t>, kNumTiers> latencies;
};

void fold_results(const std::vector<ExplanationResult>& results,
                  ArmResult& arm) {
  for (const ExplanationResult& r : results) {
    if (r.shed_reason == ShedReason::kNone) {
      ++arm.delivered;
      arm.latencies[static_cast<std::size_t>(r.tier)].push_back(r.latency);
    } else {
      ++arm.shed_notices;
    }
    common::fnv1a_word(arm.digest, r.id);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(r.output_index) << 32) |
        (static_cast<std::uint64_t>(r.tier) << 16) |
        (static_cast<std::uint64_t>(r.shed_reason) << 8) |
        (static_cast<std::uint64_t>(r.degraded) << 1) |
        static_cast<std::uint64_t>(r.from_cache);
    common::fnv1a_word(arm.digest, packed);
    common::fnv1a_word(arm.digest, static_cast<std::uint64_t>(r.latency));
    for (const double phi : r.attribution) {
      common::fnv1a_word(arm.digest, std::bit_cast<std::uint64_t>(phi));
    }
  }
}

xai::DecisionTreeClassifier make_surrogate(std::uint64_t seed) {
  xai::Dataset data;
  common::Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    ml::Vector x(ml::kLatentDim);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    data.labels.push_back(x[0] > 0.0 ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  xai::DecisionTreeClassifier tree;
  tree.fit(data, 2);
  return tree;
}

ExplainService::Config service_config(const ArmSpec& spec,
                                      std::uint64_t seed,
                                      common::ThreadPool* pool) {
  ExplainService::Config config;
  config.queue_capacity = 16;
  config.workers = 2;
  config.sampled_permutations = 8;
  config.max_background = 4;
  config.seed = seed;
  config.pool = pool;
  config.eval_slow_probability = spec.eval_slow_probability;
  config.eval_slow_factor = spec.eval_slow_factor;
  config.eval_failure_probability = spec.eval_failure_probability;
  return config;
}

ArmResult run_arm(const ArmSpec& spec, std::size_t requests,
                  std::uint64_t seed, common::ThreadPool* pool) {
  telemetry::ScopedRegistry registry;
  ml::PpoAgent agent(11);
  const xai::DecisionTreeClassifier surrogate = make_surrogate(seed + 1);

  common::Rng root(seed);
  common::Rng latents = root.fork(std::string("serving.bench.latents.") +
                                  spec.name);
  common::Rng heads =
      root.fork(std::string("serving.bench.heads.") + spec.name);

  std::vector<ml::Vector> background;
  for (int r = 0; r < 4; ++r) {
    ml::Vector row(ml::kLatentDim);
    for (auto& v : row) v = latents.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }

  ExplainService service(agent, background, &surrogate,
                         service_config(spec, seed, pool));

  ArmResult arm;
  ml::Vector x(ml::kLatentDim);
  ml::AgentAction action;
  std::size_t submitted = 0;
  std::int64_t tick = 0;
  while (submitted < requests) {
    ++tick;
    service.on_tick(tick);
    if (tick % spec.burst_period == 0) {
      for (std::size_t b = 0; b < spec.burst_size && submitted < requests;
           ++b, ++submitted) {
        for (auto& v : x) v = latents.uniform(-1.0, 1.0);
        const auto head =
            static_cast<std::uint32_t>(heads.index(ml::kNumHeads));
        action.prb_choice = heads.index(4);
        action.sched_choice = {heads.index(3), heads.index(3),
                               heads.index(3)};
        (void)service.submit(x, head, action, tick);
      }
    }
    fold_results(service.drain(), arm);
  }
  // Bounded tail drain: worst case is a slow-inflated exact eval plus the
  // full deadline, repeated for everything still queued.
  const std::int64_t chunk =
      service.config().costs.cost(Tier::kExact) * spec.eval_slow_factor +
      service.config().default_deadline;
  for (int rounds = 0;
       rounds < 64 && (service.queue().depth() > 0 ||
                       service.busy_workers() > 0);
       ++rounds) {
    service.run_until(tick, tick + chunk);
    tick += chunk;
    fold_results(service.drain(), arm);
  }
  fold_results(service.drain(), arm);

  arm.stats = service.stats();
  arm.ladder_demotions = service.ladder().demotions();
  arm.ladder_promotions = service.ladder().promotions();
  for (auto& tier_latencies : arm.latencies) {
    std::sort(tier_latencies.begin(), tier_latencies.end());
  }
  return arm;
}

/// Nearest-rank percentile of a sorted sample; 0 when empty.
std::int64_t percentile(const std::vector<std::int64_t>& sorted, int pct) {
  if (sorted.empty()) return 0;
  const std::size_t rank =
      (sorted.size() * static_cast<std::size_t>(pct) + 99) / 100;
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::string json_report(const std::vector<ArmResult>& arms,
                        const CliOptions& options) {
  std::string out;
  out += "{\n";
  out += "  \"requests_per_arm\": " + std::to_string(options.requests) +
         ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"arms\": [\n";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ArmSpec& spec = kArms[a];
    const ArmResult& arm = arms[a];
    out += std::string("    {\"name\": \"") + spec.name + "\"";
    out += ", \"submitted\": " + std::to_string(arm.stats.submitted);
    out += ", \"accepted\": " + std::to_string(arm.stats.accepted);
    out += ", \"delivered\": " + std::to_string(arm.delivered);
    out += ", \"shed\": " + std::to_string(arm.stats.shed_total());
    for (std::size_t r = 1; r < arm.stats.shed_by_reason.size(); ++r) {
      out += std::string(", \"shed_") +
             std::string(to_string(static_cast<ShedReason>(r))) +
             "\": " + std::to_string(arm.stats.shed_by_reason[r]);
    }
    out += ", \"demoted_requests\": " +
           std::to_string(arm.stats.demoted_requests);
    out += ", \"ladder_demotions\": " +
           std::to_string(arm.ladder_demotions);
    out += ", \"ladder_promotions\": " +
           std::to_string(arm.ladder_promotions);
    out += ", \"eval_faults\": " + std::to_string(arm.stats.eval_faults);
    out += ", \"breaker_trips\": " +
           std::to_string(arm.stats.breaker_trips);
    out += ", \"queue_high_water\": " +
           std::to_string(arm.stats.queue_high_water);
    out += ", \"queue_capacity\": " +
           std::to_string(arm.stats.queue_capacity);
    out += ", \"tiers\": {";
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      const auto& lat = arm.latencies[t];
      out += std::string(t == 0 ? "" : ", ") + "\"" +
             std::string(to_string(static_cast<Tier>(t))) + "\": ";
      out += "{\"served\": " + std::to_string(lat.size());
      out += ", \"p50\": " + std::to_string(percentile(lat, 50));
      out += ", \"p99\": " + std::to_string(percentile(lat, 99)) + "}";
    }
    out += "}";
    out += ", \"digest\": " + std::to_string(arm.digest);
    out += "}";
    if (a + 1 < arms.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

/// Committed SLO thresholds. The p99 bound per tier is derived from the
/// dispatch rule, not tuned: a request is dispatched at tier t only while
/// deadline - now >= cost[t], so latency <= (deadline - cost[t]) +
/// actual_cost, and actual cost is at most slow_factor * cost[t] on the
/// model-eval tiers (surrogate/cached are never inflated).
bool check_slos(const std::vector<ArmResult>& arms) {
  bool ok = true;
  auto fail = [&ok](const std::string& message) {
    std::fprintf(stderr, "bench_serving: SLO FAIL — %s\n", message.c_str());
    ok = false;
  };
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ArmSpec& spec = kArms[a];
    const ArmResult& arm = arms[a];
    const std::string prefix = std::string(spec.name) + ": ";
    if (arm.stats.queue_high_water > arm.stats.queue_capacity) {
      fail(prefix + "queue grew past its bound");
    }
    if (arm.stats.accepted != arm.delivered + arm.shed_notices) {
      fail(prefix + "accepted != delivered + shed notices (" +
           std::to_string(arm.stats.accepted) + " != " +
           std::to_string(arm.delivered) + " + " +
           std::to_string(arm.shed_notices) + ")");
    }
    if (arm.delivered == 0) fail(prefix + "nothing delivered");
    const xai::serving::CostModel costs;
    const std::int64_t deadline = 192;  // ExplainService default
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      if (arm.latencies[t].empty()) continue;
      const bool eval_tier = t <= static_cast<std::size_t>(Tier::kSampled);
      const std::int64_t slow =
          eval_tier ? spec.eval_slow_factor : 1;
      const std::int64_t cost = costs.worst_case[t];
      const std::int64_t bound = deadline - cost + slow * cost;
      const std::int64_t p99 = percentile(arm.latencies[t], 99);
      if (p99 > bound) {
        fail(prefix + std::string(to_string(static_cast<Tier>(t))) +
             " p99 " + std::to_string(p99) + " > bound " +
             std::to_string(bound));
      }
    }
  }
  // Burst pressure must actually exercise the ladder, and the slow arm
  // must demote requests and record eval faults.
  const ArmResult& bursty = arms[1];
  if (bursty.ladder_demotions == 0) {
    fail("bursty: ladder never demoted under burst load");
  }
  const ArmResult& slow = arms[2];
  if (slow.stats.demoted_requests == 0) {
    fail("bursty_slow: no demoted requests");
  }
  if (slow.stats.eval_faults == 0) {
    fail("bursty_slow: fault injection produced no eval faults");
  }
  return ok;
}

bool threads_check(const CliOptions& options) {
  bool ok = true;
  common::ThreadPool pool_one(1);
  common::ThreadPool pool_four(4);
  for (const ArmSpec& spec : kArms) {
    const ArmResult one =
        run_arm(spec, options.requests, options.seed, &pool_one);
    const ArmResult four =
        run_arm(spec, options.requests, options.seed, &pool_four);
    if (one.digest != four.digest) {
      std::fprintf(stderr,
                   "bench_serving: THREADS FAIL — arm %s digest %llu "
                   "(1 thread) != %llu (4 threads)\n",
                   spec.name,
                   static_cast<unsigned long long>(one.digest),
                   static_cast<unsigned long long>(four.digest));
      ok = false;
    } else {
      std::fprintf(stderr,
                   "bench_serving: arm %s byte-identical across thread "
                   "pools (digest %llu)\n",
                   spec.name,
                   static_cast<unsigned long long>(one.digest));
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests") {
      options.requests = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      options.out_file = next();
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--threads-check") {
      options.threads_check = true;
    } else {
      usage();
      return 2;
    }
  }
  std::vector<ArmResult> arms;
  arms.reserve(kArms.size());
  for (const ArmSpec& spec : kArms) {
    arms.push_back(run_arm(spec, options.requests, options.seed, nullptr));
  }

  const std::string json = json_report(arms, options);
  if (options.out_file.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(options.out_file, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n",
                   options.out_file.c_str());
      return 2;
    }
    out << json;
  }

  bool ok = true;
  if (options.check) ok = check_slos(arms) && ok;
  if (options.threads_check) ok = threads_check(options) && ok;
  return ok ? 0 : 1;
}
