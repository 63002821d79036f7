// train_ppo: rl::PPOTrainer on a PIK-IPLEX trace with trajectory filtering,
// at the bench_common defaults (12 trajectories x 256 jobs, 10 policy and 10
// value iterations, minibatch 512) with 2 workers and B = 8. The first
// epoch belongs to set-up: it also estimates the filter range R.
//
// Correctness: every epoch's avg_metric must be finite, and repeated set-ups
// must train bitwise the same first epoch. The run prints a fingerprint of
// the first kFingerprintEpochs epochs' metrics and the value parameters
// after them; it depends only on the seed.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rl/filter.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rlsched;

constexpr std::size_t kTraceJobs = 10000;
/// Epochs covered by the fingerprint, set-up epoch included; every run
/// trains at least this many.
constexpr std::size_t kFingerprintEpochs = 5;
constexpr std::size_t kChunk = 64;  ///< the trainer's gradient chunk width
constexpr std::size_t kSjfProbes = 50;
/// Set-up here includes a training epoch, so it is repeated fewer times
/// than the other workloads' set-up.
constexpr int kTrainSetupRepeats = 3;

rl::PPOConfig ppo_config(std::uint64_t seed) {
  rl::PPOConfig cfg;
  cfg.metric = sim::Metric::BoundedSlowdown;
  cfg.policy = rl::PolicyKind::Kernel;
  cfg.trajectory_filtering = true;
  cfg.seq_len = 256;
  cfg.trajectories_per_epoch = 12;
  cfg.pi_iters = 10;
  cfg.v_iters = 10;
  cfg.minibatch = 512;
  cfg.seed = seed;
  cfg.n_workers = 2;
  cfg.batch = 8;
  return cfg;
}

/// Forward and backward cost of the policy on 64-window chunks of the last
/// epoch's observations, on a clone so the trainer's state is untouched.
void chunk_probe(const rl::PPOTrainer& trainer, Tracer& tracer) {
  SpanLog* log = tracer.make_log();
  const std::uint32_t n_fwd = tracer.name("nn.policy_fwd_chunk");
  const std::uint32_t n_bwd = tracer.name("nn.policy_bwd_chunk");
  util::Rng rng(1);
  auto clone = rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable,
                               rng);
  clone->param_vector() = trainer.policy().param_vector();
  std::vector<const rl::Observation*> obs(kChunk);
  std::vector<float> logits(kChunk * rl::kMaxObservable);
  std::vector<float> dlogits(kChunk * rl::kMaxObservable);
  std::vector<float> grad(clone->parameter_count(), 0.0f);
  for (std::size_t i = 0; i < dlogits.size(); ++i) {
    dlogits[i] = 1e-3f * static_cast<float>(static_cast<int>(i % 7) - 3);
  }
  for (std::size_t c = 0; c + kChunk <= trainer.steps(); c += kChunk) {
    for (std::size_t k = 0; k < kChunk; ++k) {
      obs[k] = &trainer.observation(c + k);
    }
    {
      Scope s(log, n_fwd, c / kChunk);
      clone->logits_batch(obs.data(), kChunk, logits.data());
    }
    {
      Scope s(log, n_bwd, c / kChunk);
      clone->backward_batch(obs.data(), kChunk, dlogits.data(), nullptr,
                            grad.data());
    }
  }
}

/// rl::sjf_metric — the filter's difficulty probe — on fresh sequences.
void sjf_probe(const trace::Trace& trace, std::uint64_t seed,
               Tracer& tracer) {
  SpanLog* log = tracer.make_log();
  const std::uint32_t n_probe = tracer.name("rl.sjf_probe");
  util::Rng rng(util::Rng::mix64(seed ^ 0x5CF1ULL));
  std::vector<trace::Job> seq;
  for (std::size_t i = 0; i < kSjfProbes; ++i) {
    trace.sample_sequence_into(rng, 256, seq);
    Scope s(log, n_probe, i);
    (void)rl::sjf_metric(seq, trace.processors(),
                         sim::Metric::BoundedSlowdown);
  }
}

}  // namespace

Outcome run_train_ppo(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;
  SpanLog* log = tracer.make_log();
  const std::uint32_t n_epoch = tracer.name("ppo.epoch");

  // Set-up, repeated: trace, trainer, and the first epoch.
  trace::Trace trace;
  std::unique_ptr<rl::PPOTrainer> trainer;
  std::vector<double> setup;
  std::vector<rl::EpochStats> epochs;
  for (int rep = 0; rep < kTrainSetupRepeats; ++rep) {
    trainer.reset();
    const auto t0 = Clock::now();
    trace = workload::make_trace("PIK-IPLEX", kTraceJobs, cfg.seed);
    trainer = std::make_unique<rl::PPOTrainer>(trace, ppo_config(cfg.seed));
    rl::EpochStats first;
    {
      Scope s(log, n_epoch, 0);
      first = trainer->train_epoch();
    }
    setup.push_back(seconds_between(t0, Clock::now()));
    out.attempted += 1;
    if (rep > 0 && std::memcmp(&first.avg_metric, &epochs[0].avg_metric,
                               sizeof(double)) != 0) {
      out.fail("repeated set-up trained a different first epoch");
    }
    epochs.assign(1, first);
  }

  // Measured epochs.
  std::vector<double> epoch_s, collect_s, update_s;
  std::uint64_t fingerprint = 0;
  std::size_t steps = trainer->steps();
  const auto start = Clock::now();
  while (epochs.size() < kFingerprintEpochs ||
         seconds_between(start, Clock::now()) < cfg.seconds) {
    rl::EpochStats e;
    {
      Scope s(log, n_epoch, epochs.size());
      e = trainer->train_epoch();
    }
    epochs.push_back(e);
    epoch_s.push_back(e.seconds);
    collect_s.push_back(e.collect_seconds);
    update_s.push_back(e.update_seconds);
    out.attempted += 1;
    if (!std::isfinite(e.avg_metric)) {
      out.fail("epoch " + std::to_string(e.epoch) + " avg_metric is not "
               "finite");
    }
    if (trainer->steps() != steps) {
      out.fail("epoch " + std::to_string(e.epoch) + " took " +
               std::to_string(trainer->steps()) + " steps, not " +
               std::to_string(steps));
    }
    if (epochs.size() == kFingerprintEpochs) {
      std::uint64_t h = fnv1a(nullptr, 0);
      for (const auto& ep : epochs) {
        h = fnv1a(&ep.avg_metric, sizeof(ep.avg_metric), h);
      }
      const auto& v = trainer->value_params();
      fingerprint = fnv1a(v.data(), v.size() * sizeof(float), h);
    }
  }

  const double epoch_med = median(epoch_s);
  std::vector<double> epoch_ms;
  for (double s : epoch_s) epoch_ms.push_back(1e3 * s);
  const Percentile p90 = nearest_rank(epoch_ms, 0.9);
  std::fprintf(stderr,
               "train_ppo: %zu measured epochs, %zu steps each; epoch_s "
               "%.4f (collect %.4f, update %.4f); fingerprint %016llx over "
               "%zu epochs; avg_metric",
               epoch_s.size(), steps, epoch_med, median(collect_s),
               median(update_s), static_cast<unsigned long long>(fingerprint),
               kFingerprintEpochs);
  for (std::size_t i = 0; i < kFingerprintEpochs; ++i) {
    std::fprintf(stderr, " %.6g", epochs[i].avg_metric);
  }
  std::fprintf(stderr, "\n");
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(fingerprint));

  out.add_e2e("setup_s", median(setup), "s");
  out.add_e2e("throughput_per_s", static_cast<double>(steps) / epoch_med,
              "1/s");
  out.add_e2e("alt_throughput_per_s",
              static_cast<double>(steps) / median(collect_s), "1/s");
  out.add_e2e("p50_ms", 1e3 * epoch_med, "ms");
  out.add_e2e("p90_ms", p90.value, "ms");

  if (!tracer.enabled()) return out;

  out.add_layer("ppo.collect_s", median(collect_s), "s");
  out.add_layer("ppo.update_s", median(update_s), "s");
  out.add_layer("ppo.steps", static_cast<double>(steps), "count");
  chunk_probe(*trainer, tracer);
  out.add_layer("nn.policy_fwd_chunk_us",
                median(tracer.durations_us("nn.policy_fwd_chunk")), "us");
  out.add_layer("nn.policy_bwd_chunk_us",
                median(tracer.durations_us("nn.policy_bwd_chunk")), "us");
  sjf_probe(trace, cfg.seed, tracer);
  out.add_layer("rl.sjf_probe_us",
                median(tracer.durations_us("rl.sjf_probe")), "us");
  return out;
}

}  // namespace perfbench
