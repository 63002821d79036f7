// replay_storm: 64k PIK-IPLEX-shaped jobs, all submitted at t = 0, on the
// trace's 2560 processors with EASY backfill — a backlog of tens of
// thousands of pending jobs at every decision. Each iteration makes three
// passes over the same storm:
//
//   rl      the kernel policy through core::RLScheduler::schedule
//   heur    SJF through SchedulingEnv::run_priority(..., TimeInvariant)
//   replay  the rl pass again through the public per-decision calls
//           (observe, forward, argmax, step), each decision timed
//
// Correctness: the façade's RunResult must equal the replay's bitwise, and
// both the replay's and the heur pass's schedules must pass the
// benchmark's own checker.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rlscheduler.hpp"
#include "nn/ops.hpp"
#include "rl/observation.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rlsched;

constexpr std::size_t kStormJobs = 64000;
constexpr int kMinIterations = 2;
constexpr std::uint64_t kModelSeed = 42;

struct Storm {
  int processors = 0;
  std::vector<trace::Job> jobs;
};

Storm make_storm(std::uint64_t seed) {
  const auto trace = workload::make_trace("PIK-IPLEX", kStormJobs, seed);
  Storm s{trace.processors(), trace.jobs()};
  for (trace::Job& j : s.jobs) {
    j.submit_time = 0.0;
    j.reset_schedule_state();
  }
  return s;
}

/// The façade's model is the same on every run: --seed varies the storm,
/// not the policy weights (an untrained policy's backfill behaviour varies
/// with its initialisation more than storms of one shape vary).
core::RLSchedulerConfig scheduler_config() {
  core::RLSchedulerConfig cfg;
  cfg.policy = rl::PolicyKind::Kernel;
  cfg.seed = kModelSeed;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = 8;
  return cfg;
}

struct ReplayStats {
  sim::RunResult result;
  double seconds = 0.0;
  std::uint64_t decisions = 0;
  double backlog_sum = 0.0;
};

/// One greedy episode through the public per-decision calls, with every
/// decision timed into `decision_ms` and, when `log` is set, a span around
/// each layer call.
ReplayStats replay(const Storm& storm, const rl::Policy& policy,
                   sim::SchedulingEnv& env, std::vector<double>& decision_ms,
                   Tracer& tracer, SpanLog* log) {
  const std::uint32_t n_decision = tracer.name("replay.decision");
  const std::uint32_t n_reset = tracer.name("sim.reset");
  const std::uint32_t n_observe = tracer.name("rl.observe");
  const std::uint32_t n_forward = tracer.name("nn.forward_b1");
  const std::uint32_t n_argmax = tracer.name("nn.argmax");
  const std::uint32_t n_step = tracer.name("sim.step");
  rl::ObservationBuilder builder;
  rl::Observation obs;
  ReplayStats out;
  const auto t0 = Clock::now();
  {
    Scope span(log, n_reset);
    env.reset(storm.jobs);
  }
  bool done = env.done();
  while (!done) {
    const auto d0 = Clock::now();
    {
      Scope span(log, n_decision, out.decisions);
      out.backlog_sum += static_cast<double>(env.pending_index().live());
      {
        Scope s(log, n_observe, out.decisions);
        builder.build_into(env, obs);
      }
      rl::Logits logits;
      {
        Scope s(log, n_forward, out.decisions);
        logits = policy.logits(obs);
      }
      std::size_t action = 0;
      {
        Scope s(log, n_argmax, out.decisions);
        action = nn::argmax_masked(logits.data(), obs.mask.data(),
                                   rl::kMaxObservable);
      }
      {
        Scope s(log, n_step, out.decisions);
        done = env.step(action);
      }
    }
    decision_ms.push_back(1e3 * seconds_between(d0, Clock::now()));
    ++out.decisions;
  }
  out.seconds = seconds_between(t0, Clock::now());
  out.result = env.result();
  return out;
}

}  // namespace

Outcome run_replay_storm(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;

  // Set-up, repeated: the storm and the façade (which builds the policy).
  Storm storm;
  std::unique_ptr<core::RLScheduler> facade;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    facade.reset();
    const auto t0 = Clock::now();
    storm = make_storm(cfg.seed);
    facade = std::make_unique<core::RLScheduler>(
        trace::Trace("PIK-IPLEX-storm", storm.processors, storm.jobs),
        scheduler_config());
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  const rl::Policy& policy = facade->trainer().policy();
  const sim::PriorityFn sjf = sched::sjf_priority();

  sim::SchedulingEnv heur_env(storm.processors, sim::EnvConfig{true});
  sim::SchedulingEnv replay_env(storm.processors, sim::EnvConfig{true});
  ScheduleChecker checker;
  heur_env.set_start_hook(&ScheduleChecker::on_start, &checker);
  replay_env.set_start_hook(&ScheduleChecker::on_start, &checker);

  core::ScheduleRequest req;
  req.jobs = &storm.jobs;
  req.processors = storm.processors;
  req.backfill = true;

  std::vector<double> rl_s, heur_s, replay_s, decision_ms, pass_p50, pass_p90;
  decision_ms.reserve(kStormJobs);
  std::size_t timed_decisions = 0;
  sim::RunResult heur_first;
  ReplayStats first;  ///< the replay that carries spans in a traced run
  CpuRotation rotation;
  const auto start = Clock::now();
  for (int it = 0; it < kMinIterations ||
                   seconds_between(start, Clock::now()) < cfg.seconds;
       ++it) {
    rotation.next();  // each iteration's three passes run on one CPU
    // rl: the façade.
    auto t0 = Clock::now();
    auto scheduled = facade->schedule(req);
    rl_s.push_back(seconds_between(t0, Clock::now()));
    out.attempted += 1;
    if (!scheduled.ok() || scheduled.value().runs.size() != 1) {
      out.fail("façade schedule: " + scheduled.status().to_string());
      return out;
    }
    const sim::RunResult rl_result = scheduled.value().run();

    // heur: SJF on the min-key index.
    checker.begin(storm.jobs, storm.processors);
    t0 = Clock::now();
    heur_env.reset(storm.jobs);
    const sim::RunResult heur = heur_env.run_priority(
        sjf, sim::PriorityKind::TimeInvariant);
    heur_s.push_back(seconds_between(t0, Clock::now()));
    out.attempted += 1;
    if (const std::string err = checker.verify(); !err.empty()) {
      out.fail("heur schedule: " + err);
    }
    if (it == 0) heur_first = heur;
    if (!sim::bitwise_equal(heur, heur_first)) {
      out.fail("heur pass is not deterministic");
    }

    // replay: the façade's episode again, one public call at a time. The
    // traced run records spans on the first replay only.
    checker.begin(storm.jobs, storm.processors);
    decision_ms.clear();
    SpanLog* log = it == 0 ? tracer.make_log(6 * kStormJobs + 16) : nullptr;
    const ReplayStats r =
        replay(storm, policy, replay_env, decision_ms, tracer, log);
    out.attempted += 1;
    pass_p50.push_back(nearest_rank(decision_ms, 0.50).value);
    pass_p90.push_back(nearest_rank(decision_ms, 0.90).value);
    timed_decisions += decision_ms.size();
    if (it == 0) {
      first = r;
    } else {
      replay_s.push_back(r.seconds);
    }
    if (const std::string err = checker.verify(); !err.empty()) {
      out.fail("replay schedule: " + err);
    }
    if (!sim::bitwise_equal(r.result, rl_result)) {
      out.fail("façade result differs from the public-call replay");
    }
  }

  const double jobs = static_cast<double>(storm.jobs.size());
  const double rl_jobs_per_s = jobs / lower_quartile(rl_s);
  const double heur_jobs_per_s = jobs / lower_quartile(heur_s);
  // Per-decision percentiles: taken per replay pass, then the faster
  // quartile over passes.
  const double d50 = lower_quartile(pass_p50);
  const double d90 = lower_quartile(pass_p90);
  std::fprintf(stderr,
               "replay_storm: %zu jobs on %d processors, %zu iterations; "
               "replay_rl_jobs_per_s %.1f, replay_heur_jobs_per_s %.1f, "
               "decision p50 %.5f ms p90 %.5f ms (faster quartile of %zu "
               "passes, "
               "%zu decisions), %.3f jobs/step\n",
               storm.jobs.size(), storm.processors, rl_s.size(),
               rl_jobs_per_s, heur_jobs_per_s, d50, d90, pass_p50.size(),
               timed_decisions, jobs / static_cast<double>(first.decisions));

  out.add_e2e("setup_s", median(setup), "s");
  out.add_e2e("throughput_per_s", rl_jobs_per_s, "1/s");
  out.add_e2e("alt_throughput_per_s", heur_jobs_per_s, "1/s");
  out.add_e2e("p50_ms", d50, "ms");
  out.add_e2e("p90_ms", d90, "ms");

  if (!tracer.enabled()) return out;

  out.add_layer("sim.reset_ms", 1e-3 * median(tracer.durations_us("sim.reset")),
                "ms");
  out.add_layer("rl.observe_us", median(tracer.durations_us("rl.observe")),
                "us");
  out.add_layer("nn.forward_b1_us",
                median(tracer.durations_us("nn.forward_b1")), "us");
  out.add_layer("nn.argmax_us", median(tracer.durations_us("nn.argmax")),
                "us");
  out.add_layer("sim.step_us", median(tracer.durations_us("sim.step")), "us");
  out.add_layer("sim.jobs_per_step",
                jobs / static_cast<double>(first.decisions), "jobs/step");
  out.add_layer("sim.mean_backlog",
                first.backlog_sum / static_cast<double>(first.decisions),
                "jobs");
  // Façade time per job minus the untraced replay's time per job.
  out.add_layer("core.facade_overhead_us",
                1e6 * (lower_quartile(rl_s) - lower_quartile(replay_s)) / jobs,
                "us");
  return out;
}

}  // namespace perfbench
