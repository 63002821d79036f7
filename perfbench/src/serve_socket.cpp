// serve_socket: a serve::Server on loopback in front of a serve::Daemon
// (2 dispatcher shards, one f32 kernel policy per shard, B = 8), 1000
// sessions, every request a 64-job Lublin-1 sequence with EASY backfill from
// a seeded pool. One client connection, one sender thread, one collector
// thread, in two phases:
//
//   closed  a fixed number of requests in flight; served decisions/sec from
//           the daemon's decision counter over the steady window
//   open    Poisson arrivals at one fixed rate, pre-drawn from the seed; each
//           request timed at the client from when it was due to when its
//           completion arrived
//
// Correctness: every socket result must equal, bitwise, the result an
// in-process Daemon gives for the same pool request, and the daemon's books
// must balance (submitted == completed + cancelled + shed).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <semaphore>
#include <thread>
#include <vector>

#include "nn/ops.hpp"
#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/env.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rlsched;

constexpr std::size_t kSessions = 1000;
constexpr std::size_t kJobs = 64;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kDispatchers = 2;
constexpr std::size_t kPool = 1024;       ///< seeded request pool
constexpr std::size_t kTraceJobs = 20000;
constexpr std::size_t kCalibration = 32;  ///< enable_quant calibration windows
/// Closed phase: requests in flight, enough to keep both shards' batches
/// full (more in flight does not raise windows per forward further).
constexpr std::ptrdiff_t kInFlight = 128;
/// Open phase: arrivals/sec. Fixed, never derived in a run. On the 4-core
/// host the benchmark was sized on (see README) this is about 60% of the
/// closed-loop capacity in the host's slow phases and 40% in its fast ones,
/// so the open loop stays clear of saturation as the host's speed drifts.
constexpr double kOpenRate = 2000.0;
constexpr double kClosedShare = 0.4;  ///< of the run's seconds
constexpr double kWarmupSeconds = 0.25;
/// Closed-phase dps and open-phase percentiles are taken per window of this
/// many seconds and summarised by their faster quartile over windows, so a
/// stall of the host in some windows does not move the run's figure.
constexpr double kClosedWindow = 0.25;
constexpr double kOpenWindow = 0.5;
/// In-process reference drains per block. One block runs before, one
/// between and one after the served phases, so their timing spans the run.
constexpr int kDrainsPerBlock = 5;
/// The served model is the same on every run; --seed varies the requests.
constexpr std::uint64_t kModelSeed = 42;

struct Inputs {
  int processors = 0;
  std::vector<std::vector<trace::Job>> pool;
};

Inputs make_inputs(std::uint64_t seed) {
  const auto trace = workload::make_trace("Lublin-1", kTraceJobs, seed);
  Inputs in;
  in.processors = trace.processors();
  util::Rng rng(util::Rng::mix64(seed ^ 0x5E55ULL));
  in.pool.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    in.pool.push_back(trace.sample_sequence(rng, kJobs));
  }
  return in;
}

/// `n` identically-weighted kernel policies, each made int8-ready with
/// enable_quant on the pool's first windows, as an operator would deploy
/// them. The daemon decides which precision it serves.
std::vector<std::unique_ptr<rl::Policy>> make_policies(std::size_t n,
                                                       const Inputs& in) {
  rl::ObservationBuilder builder;
  std::vector<rl::Observation> calib(kCalibration);
  std::vector<const rl::Observation*> calib_ptr;
  sim::SchedulingEnv env(in.processors, sim::EnvConfig{true});
  for (std::size_t i = 0; i < kCalibration; ++i) {
    env.reset(in.pool[i]);
    builder.build_into(env, calib[i]);
    calib_ptr.push_back(&calib[i]);
  }
  std::vector<std::unique_ptr<rl::Policy>> out;
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng rng(kModelSeed);
    out.push_back(
        rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng));
    out.back()->enable_quant(calib_ptr.data(), calib_ptr.size());
  }
  return out;
}

serve::DaemonConfig daemon_config() {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = kBatch;
  cfg.dispatchers = kDispatchers;
  return cfg;
}

core::ScheduleRequest request_for(const Inputs& in, std::size_t i) {
  core::ScheduleRequest req;
  req.jobs = &in.pool[i % kPool];
  req.backfill = true;
  return req;
}

/// The served stack. Members are destroyed in reverse order: the client
/// closes before the server stops, and the daemon outlives both.
struct Stack {
  std::vector<std::unique_ptr<rl::Policy>> policies;
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
  std::vector<serve::SessionId> sessions;
};

/// Build inputs and the served stack; empty message on success.
std::string set_up(std::uint64_t seed, Inputs& in, Stack& st) {
  in = make_inputs(seed);
  st.policies = make_policies(kDispatchers, in);
  st.daemon = std::make_unique<serve::Daemon>(daemon_config());
  std::vector<std::uint32_t> pids;
  for (const auto& p : st.policies) {
    pids.push_back(st.daemon->register_policy(*p));
  }
  st.server = std::make_unique<serve::Server>(*st.daemon);
  if (!st.server->status().ok()) {
    return "server: " + st.server->status().to_string();
  }
  st.client = std::make_unique<serve::Client>();
  if (core::Status s = st.client->connect("127.0.0.1", st.server->port());
      !s.ok()) {
    return "connect: " + s.to_string();
  }
  st.sessions.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    serve::SessionConfig sc;
    sc.processors = in.processors;
    sc.policy = pids[i % pids.size()];
    auto sid = st.client->create_session(sc);
    if (!sid.ok()) return "create_session: " + sid.status().to_string();
    st.sessions.push_back(sid.value());
  }
  return {};
}

/// In-process reference: a Daemon of its own with identically-weighted
/// policies and one session per pool request, drained on this thread. It
/// lives for the whole run, so drains after the first reuse its pooled envs
/// as a long-lived embedded daemon would.
struct Reference {
  std::vector<std::unique_ptr<rl::Policy>> policies;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<serve::SessionId> sessions;
  std::vector<sim::RunResult> runs;  ///< per pool request
  std::vector<double> per_decision;  ///< drain seconds per decision
  std::uint64_t decisions = 0;
};

/// Build the reference daemon and its sessions; empty message on success.
std::string set_up_reference(const Inputs& in, Reference& ref) {
  ref.policies = make_policies(kDispatchers, in);
  ref.daemon = std::make_unique<serve::Daemon>(daemon_config());
  std::vector<std::uint32_t> pids;
  for (const auto& p : ref.policies) {
    pids.push_back(ref.daemon->register_policy(*p));
  }
  for (std::size_t i = 0; i < kPool; ++i) {
    serve::SessionConfig sc;
    sc.processors = in.processors;
    sc.policy = pids[i % pids.size()];
    auto sid = ref.daemon->create_session(sc);
    if (!sid.ok()) return "create_session: " + sid.status().to_string();
    ref.sessions.push_back(sid.value());
  }
  return {};
}

/// `repeats` drains of every pool request: the first ever fills ref.runs,
/// every later one must reproduce it bitwise.
void reference_drains(const Inputs& in, int repeats, Reference& ref,
                      Outcome& out) {
  serve::Daemon& daemon = *ref.daemon;
  std::vector<serve::RequestId> ids(kPool);
  CpuRotation rotation;
  for (int rep = 0; rep < repeats; ++rep) {
    rotation.next();
    for (std::size_t i = 0; i < kPool; ++i) {
      auto rid = daemon.submit(ref.sessions[i], request_for(in, i));
      if (!rid.ok()) {
        out.fail("reference submit: " + rid.status().to_string());
        return;
      }
      ids[i] = rid.value();
    }
    const auto before = daemon.stats();
    const auto t0 = Clock::now();
    const auto drained = daemon.drain();
    const double elapsed = seconds_between(t0, Clock::now());
    const auto after = daemon.stats();
    out.attempted += kPool;
    if (!drained.ok() || drained.value() != kPool) {
      out.fail("reference drain did not complete every request");
      return;
    }
    ref.decisions = after.decisions - before.decisions;
    ref.per_decision.push_back(elapsed / static_cast<double>(ref.decisions));
    std::vector<sim::RunResult> runs(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      serve::Completion c;
      const core::Status s = daemon.try_take(ids[i], &c);
      if (!s.ok() || !c.status.ok() || c.result.runs.size() != 1) {
        out.fail("reference completion " + std::to_string(i));
        return;
      }
      runs[i] = c.result.run();
    }
    if (ref.runs.empty()) {
      ref.runs = std::move(runs);
      continue;
    }
    for (std::size_t i = 0; i < kPool; ++i) {
      if (!sim::bitwise_equal(runs[i], ref.runs[i])) {
        out.fail("in-process reference is not deterministic");
        return;
      }
    }
  }
}

/// One phase on the client connection. Closed: keep kInFlight requests
/// outstanding. Open: send request i at due[i] seconds after the start.
struct Phase {
  bool closed = true;
  double duration = 0.0;
  std::vector<double> due;  ///< open only: the pre-drawn schedule

  // results
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bad = 0;  ///< non-OK or not bitwise equal to the reference
  bool transport_failed = false;
  std::vector<double> window_dps;  ///< closed: dps per kClosedWindow
  serve::DaemonStats before, after;
  // open only, per request (seconds from the phase start)
  std::vector<double> sent_at, done_at, service;
};

void run_phase(Stack& st, const Inputs& in, const Reference& ref,
               Phase& ph, Tracer& tracer) {
  SpanLog* send_log = tracer.make_log();
  SpanLog* recv_log = tracer.make_log();
  const std::uint32_t send_name = tracer.name("serve.client.send");
  const std::uint32_t recv_name = tracer.name("serve.client.recv");
  const std::size_t n_open = ph.due.size();
  if (!ph.closed) {
    ph.sent_at.assign(n_open, 0.0);
    ph.done_at.assign(n_open, 0.0);
    ph.service.assign(n_open, 0.0);
  }

  std::counting_semaphore<> tokens(0);  ///< one per send, plus a stop token
  std::counting_semaphore<> slots(kInFlight);
  std::atomic<bool> stop{false};
  std::atomic<bool> broken{false};
  std::atomic<std::uint64_t> sent{0};
  const auto t0 = Clock::now();

  std::thread collector([&] {
    std::uint64_t received = 0;
    for (;;) {
      tokens.acquire();
      if (stop.load() && received == sent.load()) break;
      std::uint64_t tag = 0;
      serve::Completion c;
      core::Status s;
      {
        Scope span(recv_log, recv_name, received);
        s = st.client->recv_completion(&tag, &c);
      }
      const double now = seconds_between(t0, Clock::now());
      if (!s.ok()) {
        std::fprintf(stderr, "recv_completion: %s\n", s.to_string().c_str());
        broken.store(true);
        slots.release(kInFlight);
        break;
      }
      ++received;
      if (!c.status.ok() || c.result.runs.size() != 1 ||
          !sim::bitwise_equal(c.result.run(), ref.runs[tag % kPool])) {
        ++ph.bad;
      }
      if (!ph.closed && tag < n_open) {
        ph.done_at[tag] = now;
        ph.service[tag] = c.latency_seconds;
      }
      if (ph.closed) slots.release();
    }
    ph.received = received;
  });

  const auto send = [&](std::uint64_t tag) {
    Scope span(send_log, send_name, tag);
    const core::Status s = st.client->send_schedule(
        st.sessions[tag % kSessions], request_for(in, tag), tag);
    if (!s.ok()) {
      std::fprintf(stderr, "send_schedule: %s\n", s.to_string().c_str());
      broken.store(true);
      return false;
    }
    sent.fetch_add(1);
    tokens.release();
    return true;
  };

  if (ph.closed) {
    const auto warm = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kWarmupSeconds));
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ph.duration));
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kClosedWindow));
    auto boundary = warm;
    serve::DaemonStats last;
    Clock::time_point last_t;
    for (std::uint64_t tag = 0; !broken.load(); ++tag) {
      slots.acquire();
      const auto now = Clock::now();
      if (now >= boundary) {
        const serve::DaemonStats s = st.daemon->stats();
        if (boundary == warm) {
          ph.before = s;
        } else {
          ph.window_dps.push_back(
              static_cast<double>(s.decisions - last.decisions) /
              seconds_between(last_t, now));
        }
        last = s;
        last_t = now;
        boundary = std::max(boundary + window, now);
      }
      if (now >= end) break;
      if (!send(tag)) break;
    }
    ph.after = st.daemon->stats();
  } else {
    ph.before = st.daemon->stats();
    for (std::uint64_t tag = 0; tag < n_open && !broken.load(); ++tag) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(ph.due[tag])));
      ph.sent_at[tag] = seconds_between(t0, Clock::now());
      if (!send(tag)) break;
    }
  }
  stop.store(true);
  tokens.release();
  collector.join();
  if (!ph.closed) ph.after = st.daemon->stats();
  ph.sent = sent.load();
  ph.transport_failed = broken.load();
}

/// Lockstep B = 8 replay of the pool requests through the public per-layer
/// calls: reset, observe, batched forward + argmax, step. Returns seconds
/// per decision; `mismatches` counts results that differ from `ref`.
double lockstep_replay(const Inputs& in, const rl::Policy& policy,
                       const Reference& ref, Tracer& tracer, SpanLog* log,
                       std::uint64_t* mismatches) {
  const std::uint32_t n_reset = tracer.name("sim.reset");
  const std::uint32_t n_observe = tracer.name("rl.observe");
  const std::uint32_t n_forward = tracer.name("nn.forward_b8");
  const std::uint32_t n_step = tracer.name("sim.step");
  rl::ObservationBuilder builder;
  std::vector<sim::SchedulingEnv> envs;
  for (std::size_t k = 0; k < kBatch; ++k) {
    envs.emplace_back(in.processors, sim::EnvConfig{true});
  }
  std::vector<rl::Observation> obs(kBatch);
  std::vector<const rl::Observation*> obs_ptr(kBatch);
  std::vector<float> logits(kBatch * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(kBatch);
  std::vector<std::size_t> alive;
  std::uint64_t decisions = 0;
  const auto t0 = Clock::now();
  for (std::size_t g = 0; g < kPool; g += kBatch) {
    const std::size_t nb = std::min(kBatch, kPool - g);
    alive.clear();
    for (std::size_t k = 0; k < nb; ++k) {
      Scope span(log, n_reset, g + k);
      envs[k].reset(in.pool[g + k]);
      if (!envs[k].done()) alive.push_back(k);
    }
    while (!alive.empty()) {
      for (std::size_t w = 0; w < alive.size(); ++w) {
        Scope span(log, n_observe, g + alive[w]);
        builder.build_into(envs[alive[w]], obs[w]);
        obs_ptr[w] = &obs[w];
      }
      {
        Scope span(log, n_forward, g);
        rl::batched_argmax(policy, obs_ptr.data(), alive.size(),
                           logits.data(), actions.data());
      }
      std::size_t keep = 0;
      for (std::size_t w = 0; w < alive.size(); ++w) {
        bool done = false;
        {
          Scope span(log, n_step, g + alive[w]);
          done = envs[alive[w]].step(actions[w]);
        }
        ++decisions;
        if (!done) alive[keep++] = alive[w];
      }
      alive.resize(keep);
    }
    for (std::size_t k = 0; k < nb; ++k) {
      if (!sim::bitwise_equal(envs[k].result(), ref.runs[g + k])) {
        ++*mismatches;
      }
    }
  }
  return seconds_between(t0, Clock::now()) / static_cast<double>(decisions);
}

/// Time the wire codec on this workload's own frames: a kSchedule frame per
/// pool request and a completion reply carrying its reference result.
void wire_probe(const Inputs& in, const Stack& st, const Reference& ref,
                Tracer& tracer, Outcome& out) {
  SpanLog* log = tracer.make_log();
  const std::uint32_t n_enc_sub = tracer.name("serve.wire.encode_submit");
  const std::uint32_t n_dec_sub = tracer.name("serve.wire.decode_submit");
  const std::uint32_t n_enc_cmp = tracer.name("serve.wire.encode_completion");
  const std::uint32_t n_dec_cmp = tracer.name("serve.wire.decode_completion");
  std::vector<std::uint8_t> frame;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < kPool; ++i) {
    frame.clear();
    core::Status s;
    {
      Scope span(log, n_enc_sub, i);
      s = serve::wire::encode_submit(frame, serve::wire::MsgType::kSchedule,
                                     i, st.sessions[i % kSessions],
                                     request_for(in, i));
    }
    serve::wire::Header h;
    serve::SessionId sid;
    serve::wire::DecodedRequest decoded;
    {
      Scope span(log, n_dec_sub, i);
      if (s.ok()) s = serve::wire::decode_header(frame.data(), &h);
      if (s.ok()) {
        serve::wire::Reader r(frame.data() + serve::wire::kHeaderBytes,
                              h.payload_len);
        s = serve::wire::decode_submit(r, &sid, &decoded);
      }
    }
    if (!s.ok() || decoded.sequences.size() != 1 ||
        decoded.sequences[0].size() != in.pool[i].size()) {
      ++bad;
      continue;
    }
    serve::Completion c;
    c.result.runs.push_back(ref.runs[i]);
    c.latency_seconds = 1e-3;
    frame.clear();
    {
      Scope span(log, n_enc_cmp, i);
      serve::wire::encode_completion_reply(frame, i, core::Status(), &c);
    }
    core::Status take_status;
    serve::Completion back;
    {
      Scope span(log, n_dec_cmp, i);
      s = serve::wire::decode_header(frame.data(), &h);
      if (s.ok()) {
        serve::wire::Reader r(frame.data() + serve::wire::kHeaderBytes,
                              h.payload_len);
        s = serve::wire::decode_completion_reply(r, &take_status, &back);
      }
    }
    if (!s.ok() || !take_status.ok() || back.result.runs.size() != 1 ||
        !sim::bitwise_equal(back.result.run(), ref.runs[i])) {
      ++bad;
    }
  }
  out.attempted += kPool;
  if (bad != 0) out.fail(std::to_string(bad) + " wire round-trips differ");
  for (const char* name : {"serve.wire.encode_submit",
                           "serve.wire.decode_submit",
                           "serve.wire.encode_completion",
                           "serve.wire.decode_completion"}) {
    out.add_layer(std::string(name) + "_us", median(tracer.durations_us(name)),
                  "us");
  }
}

double windows_per_forward(const Phase& ph) {
  const double fwd =
      static_cast<double>(ph.after.forwards - ph.before.forwards);
  return fwd > 0.0 ? static_cast<double>(ph.after.forward_windows -
                                         ph.before.forward_windows) /
                         fwd
                   : 0.0;
}

}  // namespace

Outcome run_serve_socket(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;

  // Set-up, repeated: inputs, int8-ready policies, daemon, server, client,
  // sessions. The last stack built is the one measured.
  Inputs in;
  auto st = std::make_unique<Stack>();
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    st = std::make_unique<Stack>();
    const auto t0 = Clock::now();
    const std::string err = set_up(cfg.seed, in, *st);
    setup.push_back(seconds_between(t0, Clock::now()));
    if (!err.empty()) {
      out.attempted += 1;
      out.fail("set-up: " + err);
      return out;
    }
  }

  Reference ref;
  if (const std::string err = set_up_reference(in, ref); !err.empty()) {
    out.attempted += 1;
    out.fail("reference set-up: " + err);
    return out;
  }
  reference_drains(in, kDrainsPerBlock, ref, out);
  if (!out.correct) return out;
  const auto stats0 = st->daemon->stats();

  Phase closed;
  closed.closed = true;
  closed.duration = std::max(kClosedShare * cfg.seconds,
                             kWarmupSeconds + 4 * kClosedWindow);
  run_phase(*st, in, ref, closed, tracer);

  Phase open;
  open.closed = false;
  open.duration = (1.0 - kClosedShare) * cfg.seconds;
  open.due = poisson_schedule(cfg.seed, kOpenRate, open.duration);
  if (!closed.transport_failed) {
    reference_drains(in, kDrainsPerBlock, ref, out);
    run_phase(*st, in, ref, open, tracer);
  }

  const auto stats1 = st->daemon->stats();
  reference_drains(in, kDrainsPerBlock, ref, out);
  const double drain_s_per_decision = lower_quartile(ref.per_decision);
  for (const Phase* ph : {&closed, &open}) {
    out.attempted += ph->sent;
    out.failed += ph->bad + (ph->sent - ph->received);
    if (ph->bad != 0 || ph->received != ph->sent || ph->transport_failed) {
      out.correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s phase: %llu sent, %llu "
                   "received, %llu not bitwise equal to in-process\n",
                   ph->closed ? "closed" : "open",
                   static_cast<unsigned long long>(ph->sent),
                   static_cast<unsigned long long>(ph->received),
                   static_cast<unsigned long long>(ph->bad));
    }
  }
  if (open.sent != open.due.size()) out.fail("open phase stopped early");
  if (stats1.requests_submitted != stats1.requests_completed +
                                       stats1.requests_cancelled +
                                       stats1.requests_shed) {
    out.fail("daemon books do not balance");
  }
  const std::uint64_t refused =
      (stats1.requests_failed - stats0.requests_failed) +
      (stats1.requests_shed - stats0.requests_shed) +
      (stats1.requests_rejected - stats0.requests_rejected) +
      (stats1.requests_expired - stats0.requests_expired) +
      (stats1.requests_cancelled - stats0.requests_cancelled);
  if (refused != 0) {
    out.fail(std::to_string(refused) + " requests failed or were refused");
  }

  // End-to-end metrics.
  const double served_dps = upper_quartile(closed.window_dps);
  std::vector<double> latency_ms, late_ms, service_ms, transport_ms;
  std::vector<std::vector<double>> window_ms;
  for (std::size_t i = 0; i < open.due.size(); ++i) {
    const double latency = open.done_at[i] - open.due[i];
    const double late = open.sent_at[i] - open.due[i];
    const auto w = static_cast<std::size_t>(open.due[i] / kOpenWindow);
    if (w >= window_ms.size()) window_ms.resize(w + 1);
    window_ms[w].push_back(1e3 * latency);
    latency_ms.push_back(1e3 * latency);
    late_ms.push_back(1e3 * late);
    service_ms.push_back(1e3 * open.service[i]);
    transport_ms.push_back(1e3 * (latency - late - open.service[i]));
  }
  std::vector<double> window_p50, window_p90;
  for (const auto& w : window_ms) {
    window_p50.push_back(nearest_rank(w, 0.50).value);
    window_p90.push_back(nearest_rank(w, 0.90).value);
  }
  const double p50 = lower_quartile(window_p50);
  const double p90 = lower_quartile(window_p90);
  const Percentile p99 = nearest_rank(latency_ms, 0.99);
  const Percentile late99 = nearest_rank(late_ms, 0.99);
  std::fprintf(stderr,
               "serve_socket: served_dps %.0f (closed, faster quartile of %zu "
               "x %.2f s "
               "windows, %td in flight, %.2f windows/forward); in-process "
               "%.0f dps; %.2f decisions/request\n"
               "  open loop %.0f req/s x %zu: ol_p50_ms %.4f, ol_p90_ms %.4f "
               "(faster quartile of %zu x %.2f s windows), p99 %.4f (n=%zu), "
               "generator late p99 %.4f ms, %.2f windows/forward\n",
               served_dps, closed.window_dps.size(), kClosedWindow, kInFlight,
               windows_per_forward(closed), 1.0 / drain_s_per_decision,
               static_cast<double>(ref.decisions) / kPool, kOpenRate,
               open.due.size(), p50, p90, window_ms.size(), kOpenWindow,
               p99.value, p99.n, late99.value, windows_per_forward(open));

  out.add_e2e("setup_s", median(setup), "s");
  out.add_e2e("throughput_per_s", served_dps, "1/s");
  out.add_e2e("alt_throughput_per_s", 1.0 / drain_s_per_decision, "1/s");
  out.add_e2e("p50_ms", p50, "ms");
  out.add_e2e("p90_ms", p90, "ms");

  if (!tracer.enabled()) return out;

  // Per-layer metrics of the traced run.
  out.add_layer("serve.client.send_us",
                median(tracer.durations_us("serve.client.send")), "us");
  wire_probe(in, *st, ref, tracer, out);
  out.add_layer("serve.daemon.service_p50_ms",
                nearest_rank(service_ms, 0.5).value, "ms");
  out.add_layer("serve.daemon.service_p90_ms",
                nearest_rank(service_ms, 0.9).value, "ms");
  out.add_layer("serve.transport_p50_ms",
                nearest_rank(transport_ms, 0.5).value, "ms");
  out.add_layer("serve.daemon.windows_per_forward_closed",
                windows_per_forward(closed), "windows");
  out.add_layer("serve.daemon.windows_per_forward_open",
                windows_per_forward(open), "windows");
  out.add_layer("serve.daemon.us_per_decision",
                1e6 * drain_s_per_decision, "us");

  // Lockstep replay: plain passes for its cost per decision, summarised like
  // the drains it is compared with, then one pass with a span around every
  // layer call for the breakdown.
  const auto replay_policies = make_policies(1, in);
  std::uint64_t mismatches = 0;
  std::vector<double> replay_passes;
  CpuRotation rotation;
  for (int rep = 0; rep < kDrainsPerBlock; ++rep) {
    rotation.next();
    replay_passes.push_back(lockstep_replay(in, *replay_policies.front(), ref,
                                            tracer, nullptr, &mismatches));
  }
  const double replay_s = lower_quartile(replay_passes);
  (void)lockstep_replay(in, *replay_policies.front(), ref, tracer,
                        tracer.make_log(1 << 20), &mismatches);
  out.attempted += (kDrainsPerBlock + 1) * kPool;
  if (mismatches != 0) {
    out.fail(std::to_string(mismatches) +
             " lockstep replay results differ from the served results");
  }
  out.add_layer("sim.reset_us", median(tracer.durations_us("sim.reset")),
                "us");
  out.add_layer("rl.observe_us", median(tracer.durations_us("rl.observe")),
                "us");
  out.add_layer("nn.forward_b8_us",
                median(tracer.durations_us("nn.forward_b8")), "us");
  out.add_layer("sim.step_us", median(tracer.durations_us("sim.step")), "us");
  out.add_layer("serve.daemon.overhead_us_per_decision",
                1e6 * (drain_s_per_decision - replay_s), "us");

  out.add_layer("serve.daemon.forwards",
                static_cast<double>(stats1.forwards - stats0.forwards),
                "count");
  out.add_layer("serve.daemon.shed",
                static_cast<double>(stats1.requests_shed -
                                    stats0.requests_shed),
                "count");
  out.add_layer("serve.daemon.failed",
                static_cast<double>(stats1.requests_failed -
                                    stats0.requests_failed),
                "count");
  out.add_layer("serve.daemon.expired",
                static_cast<double>(stats1.requests_expired -
                                    stats0.requests_expired),
                "count");
  out.add_layer("serve.client.latency_p99_ms", p99.value, "ms");
  out.add_layer("serve.client.latency_samples", static_cast<double>(p99.n),
                "count");
  out.add_layer("loadgen.late_p99_ms", late99.value, "ms");
  return out;
}

}  // namespace perfbench
