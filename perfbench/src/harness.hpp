#pragma once
// Measurement harness shared by the perfbench workloads: nearest-rank
// percentiles, the pre-drawn open-loop arrival schedule, an independent
// schedule checker, an in-memory span tracer, and the result record a run
// prints as its last line.
//
// Nothing here touches the library's internals: the workloads call the
// public API, and every number below is taken at those call sites.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/job.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- statistics ---------------------------------------------------------

/// A percentile together with the number of samples it was taken from.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank percentile: the smallest sample with at least p * n samples
/// at or below it (rank ceil(p * n), 1-based). p in (0, 1]. An empty sample
/// gives {0, 0}. Takes the samples by value and sorts the copy.
Percentile nearest_rank(std::vector<double> samples, double p);

/// Nearest-rank median (p = 0.5) value.
double median(std::vector<double> samples);

/// Nearest-rank p25 / p75 values. The host's speed drifts within seconds,
/// so per-pass times are summarised by their faster quartile — the lower
/// quartile of times, the upper quartile of rates — which measures the
/// program with the least interference from the host's other tenants.
double lower_quartile(std::vector<double> samples);
double upper_quartile(std::vector<double> samples);

/// Pins the calling thread to one CPU of its allowed set per next() call,
/// round-robin, and restores the original set on destruction. On a shared
/// host the vCPUs slow down independently, for seconds to minutes at a
/// time; rotating single-threaded passes over all of them lets a run's
/// faster quartile come from the CPUs that are not slowed at the time.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;  ///< the original allowed set
  std::size_t next_ = 0;
};

// --- open-loop load -----------------------------------------------------

/// Poisson arrival times (seconds from the phase start) at `rate` per
/// second over [0, duration_s), drawn from `seed` alone. The schedule is
/// fixed before the phase starts; nothing measured in a run feeds it.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration_s);

// --- schedule checker ---------------------------------------------------

/// Independent validity check of one scheduled episode, fed by the
/// simulator's start hook: every input job starts exactly once, never before
/// its submit time, and the running jobs never need more processors than
/// the cluster has.
class ScheduleChecker {
 public:
  /// Arm for one episode of `input` on `processors` processors.
  void begin(const std::vector<rlsched::trace::Job>& input, int processors);

  /// sim::SchedulingEnv::StartHook adapter; ctx is the checker.
  static void on_start(void* ctx, const rlsched::trace::Job& job);
  void record(const rlsched::trace::Job& job);

  /// Empty when the schedule is valid, else what is wrong with it.
  std::string verify() const;

  std::size_t starts() const { return starts_.size(); }

 private:
  struct Start {
    std::int64_t id = 0;
    double start = 0.0;
    double run = 0.0;
    int procs = 0;
  };
  std::vector<std::pair<std::int64_t, double>> expected_;  ///< (id, submit)
  std::vector<Start> starts_;
  int processors_ = 0;
};

// --- tracing ------------------------------------------------------------

/// One recorded interval. Spans of one request share `request`; `parent`
/// is the id of the span that was open on the same thread when this one
/// started (0 = none).
struct Span {
  std::uint32_t name = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span buffer. A null log means tracing is off: every Scope on
/// it is a no-op.
class SpanLog {
 public:
  SpanLog(std::uint32_t index, std::size_t reserve);

  void open(std::uint32_t name, std::uint64_t request);
  void close();  ///< ends the innermost open span

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t index_;
  std::uint64_t next_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indexes of open spans
};

/// RAII span: records [construction, destruction) on `log` when non-null.
class Scope {
 public:
  Scope(SpanLog* log, std::uint32_t name, std::uint64_t request = 0)
      : log_(log) {
    if (log_ != nullptr) log_->open(name, request);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

/// Owns the span logs of one traced run and the interned span names.
/// Intern every name and create every log before worker threads start;
/// each thread then writes only its own log.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t name(const std::string& text);
  /// A new per-thread log, or null when tracing is off.
  SpanLog* make_log(std::size_t reserve = 1 << 16);

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Sum over spans called `name` of their duration minus the part their
  /// direct children cover (microseconds).
  double self_us(const std::string& name) const;
  std::size_t span_count() const;
  const std::vector<std::string>& names() const { return names_; }

  /// Write every span as CSV: name,id,parent,request,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// --- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `e2e` carries the end-to-end metrics
/// (always measured with tracing off); `layer` the per-layer metrics of a
/// traced run.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  /// Record a failed correctness check: the run is incorrect and the
  /// operation counts as failed.
  void fail(const std::string& what);
  void add_e2e(const std::string& name, double value, const char* unit) {
    e2e.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value, const char* unit) {
    layer.push_back({name, value, unit});
  }
  const Metric* find_e2e(const std::string& name) const;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a over raw bytes, for result fingerprints.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
