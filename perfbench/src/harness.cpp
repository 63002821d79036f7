#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/rng.hpp"

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  out.value = samples[k - 1];
  return out;
}

double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5).value;
}

double lower_quartile(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.25).value;
}

double upper_quartile(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.75).value;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration_s) {
  rlsched::util::Rng rng(rlsched::util::Rng::mix64(seed ^ 0xA221ULL));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rate * duration_s * 1.2) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

// --- ScheduleChecker ----------------------------------------------------

void ScheduleChecker::begin(const std::vector<rlsched::trace::Job>& input,
                            int processors) {
  processors_ = processors;
  expected_.clear();
  expected_.reserve(input.size());
  for (const auto& j : input) expected_.emplace_back(j.id, j.submit_time);
  std::sort(expected_.begin(), expected_.end());
  starts_.clear();
  starts_.reserve(input.size());
}

void ScheduleChecker::on_start(void* ctx, const rlsched::trace::Job& job) {
  static_cast<ScheduleChecker*>(ctx)->record(job);
}

void ScheduleChecker::record(const rlsched::trace::Job& job) {
  starts_.push_back({job.id, job.start_time, job.run_time,
                     job.requested_procs});
}

std::string ScheduleChecker::verify() const {
  char buf[160];
  // Every job starts exactly once: match the sorted start ids against the
  // sorted input ids one for one.
  std::vector<Start> by_id = starts_;
  std::sort(by_id.begin(), by_id.end(),
            [](const Start& a, const Start& b) { return a.id < b.id; });
  if (by_id.size() != expected_.size()) {
    std::snprintf(buf, sizeof(buf), "%zu starts for %zu jobs", by_id.size(),
                  expected_.size());
    return buf;
  }
  for (std::size_t i = 0; i < by_id.size(); ++i) {
    const Start& s = by_id[i];
    if (s.id != expected_[i].first ||
        (i > 0 && by_id[i - 1].id == s.id)) {
      std::snprintf(buf, sizeof(buf), "job %lld started %s",
                    static_cast<long long>(s.id),
                    i > 0 && by_id[i - 1].id == s.id ? "twice" : "unexpectedly");
      return buf;
    }
    if (!(s.start >= expected_[i].second)) {
      std::snprintf(buf, sizeof(buf), "job %lld starts at %.17g before its "
                    "submit %.17g", static_cast<long long>(s.id), s.start,
                    expected_[i].second);
      return buf;
    }
    if (s.procs < 1 || s.procs > processors_) {
      std::snprintf(buf, sizeof(buf), "job %lld holds %d of %d processors",
                    static_cast<long long>(s.id), s.procs, processors_);
      return buf;
    }
  }
  // Sweep line over [start, start + run): at equal times, releases come
  // before acquisitions (a job may start the instant another ends).
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * starts_.size());
  for (const Start& s : starts_) {
    if (s.run <= 0.0) continue;
    events.emplace_back(s.start, s.procs);
    events.emplace_back(s.start + s.run, -s.procs);
  }
  std::sort(events.begin(), events.end());
  long long used = 0;
  for (const auto& [t, delta] : events) {
    used += delta;
    if (used > processors_) {
      std::snprintf(buf, sizeof(buf), "%lld of %d processors in use at "
                    "t=%.17g", used, processors_, t);
      return buf;
    }
  }
  return {};
}

// --- tracing ------------------------------------------------------------

SpanLog::SpanLog(std::uint32_t index, std::size_t reserve) : index_(index) {
  spans_.reserve(reserve);
  stack_.reserve(64);
}

void SpanLog::open(std::uint32_t name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(index_) << 40) | next_++;
  s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  s.request = request;
  stack_.push_back(spans_.size());
  spans_.push_back(s);
  spans_.back().start_ns = now_ns();
}

void SpanLog::close() {
  spans_[stack_.back()].end_ns = now_ns();
  stack_.pop_back();
}

std::uint32_t Tracer::name(const std::string& text) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanLog* Tracer::make_log(std::size_t reserve) {
  if (!enabled_) return nullptr;
  logs_.push_back(std::make_unique<SpanLog>(
      static_cast<std::uint32_t>(logs_.size() + 1), reserve));
  return logs_.back().get();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.name == id) out.push_back(1e-3 * static_cast<double>(
                                              s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::self_us(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return 0.0;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  double total = 0.0;
  for (const auto& log : logs_) {
    const auto& spans = log->spans();
    // Children follow their parent in open order on the same log, so one
    // pass with a map from span id to self time suffices.
    std::vector<std::int64_t> self(spans.size(), 0);
    std::vector<std::uint64_t> ids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      ids[i] = spans[i].id;
      self[i] = spans[i].end_ns - spans[i].start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == 0) continue;
      // Spans are stored in id order within a log: binary search.
      const auto p = std::lower_bound(ids.begin(), ids.end(),
                                      spans[i].parent);
      if (p != ids.end() && *p == spans[i].parent) {
        self[static_cast<std::size_t>(p - ids.begin())] -=
            spans[i].end_ns - spans[i].start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == id) total += 1e-3 * static_cast<double>(self[i]);
    }
  }
  return total;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,request,start_ns,end_ns\n");
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n",
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// --- results ------------------------------------------------------------

void Outcome::fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
  ++failed;
}

const Metric* Outcome::find_e2e(const std::string& name) const {
  for (const Metric& m : e2e) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
