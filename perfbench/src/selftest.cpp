// Self-tests of the measurement harness: the nearest-rank percentile and
// its sample count, the seeded open-loop arrival schedule, the schedule
// checker on valid and hand-corrupted schedules, the span tracer, and the
// CPU rotation. Exit status 0 = all pass.
//
//   perfbench_selftest

#include <sched.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sched/heuristics.hpp"
#include "sim/env.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace perfbench;
using rlsched::trace::Job;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_nearest_rank() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Percentile p50 = nearest_rank(v, 0.5);
  expect(p50.value == 5.0 && p50.n == 10, "p50 of 1..10 is 5 (n=10)");
  const Percentile p90 = nearest_rank(v, 0.9);
  expect(p90.value == 9.0 && p90.n == 10, "p90 of 1..10 is 9");
  const Percentile p91 = nearest_rank(v, 0.91);
  expect(p91.value == 10.0, "p91 of 1..10 rounds the rank up to 10");
  expect(nearest_rank(v, 1.0).value == 10.0, "p100 is the maximum");
  expect(nearest_rank(v, 0.01).value == 1.0, "p1 is the minimum");
  expect(nearest_rank({7.0}, 0.99).value == 7.0 &&
             nearest_rank({7.0}, 0.99).n == 1,
         "one sample is every percentile");
  const Percentile empty = nearest_rank({}, 0.5);
  expect(empty.value == 0.0 && empty.n == 0, "empty sample gives {0, 0}");
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  const Percentile p99 = nearest_rank(big, 0.99);
  expect(p99.value == 990.0 && p99.n == 1000, "p99 of 1..1000 is 990");
  expect(median({3.0, 1.0, 2.0, 4.0}) == 2.0, "median of 4 takes rank 2");
}

void test_arrival_schedule() {
  const auto a = poisson_schedule(42, 3000.0, 2.0);
  const auto b = poisson_schedule(42, 3000.0, 2.0);
  const auto c = poisson_schedule(43, 3000.0, 2.0);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  expect(sorted && !a.empty() && a.front() > 0.0 && a.back() < 2.0,
         "arrivals increase within [0, duration)");
  // 6000 expected arrivals: a count outside +-5% would be a 5-sigma event.
  expect(a.size() > 5700 && a.size() < 6300, "arrival count matches rate");
}

Job job(std::int64_t id, double submit, double run, int procs) {
  Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_time = run;
  j.requested_procs = procs;
  return j;
}

void test_checker() {
  const std::vector<Job> input = {job(1, 0, 10, 2), job(2, 0, 10, 2),
                                  job(3, 5, 10, 4)};
  const auto started = [](Job j, double start) {
    j.start_time = start;
    return j;
  };
  {
    ScheduleChecker c;
    c.begin(input, 4);
    c.record(started(input[0], 0));
    c.record(started(input[1], 0));
    c.record(started(input[2], 10));  // starts the instant both end
    expect(c.verify().empty(), "valid schedule passes");
  }
  {
    ScheduleChecker c;
    c.begin(input, 4);
    c.record(started(input[0], 0));
    c.record(started(input[1], 0));
    c.record(started(input[2], 9));  // 8 of 4 processors during [9, 10)
    expect(c.verify().find("processors in use") != std::string::npos,
           "over-committed time slice is rejected");
  }
  {
    ScheduleChecker c;
    c.begin(input, 4);
    c.record(started(input[0], 0));
    c.record(started(input[0], 20));  // job 1 twice, job 2 never
    c.record(started(input[2], 10));
    expect(c.verify().find("twice") != std::string::npos,
           "a job that starts twice is rejected");
  }
  {
    ScheduleChecker c;
    c.begin(input, 4);
    c.record(started(input[0], 0));
    c.record(started(input[1], 10));
    c.record(started(input[2], 4));  // before its submit at 5
    expect(c.verify().find("before its submit") != std::string::npos,
           "a start before submit is rejected");
  }
  {
    ScheduleChecker c;
    c.begin(input, 4);
    c.record(started(input[0], 0));
    c.record(started(input[2], 10));
    expect(!c.verify().empty(), "a job that never starts is rejected");
  }
  {
    // The simulator's own schedules pass, through the start hook.
    const auto trace = rlsched::workload::make_trace("Lublin-1", 2000, 7);
    ScheduleChecker c;
    rlsched::sim::SchedulingEnv env(trace.processors(),
                                    rlsched::sim::EnvConfig{true});
    env.set_start_hook(&ScheduleChecker::on_start, &c);
    c.begin(trace.jobs(), trace.processors());
    env.reset(trace.jobs());
    env.run_priority(rlsched::sched::sjf_priority(),
                     rlsched::sim::PriorityKind::TimeInvariant);
    expect(c.starts() == trace.size() && c.verify().empty(),
           "an EASY-backfilled SJF schedule passes");
  }
}

void test_tracer() {
  Tracer off(false);
  expect(off.make_log() == nullptr, "a disabled tracer hands out no log");
  Tracer on(true);
  const std::uint32_t outer = on.name("outer");
  const std::uint32_t inner = on.name("inner");
  SpanLog* log = on.make_log();
  {
    Scope a(log, outer, 9);
    Scope b(log, inner, 9);
  }
  const auto& spans = log->spans();
  expect(spans.size() == 2 && spans[1].parent == spans[0].id &&
             spans[0].parent == 0 && spans[1].request == 9,
         "nested spans record their parent and request");
  expect(on.durations_us("inner").size() == 1 &&
             on.self_us("outer") <= on.durations_us("outer")[0],
         "self time excludes children");
}

void test_cpu_rotation() {
  cpu_set_t before;
  CPU_ZERO(&before);
  sched_getaffinity(0, sizeof(before), &before);
  {
    CpuRotation rotation;
    rotation.next();
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    sched_getaffinity(0, sizeof(pinned), &pinned);
    expect(CPU_COUNT(&pinned) == 1, "next() pins the thread to one CPU");
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  sched_getaffinity(0, sizeof(after), &after);
  expect(CPU_EQUAL(&before, &after), "the original CPU set is restored");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_arrival_schedule();
  test_checker();
  test_tracer();
  test_cpu_rotation();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all passed\n");
  return 0;
}
