// perfbench: the repository benchmark. One workload per run:
//
//   perfbench --workload serve_socket|replay_storm|train_ppo --seed N
//             --seconds S --trace 0|1 [--spans DIR]
//
// --trace 0 measures with tracing off and reports the end-to-end metrics.
// --trace 1 runs the workload twice, untraced and then traced, and reports
// the per-layer metrics of the traced run plus its overhead (traced minus
// untraced) on every end-to-end metric; with --spans the recorded spans are
// written to DIR/<workload>-seed<N>.csv.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the metrics this workload measured; run.py completes it against
// BENCHMARK.json. The exit status is 0 only when every correctness check
// passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_socket|replay_storm|train_ppo --seed N --seconds S "
               "--trace 0|1 [--spans DIR]\n",
               why);
  std::exit(2);
}

Outcome run(const std::string& workload, const RunConfig& cfg,
            Tracer& tracer) {
  Outcome out;
  if (workload == "serve_socket") {
    out = run_serve_socket(cfg, tracer);
  } else if (workload == "replay_storm") {
    out = run_replay_storm(cfg, tracer);
  } else {
    out = run_train_ppo(cfg, tracer);
  }
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

void print_json(const Outcome& out, const std::vector<Metric>& metrics) {
  bool correct = out.correct;
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_dir;
  RunConfig cfg;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && cfg.seconds > 0.0 &&
                     cfg.seconds <= 600.0;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") == 0   ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else if (flag == "--spans") {
      spans_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload != "serve_socket" && workload != "replay_storm" &&
      workload != "train_ppo") {
    usage("--workload must be serve_socket, replay_storm or train_ppo");
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be in (0, 600]");
  if (trace < 0) usage("--trace must be 0 or 1");

  Tracer off(false);
  Outcome base = run(workload, cfg, off);
  if (trace == 0) {
    print_json(base, base.e2e);
    return base.correct ? 0 : 1;
  }

  Tracer on(true);
  Outcome traced = run(workload, cfg, on);
  Outcome total;
  total.correct = base.correct && traced.correct;
  total.attempted = base.attempted + traced.attempted;
  total.failed = base.failed + traced.failed;
  std::vector<Metric> metrics = traced.layer;
  for (const Metric& m : base.e2e) {
    const Metric* t = traced.find_e2e(m.name);
    metrics.push_back({"trace_overhead." + m.name,
                       t != nullptr ? t->value - m.value : 0.0, m.unit});
  }
  std::fprintf(stderr, "traced run: %zu spans\n%-32s %9s %10s %10s %6s\n",
               on.span_count(), "span", "count", "mean_us", "p50_us",
               "self%");
  for (const std::string& name : on.names()) {
    const std::vector<double> d = on.durations_us(name);
    if (d.empty()) continue;
    double sum = 0.0;
    for (double x : d) sum += x;
    std::fprintf(stderr, "%-32s %9zu %10.3f %10.3f %6.1f\n", name.c_str(),
                 d.size(), sum / static_cast<double>(d.size()), median(d),
                 sum > 0.0 ? 100.0 * on.self_us(name) / sum : 0.0);
  }
  if (!spans_dir.empty()) {
    const std::string path = spans_dir + "/" + workload + "-seed" +
                             std::to_string(cfg.seed) + ".csv";
    if (!on.write_csv(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }
  print_json(total, metrics);
  return total.correct ? 0 : 1;
}
