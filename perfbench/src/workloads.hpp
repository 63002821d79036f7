#pragma once
// The three perfbench workloads. Each takes its inputs from the seed alone,
// drives the library through its public API, checks its outputs, and fills
// an Outcome. With an enabled Tracer the same run also records spans around
// its calls into each layer and reports the per-layer metrics derived from
// them.

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 7;

Outcome run_serve_socket(const RunConfig& cfg, Tracer& tracer);
Outcome run_replay_storm(const RunConfig& cfg, Tracer& tracer);
Outcome run_train_ppo(const RunConfig& cfg, Tracer& tracer);

}  // namespace perfbench
