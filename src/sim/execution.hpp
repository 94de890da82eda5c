#pragma once

// Configuration and result of one execution of the §2 round loop. The
// engine itself is KernelExecution (sim/kernel_execution.hpp).

#include <cstdint>
#include <functional>

#include "sim/history.hpp"
#include "sim/process.hpp"
#include "util/rng.hpp"

namespace dualcast {

struct ExecutionConfig {
  std::uint64_t seed = 1;
  int max_rounds = 100000;
  /// Optional rewrite of each node's ProcessEnv before process creation.
  /// Used by isolated sub-simulations (Lemma 4.4) that run a fragment of a
  /// network but must present processes with their *original* identity
  /// (global id, n, Δ, role).
  std::function<ProcessEnv(ProcessEnv)> env_override;
  /// Model variant: listeners with >= 2 transmitting neighbors learn that a
  /// collision happened (RoundFeedback::collision). The paper's model is
  /// without collision detection — leave false to reproduce it.
  bool collision_detection = false;
  /// Requested history retention. `lean` is honored only when neither the
  /// link process nor the problem declares needs_history(); otherwise the
  /// engine silently falls back to `full` so adaptive adversaries always
  /// see the trace they are entitled to. KernelExecution::history_policy()
  /// reports the effective choice.
  HistoryPolicy history_policy = HistoryPolicy::full;
  /// RNG stream discipline for the kernels (see RngMode in util/rng.hpp).
  /// `per_node` is the byte-identical-parity default; `word` batches 64
  /// coin flips per draw ladder on per-block streams. Kernels without a
  /// word path — the scalar adapter among them — ignore this field and
  /// keep drawing per node.
  RngMode rng_mode = RngMode::per_node;

  // Named-field construction, so call sites never depend on member order:
  //   ExecutionConfig{}.with_seed(7).with_max_rounds(4000)
  ExecutionConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExecutionConfig& with_max_rounds(int rounds) {
    max_rounds = rounds;
    return *this;
  }
  ExecutionConfig& with_env_override(
      std::function<ProcessEnv(ProcessEnv)> fn) {
    env_override = std::move(fn);
    return *this;
  }
  ExecutionConfig& with_collision_detection(bool on) {
    collision_detection = on;
    return *this;
  }
  ExecutionConfig& with_history_policy(HistoryPolicy policy) {
    history_policy = policy;
    return *this;
  }
  ExecutionConfig& with_rng_mode(RngMode mode) {
    rng_mode = mode;
    return *this;
  }
};

struct RunResult {
  bool solved = false;
  /// Rounds executed: the 1-based round count at which the problem was
  /// solved, or max_rounds if it was not.
  int rounds = 0;
};

}  // namespace dualcast
