#pragma once

// The synchronous execution engine for the dual graph model (§2).
//
// Round structure (enforcing each adversary class's information access):
//
//   1. online adaptive adversaries choose the round's G'-only edges first,
//      seeing history + start-of-round state but no round-r coins;
//   2. every node draws its action (transmit/listen) from its private
//      stream — one AlgorithmKernel::on_round_batch call appends the
//      round's transmitters straight into the reusable round record;
//   3. oblivious adversaries' choices are read from their precommitted
//      schedule (they never see any execution information); offline adaptive
//      adversaries choose now, seeing the drawn actions (the per-node Action
//      array is materialized for them alone);
//   4. deliveries are resolved under the §2 receive rule: u receives m from v
//      iff u listens, v transmits m, and v is the *only* transmitter among
//      u's neighbors in G ∪ (selected G'-only edges). Silence and collision
//      are indistinguishable to processes (no collision detection);
//   5. feedback is delivered (one on_feedback_batch call over the round's
//      deliveries), the round is recorded, and the problem monitor updates
//      its solved state.
//
// The engine is deterministic: a master seed forks one stream per node (in
// node order) plus one for the adversary, so identical configurations
// replay identically. Nodes are driven by an AlgorithmKernel: a native
// batch port, or make_scalar_kernel_adapter around any ProcessFactory
// (`--engine scalar` forces the adapter). Kernels contract to consume
// per-stream draws exactly as their scalar algorithm does, so both replay
// bit-identically; tests/test_sim_kernel_engine.cpp and the catalog-wide
// scenario test enforce this.

#include <memory>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/delivery_resolver.hpp"
#include "sim/execution.hpp"
#include "sim/history.hpp"
#include "sim/kernel.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"

namespace dualcast {

class KernelExecution {
 public:
  /// `factory` is the scalar process factory — handed to the adversary,
  /// which "knows the algorithm" (§2) and may privately simulate it, and
  /// used to build environments. `kernel` drives the nodes; pass the
  /// scalar adapter (make_scalar_kernel_adapter) for algorithms without a
  /// batch port. If the kernel has no backing processes, the problem must
  /// declare batch_compatible().
  KernelExecution(const DualGraph& net, ProcessFactory factory,
                  std::unique_ptr<AlgorithmKernel> kernel,
                  std::shared_ptr<Problem> problem,
                  std::unique_ptr<LinkProcess> link_process,
                  ExecutionConfig config);
  ~KernelExecution();

  void step();
  RunResult run();

  bool solved() const { return solved_; }
  bool done() const { return solved_ || round_ >= config_.max_rounds; }
  int round() const { return round_; }

  const ExecutionHistory& history() const { return history_; }
  HistoryPolicy history_policy() const { return history_.policy(); }
  const Problem& problem() const { return *problem_; }
  const DualGraph& net() const { return *net_; }
  const StateInspector& inspector() const { return inspector_; }
  const AlgorithmKernel& kernel() const { return *kernel_; }

  /// Access to a process, e.g. for algorithm-specific assertions in tests.
  /// Requires a kernel backed by processes (the scalar adapter).
  const Process& process(int v) const;

  const std::vector<int>& first_receive_round() const {
    return first_receive_round_;
  }

  /// Test/diagnostic hook: the engine's delivery resolver (force_path /
  /// last_path). Forcing a strategy changes performance only, never the
  /// delivery sets.
  DeliveryResolver& resolver() { return resolver_; }

 private:
  class KernelStateView;

  void select_edges_post_actions();
  bool problem_solved() const;

  const DualGraph* net_;
  std::shared_ptr<Problem> problem_;
  std::unique_ptr<LinkProcess> link_process_;
  ExecutionConfig config_;
  ProcessFactory factory_holder_;
  std::unique_ptr<AlgorithmKernel> kernel_;
  std::unique_ptr<KernelStateView> state_view_;

  std::vector<Rng> node_rngs_;
  std::vector<Rng> block_rngs_;  ///< word RNG mode: one per 64-node block
  Rng adversary_rng_;
  StateInspector inspector_;
  ExecutionHistory history_;

  int round_ = 0;
  bool solved_ = false;
  bool offline_actions_ = false;  ///< maintain actions_ for choose_offline
  std::vector<int> first_receive_round_;

  // Scratch reused across rounds, so a steady-state step() performs no
  // allocations of its own (the stored RoundRecord under the full history
  // policy, and whatever the adversary allocates inside its choose_* hook,
  // are the only remaining per-round allocations).
  std::vector<Action> actions_;  ///< offline adaptive adversaries only
  RoundRecord record_;
  std::vector<int> tx_index_of_;
  /// The adversary's per-round choice, filled in place by the choose_*
  /// hooks. Its mask buffer rotates through record_.activated_mask (and,
  /// under lean history, the history's reusable last-record), so mask
  /// rounds allocate nothing in steady state.
  EdgeSet edges_;
  DeliveryResolver resolver_;
};

}  // namespace dualcast
