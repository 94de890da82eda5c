#pragma once

// The node-process abstraction of §2.
//
// An algorithm is a family of n randomized processes. Each round, every
// process chooses to transmit a message or listen (`on_round`), then learns
// what it heard (`on_feedback`): either a single message (exactly one
// transmitter among its neighbors in the round's communication topology) or
// nothing — silence and collision are indistinguishable, per the standard
// radio model without collision detection.
//
// `InspectableProcess` additionally exposes the probability that the process
// will transmit in the coming round as a function of its *current* state —
// i.e. before the round's coins are drawn. This is exactly the quantity
// `E[|X| | S]` of Theorem 3.1 conditions on, and is what the engine's
// StateInspector hands to online/offline adaptive adversaries.

#include <functional>
#include <memory>
#include <optional>

#include "sim/message.hpp"
#include "util/rng.hpp"

namespace dualcast {

/// Immutable facts a process knows at start (per §2, processes know n and Δ;
/// ids are required by e.g. round robin and are standard in this setting).
struct ProcessEnv {
  int id = -1;          ///< this node's id in [0, n)
  int n = 0;            ///< network size
  int max_degree = 0;   ///< Δ: max degree in G'
  bool is_global_source = false;  ///< global broadcast: am I the source?
  bool in_broadcast_set = false;  ///< local broadcast: am I in B?
  Message initial_message;        ///< the message to disseminate, if any
};

/// A process's choice for one round.
struct Action {
  bool transmit = false;
  Message message;  ///< meaningful only when transmit == true

  static Action listen() { return {}; }
  static Action send(Message m) { return Action{true, std::move(m)}; }
};

/// What a process learns at the end of a round.
struct RoundFeedback {
  bool transmitted = false;          ///< we transmitted this round
  std::optional<Message> received;   ///< present iff a message was delivered
  int sender = -1;                   ///< sender id when received is present
  /// True iff >= 2 neighbors transmitted AND the execution was configured
  /// with collision detection (a standard model variant; the paper's model
  /// — and all of its algorithms — run without it, so this defaults to
  /// false-always).
  bool collision = false;
};

/// Base class for node processes. One instance per node per execution.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before round 0.
  virtual void init(const ProcessEnv& env, Rng& rng);

  /// Decide this round's action; may consume private randomness.
  virtual Action on_round(int round, Rng& rng) = 0;

  /// End-of-round feedback (delivered also to transmitters, with
  /// received == nullopt, since radios are half-duplex).
  virtual void on_feedback(int round, const RoundFeedback& feedback, Rng& rng);

  /// For broadcast problems: does this node currently hold the broadcast
  /// message? (Used by the global-broadcast completion check, which relies
  /// on it being monotone: once true, it stays true for the execution.)
  virtual bool has_message() const { return false; }

  const ProcessEnv& env() const { return env_; }

 protected:
  ProcessEnv env_;
};

/// A process whose next-round transmit probability is a deterministic
/// function of its current state. All algorithms in this library implement
/// this; it is what adaptive adversaries condition on.
class InspectableProcess : public Process {
 public:
  /// P[this node transmits in `round`], given its state at the beginning of
  /// `round` (before the round's coins). Must not mutate state.
  virtual double transmit_probability(int round) const = 0;
};

/// Creates the process for each node; the engine calls it once per node id.
using ProcessFactory =
    std::function<std::unique_ptr<Process>(const ProcessEnv& env)>;

}  // namespace dualcast
