// Kernel equivalence: for every ported kernel, KernelExecution must replay
// bit-identically against the scalar adapter kernel — same transmitters,
// messages, deliveries, solve round — across topologies, adversary classes
// (including adaptive ones, which also exercises the kernel-backed
// StateInspector), and problems. Plus the scalar-adapter path for custom
// algorithms, the batch-compatibility contract for problems, and the
// has_message monotonicity contract the global-broadcast solved check
// relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using scenario::Topology;

struct Combo {
  std::string topology;
  std::string algorithm;
  std::string adversary;
  std::string problem;
  int max_rounds;
};

/// Runs `max_rounds` (or to solve) with the native kernel and with the
/// scalar adapter, and compares the full observable trace.
void expect_engines_agree(const Combo& combo, std::uint64_t seed) {
  SCOPED_TRACE(combo.topology + " | " + combo.algorithm + " | " +
               combo.adversary + " | " + combo.problem);
  const Topology topo = scenario::topologies().build(combo.topology, 5);
  const ProcessFactory factory =
      scenario::algorithms().build(combo.algorithm);
  const KernelFactory kernel_factory =
      scenario::build_kernel_or_null(combo.algorithm);
  ASSERT_TRUE(kernel_factory) << "no kernel registered for "
                              << combo.algorithm;
  const auto adversary = [&] {
    return scenario::adversaries().build(combo.adversary, topo)();
  };
  const auto problem = [&] {
    return scenario::problems().build(combo.problem, topo)();
  };
  const auto config = [&] {
    return ExecutionConfig{}
        .with_seed(seed)
        .with_max_rounds(combo.max_rounds)
        .with_history_policy(HistoryPolicy::full);
  };

  auto scalar = testing::scalar_execution(topo.net(), factory, problem(),
                                          adversary(), config());
  const RunResult scalar_result = scalar.run();
  KernelExecution kernel(topo.net(), factory, kernel_factory(), problem(),
                         adversary(), config());
  const RunResult kernel_result = kernel.run();

  ASSERT_EQ(scalar_result.solved, kernel_result.solved);
  ASSERT_EQ(scalar_result.rounds, kernel_result.rounds);
  EXPECT_EQ(scalar.first_receive_round(), kernel.first_receive_round());

  const auto& s_records = scalar.history().records();
  const auto& k_records = kernel.history().records();
  ASSERT_EQ(s_records.size(), k_records.size());
  for (std::size_t r = 0; r < s_records.size(); ++r) {
    const RoundRecord& a = s_records[r];
    const RoundRecord& b = k_records[r];
    ASSERT_EQ(a.transmitters, b.transmitters) << "round " << r;
    ASSERT_EQ(a.sent.size(), b.sent.size()) << "round " << r;
    for (std::size_t i = 0; i < a.sent.size(); ++i) {
      ASSERT_TRUE(a.sent[i] == b.sent[i]) << "round " << r << " tx " << i;
    }
    ASSERT_EQ(a.activated, b.activated) << "round " << r;
    ASSERT_EQ(a.activated_count, b.activated_count) << "round " << r;
    // activated_mask contents are unspecified scratch unless the round's
    // kind is mask (see RoundRecord).
    if (a.activated == EdgeSet::Kind::mask) {
      ASSERT_EQ(a.activated_mask, b.activated_mask) << "round " << r;
    }
    // The delivery *set* is engine-invariant; the emission order depends on
    // the resolver strategy.
    const auto key = [](const Delivery& d) {
      return std::tuple(d.receiver, d.sender, d.transmitter_index);
    };
    std::vector<std::tuple<int, int, int>> da;
    std::vector<std::tuple<int, int, int>> db;
    for (const Delivery& d : a.deliveries) da.push_back(key(d));
    for (const Delivery& d : b.deliveries) db.push_back(key(d));
    std::sort(da.begin(), da.end());
    std::sort(db.begin(), db.end());
    ASSERT_EQ(da, db) << "round " << r;
  }
}

TEST(KernelEngineEquivalence, DecayGlobalAcrossAdversaryClasses) {
  for (const char* adversary :
       {"none", "all", "iid(0.4)", "flicker(3,2)", "anti_schedule",
        "dense_sparse", "collider"}) {
    expect_engines_agree({"dual_clique(32)", "decay_global(fixed,persistent)",
                          adversary, "global(1)", 600},
                         11);
    expect_engines_agree({"dual_clique(32)",
                          "decay_global(permuted,persistent)", adversary,
                          "global(1)", 600},
                         12);
  }
  expect_engines_agree(
      {"line_overlay(48,4)", "decay_global(permuted)", "iid(0.5)",
       "global(0)", 800},
      13);
}

TEST(KernelEngineEquivalence, LocalDecayAndRoundRobin) {
  for (const char* adversary : {"none", "iid(0.3)", "dense_sparse"}) {
    expect_engines_agree({"dual_clique(24)", "decay_local", adversary,
                          "local(side_a)", 400},
                         21);
    expect_engines_agree({"dual_clique(24)", "decay_local(permuted)",
                          adversary, "local(side_a)", 400},
                         22);
    expect_engines_agree({"dual_clique(24)", "round_robin", adversary,
                          "global(1)", 400},
                         23);
    expect_engines_agree({"dual_clique(24)", "round_robin(norelay)",
                          adversary, "local(side_a)", 400},
                         24);
  }
}

TEST(KernelEngineEquivalence, RobustMixAndGossip) {
  for (const char* adversary : {"none", "iid(0.4)", "collider"}) {
    expect_engines_agree({"dual_clique(24)", "robust_mix", adversary,
                          "global(1)", 700},
                         31);
    expect_engines_agree(
        {"line_overlay(32,3)", "gossip", adversary, "gossip(4)", 2500}, 32);
    // Quiescing gossip: the expiry windows gate both the coins and the
    // offer rotation, so the parity contract covers them too.
    expect_engines_agree(
        {"dual_clique(32)", "gossip(quiesce)", adversary, "gossip(2)", 2500},
        33);
  }
}

TEST(KernelEngineEquivalence, GeoLocalBothSeedModes) {
  for (const char* adversary : {"none", "iid(0.3)", "flicker(2,2)"}) {
    expect_engines_agree({"jgrid(8,8,0.5,0.05,2.0)", "geo_local", adversary,
                          "local(every(3))", 2000},
                         41);
    expect_engines_agree({"jgrid(8,8,0.5,0.05,2.0)", "geo_local(private)",
                          adversary, "local(every(3))", 2000},
                         42);
  }
  // Bracelet pre-simulation: construction-aware oblivious attack.
  expect_engines_agree({"bracelet(96)", "decay_local", "bracelet_presim(0.3)",
                        "local(heads_a)", 600},
                       43);
}

TEST(KernelEngineEquivalence, MultipleSeedsSpotCheck) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    expect_engines_agree({"jgrid(6,6,0.5,0.05,2.0)", "geo_local", "iid(0.5)",
                          "local(every(2))", 1500},
                         seed);
    expect_engines_agree({"dual_clique(48)",
                          "decay_global(permuted,persistent)", "dense_sparse",
                          "global(1)", 800},
                         seed);
  }
}

/// The problem a kernel is exercised under: one whose roles give its nodes
/// messages to acquire. Keyed by the kernels() entry name; a kernel missing
/// here fails the monotonicity test below rather than going unchecked.
std::string problem_for(const std::string& algorithm, bool dual_clique) {
  const std::string name = scenario::parse_call(algorithm).name;
  if (name == "decay_global" || name == "round_robin" ||
      name == "robust_mix") {
    return dual_clique ? "global(1)" : "global(0)";
  }
  if (name == "decay_local" || name == "geo_local") {
    return dual_clique ? "local(side_a)" : "local(every(3))";
  }
  if (name == "gossip") return "gossip(3)";
  return "";
}

/// Steps `exec` to the end and fails if any node's has_message goes from
/// true to false. Returns how many nodes went from false to true.
int expect_has_message_monotone(KernelExecution& exec) {
  const AlgorithmKernel& kernel = exec.kernel();
  const int n = exec.net().n();
  std::vector<char> had(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    had[static_cast<std::size_t>(v)] = kernel.has_message(v);
  }
  int gained = 0;
  while (!exec.done()) {
    exec.step();
    for (int v = 0; v < n; ++v) {
      const bool has = kernel.has_message(v);
      char& before = had[static_cast<std::size_t>(v)];
      if (before && !has) {
        ADD_FAILURE() << "node " << v << " lost its message in round "
                      << exec.round() - 1;
        return gained;
      }
      gained += !before && has;
      before = has;
    }
  }
  return gained;
}

TEST(KernelEngineContract, HasMessageIsMonotone) {
  // GlobalBroadcastProblem's watermark solved check assumes a node never
  // loses the message; pin that for every registered kernel and for the
  // scalar adapter around the same algorithm.
  std::vector<std::string> algorithms;
  for (const auto* entry : scenario::kernels().entries()) {
    algorithms.push_back(entry->name);
  }
  for (const char* variant :
       {"decay_global(fixed,persistent)", "decay_global(permuted,persistent)",
        "decay_local(permuted)", "round_robin(norelay)", "gossip(quiesce)"}) {
    algorithms.emplace_back(variant);
  }
  int gained = 0;
  for (const char* topology : {"dual_clique(32)", "jgrid(6,6,0.5,0.05,2.0)"}) {
    const bool dual_clique = std::string(topology).starts_with("dual_clique");
    const Topology topo = scenario::topologies().build(topology, 5);
    for (const std::string& algorithm : algorithms) {
      const std::string problem = problem_for(algorithm, dual_clique);
      ASSERT_FALSE(problem.empty())
          << "no problem chosen for kernel " << algorithm;
      const ProcessFactory factory = scenario::algorithms().build(algorithm);
      const KernelFactory kernel = scenario::kernels().build(algorithm);
      for (const char* adversary : {"iid(0.4)", "dense_sparse", "collider"}) {
        SCOPED_TRACE(std::string(topology) + " | " + algorithm + " | " +
                     adversary);
        const auto config =
            ExecutionConfig{}.with_seed(17).with_max_rounds(300);
        KernelExecution native(
            topo.net(), factory, kernel(),
            scenario::problems().build(problem, topo)(),
            scenario::adversaries().build(adversary, topo)(), config);
        gained += expect_has_message_monotone(native);
        KernelExecution adapted(
            topo.net(), factory, make_scalar_kernel_adapter(factory),
            scenario::problems().build(problem, topo)(),
            scenario::adversaries().build(adversary, topo)(), config);
        gained += expect_has_message_monotone(adapted);
      }
    }
  }
  EXPECT_GT(gained, 0) << "no node ever acquired a message: vacuous run";
}

TEST(KernelEngineAdapter, CustomProcessRunsIdentically) {
  // A scripted (non-ported) algorithm through the adapter: every round's
  // transmitters are exactly the scripted ones, and each process's own
  // feedback agrees with the recorded deliveries.
  const Topology topo = scenario::topologies().build("dual_clique(16)", 5);
  std::vector<std::vector<char>> scripts(16);
  scripts[1] = {1, 0, 1, 0, 1};
  scripts[5] = {0, 1, 1, 0, 0};
  scripts[9] = {0, 0, 1, 1, 0};
  const int rounds = 5;
  auto exec = testing::scalar_execution(
      topo.net(), testing::scripted_factory(scripts),
      scenario::problems().build("assignment(1)", topo)(),
      scenario::adversaries().build("iid(0.5)", topo)(),
      ExecutionConfig{}
          .with_seed(3)
          .with_max_rounds(rounds)
          .with_history_policy(HistoryPolicy::full));
  exec.run();
  ASSERT_EQ(exec.round(), rounds);
  for (int r = 0; r < rounds; ++r) {
    const RoundRecord& rec = exec.history().round(r);
    std::vector<int> scripted;
    for (int v = 0; v < topo.n(); ++v) {
      const auto& script = scripts[static_cast<std::size_t>(v)];
      if (r < static_cast<int>(script.size()) &&
          script[static_cast<std::size_t>(r)]) {
        scripted.push_back(v);
      }
    }
    EXPECT_EQ(rec.transmitters, scripted) << "round " << r;
    for (int v = 0; v < topo.n(); ++v) {
      const auto& proc =
          dynamic_cast<const testing::ScriptedProcess&>(exec.process(v));
      ASSERT_EQ(static_cast<int>(proc.feedback().size()), rounds);
      const RoundFeedback& fb = proc.feedback()[static_cast<std::size_t>(r)];
      EXPECT_EQ(fb.transmitted, std::count(scripted.begin(), scripted.end(),
                                           v) == 1);
      const auto d = std::find_if(
          rec.deliveries.begin(), rec.deliveries.end(),
          [&](const Delivery& x) { return x.receiver == v; });
      EXPECT_EQ(fb.received.has_value(), d != rec.deliveries.end())
          << "round " << r << " node " << v;
      EXPECT_EQ(fb.sender, d != rec.deliveries.end() ? d->sender : -1);
    }
  }
}

TEST(KernelEngineContract, NonBatchProblemRequiresAdapter) {
  // A problem that does not declare batch_compatible() cannot run on a
  // process-less kernel...
  class OpaqueProblem final : public Problem {
   public:
    std::string name() const override { return "opaque"; }
    bool is_source(int v) const override { return v == 0; }
    bool solved(
        const std::vector<std::unique_ptr<Process>>& procs) const override {
      return !procs.empty() && procs[0]->has_message();
    }
  };
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const ProcessFactory factory = scenario::algorithms().build("round_robin");
  const KernelFactory kernel = scenario::build_kernel_or_null("round_robin");
  const auto adversary = scenario::adversaries().build("none", topo);
  EXPECT_THROW(KernelExecution(topo.net(), factory, kernel(),
                               std::make_shared<OpaqueProblem>(), adversary(),
                               ExecutionConfig{}.with_seed(1)),
               ContractViolation);
  // ...and runs fine through the scalar adapter.
  KernelExecution exec(topo.net(), factory,
                       make_scalar_kernel_adapter(factory),
                       std::make_shared<OpaqueProblem>(), adversary(),
                       ExecutionConfig{}.with_seed(1).with_max_rounds(4));
  exec.run();
  EXPECT_TRUE(exec.solved());
}

TEST(KernelEngineContract, ProcessAccessorNeedsProcessBackedKernel) {
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const ProcessFactory factory = scenario::algorithms().build("round_robin");
  const KernelFactory kernel = scenario::build_kernel_or_null("round_robin");
  const auto problem = scenario::problems().build("global(0)", topo);
  const auto adversary = scenario::adversaries().build("none", topo);
  KernelExecution native(topo.net(), factory, kernel(), problem(), adversary(),
                         ExecutionConfig{}.with_seed(1));
  EXPECT_THROW(native.process(0), ContractViolation);
  auto adapted = testing::scalar_execution(topo.net(), factory, problem(),
                                           adversary(),
                                           ExecutionConfig{}.with_seed(1));
  EXPECT_TRUE(adapted.process(0).has_message());
  EXPECT_FALSE(adapted.process(1).has_message());
  EXPECT_THROW(adapted.process(8), ContractViolation);
}

}  // namespace
}  // namespace dualcast
