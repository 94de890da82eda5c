// Problem semantics: role assignment, receiver-set computation, and the two
// local-broadcast crediting modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dualcast {
namespace {

using testing::scalar_execution;
using testing::scripted_factory;

/// Message flags set by the test, with every has_message read counted.
class CountingNodes {
 public:
  explicit CountingNodes(int n) : has_(static_cast<std::size_t>(n), 0) {}

  int n() const { return static_cast<int>(has_.size()); }
  bool has_message(int v) const {
    ++calls_;
    return has_[static_cast<std::size_t>(v)] != 0;
  }
  void inform(int v) { has_[static_cast<std::size_t>(v)] = 1; }
  bool all_informed() const {
    return std::all_of(has_.begin(), has_.end(),
                       [](char h) { return h != 0; });
  }
  std::int64_t calls() const { return calls_; }

 private:
  std::vector<char> has_;
  mutable std::int64_t calls_ = 0;
};

/// The batch engine's view of the flags.
class CountingView final : public NodeStateView {
 public:
  explicit CountingView(const CountingNodes& nodes) : nodes_(&nodes) {}
  int n() const override { return nodes_->n(); }
  bool has_message(int v) const override { return nodes_->has_message(v); }

 private:
  const CountingNodes* nodes_;
};

/// The scalar adapter's view: one Process per node reading its flag.
class FlagProcess final : public Process {
 public:
  FlagProcess(const CountingNodes& nodes, int v) : nodes_(&nodes), v_(v) {}
  Action on_round(int /*round*/, Rng& /*rng*/) override {
    return Action::listen();
  }
  bool has_message() const override { return nodes_->has_message(v_); }

 private:
  const CountingNodes* nodes_;
  int v_;
};

/// Informs the nodes of `order` a few at a time (zero to three per step)
/// and checks, after every step, that both solved checks agree with a full
/// scan and that the has_message reads stay within n + steps per path.
void expect_watermark_matches_scan(const std::vector<int>& order,
                                   std::uint64_t seed) {
  const int n = static_cast<int>(order.size());
  const DualGraph net = DualGraph::protocol(line_graph(n));
  const GlobalBroadcastProblem batch_problem(net, order.front());
  const GlobalBroadcastProblem scalar_problem(net, order.front());
  CountingNodes batch_nodes(n);
  CountingNodes scalar_nodes(n);
  const CountingView view(batch_nodes);
  std::vector<std::unique_ptr<Process>> procs;
  for (int v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<FlagProcess>(scalar_nodes, v));
  }

  Rng rng(seed);
  std::size_t next = 0;
  std::int64_t steps = 0;
  while (true) {
    const bool want = batch_nodes.all_informed();
    ++steps;
    ASSERT_EQ(batch_problem.solved_batch(view), want) << "step " << steps;
    ASSERT_EQ(scalar_problem.solved(procs), want) << "step " << steps;
    if (want) break;
    const std::size_t burst = static_cast<std::size_t>(rng.bits(2));
    for (std::size_t i = 0; i < burst && next < order.size(); ++i, ++next) {
      batch_nodes.inform(order[next]);
      scalar_nodes.inform(order[next]);
    }
  }
  // The scan itself is monotone too: solved stays solved.
  EXPECT_TRUE(batch_problem.solved_batch(view));
  EXPECT_TRUE(scalar_problem.solved(procs));
  ++steps;
  EXPECT_LE(batch_nodes.calls(), n + steps);
  EXPECT_LE(scalar_nodes.calls(), n + steps);
  EXPECT_EQ(batch_nodes.calls(), scalar_nodes.calls());
}

TEST(GlobalProblem, WatermarkSolvedCheckMatchesFullScan) {
  const int n = 97;
  std::vector<int> ascending(static_cast<std::size_t>(n));
  std::iota(ascending.begin(), ascending.end(), 0);
  expect_watermark_matches_scan(ascending, 1);
  // Node 0 last: the watermark cannot move until the final step.
  std::vector<int> descending(ascending.rbegin(), ascending.rend());
  expect_watermark_matches_scan(descending, 2);
  for (std::uint64_t seed = 3; seed < 13; ++seed) {
    std::vector<int> shuffled = ascending;
    Rng rng(seed * 7919);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(i)));
      std::swap(shuffled[i], shuffled[j]);
    }
    expect_watermark_matches_scan(shuffled, seed);
  }
}

TEST(GlobalProblem, AssignsSourceRole) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const GlobalBroadcastProblem problem(net, 2);
  EXPECT_TRUE(problem.is_source(2));
  EXPECT_FALSE(problem.is_source(0));
  EXPECT_FALSE(problem.in_broadcast_set(2));
  EXPECT_EQ(problem.initial_message(2).source, 2);
  EXPECT_EQ(problem.initial_message(0).source, -1);
}

TEST(GlobalProblem, RequiresConnectedG) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  Graph gp = complete_graph(4);
  const DualGraph net(std::move(g), std::move(gp));
  EXPECT_THROW(GlobalBroadcastProblem(net, 0), ContractViolation);
}

TEST(GlobalProblem, RequiresValidSource) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  EXPECT_THROW(GlobalBroadcastProblem(net, 4), ContractViolation);
  EXPECT_THROW(GlobalBroadcastProblem(net, -1), ContractViolation);
}

TEST(LocalProblem, ReceiverSetIsGNeighborhoodOfB) {
  // Line 0-1-2-3-4 with B = {0, 3}: R = N_G(B) = {1, 2, 4} plus any B nodes
  // adjacent to B (none here).
  const DualGraph net = DualGraph::protocol(line_graph(5));
  const LocalBroadcastProblem problem(net, {0, 3});
  std::vector<int> r = problem.receivers();
  std::sort(r.begin(), r.end());
  EXPECT_EQ(r, (std::vector<int>{1, 2, 4}));
}

TEST(LocalProblem, AdjacentBNodesAreAlsoReceivers) {
  // B = {1, 2} adjacent in the line: each is in the other's R.
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const LocalBroadcastProblem problem(net, {1, 2});
  std::vector<int> r = problem.receivers();
  std::sort(r.begin(), r.end());
  EXPECT_EQ(r, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LocalProblem, RejectsBadBroadcastSets) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  EXPECT_THROW(LocalBroadcastProblem(net, {}), ContractViolation);
  EXPECT_THROW(LocalBroadcastProblem(net, {0, 0}), ContractViolation);
  EXPECT_THROW(LocalBroadcastProblem(net, {4}), ContractViolation);
}

TEST(LocalProblem, SolvedWhenAllReceiversCredited) {
  // Line 0-1-2, B = {0}: R = {1}. One clean transmission solves it.
  const DualGraph net = DualGraph::protocol(line_graph(3));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0});
  auto exec = scalar_execution(net, scripted_factory({{1}, {0}, {0}}), problem,
                               std::make_unique<NoExtraEdges>(), {1, 5, {}});
  const RunResult result = exec.run();
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(problem->satisfied_count(), 1);
  EXPECT_TRUE(problem->unsatisfied().empty());
}

TEST(LocalProblem, NonBSendersDoNotCount) {
  // B = {0} on line 0-1-2. Node 2 transmits (it is not in B): node 1 hears
  // it, but that must not satisfy node 1.
  const DualGraph net = DualGraph::protocol(line_graph(3));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0});
  auto exec = scalar_execution(net, scripted_factory({{0}, {0}, {1}}), problem,
                               std::make_unique<NoExtraEdges>(), {1, 1, {}});
  const RunResult result = exec.run();
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(problem->satisfied_count(), 0);
}

TEST(LocalProblem, LiberalCreditAcceptsGPrimeDelivery) {
  // G: line 0-1-2 and an isolated-ish node 3 connected via G edge to 2;
  // G' adds (0, 3). B = {0, 2}: R includes 3 (G-neighbor of 2). A delivery
  // from 0 (in B) over the activated G' edge credits 3 under the liberal
  // (paper) reading.
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0, 2}, ReceiverCredit::any_b_sender);
  // Only node 0 transmits; chord (0,3) active.
  auto exec = scalar_execution(net, scripted_factory({{1}, {0}, {0}, {0}}),
                               problem, std::make_unique<AllExtraEdges>(),
                               {1, 1, {}});
  exec.run();
  const auto unsat = problem->unsatisfied();
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), 3), 0)
      << "3 should be credited by 0's delivery over G'";
}

TEST(LocalProblem, StrictCreditRequiresGNeighborSender) {
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0, 2}, ReceiverCredit::g_neighbor_only);
  auto exec = scalar_execution(net, scripted_factory({{1}, {0}, {0}, {0}}),
                               problem, std::make_unique<AllExtraEdges>(),
                               {1, 1, {}});
  exec.run();
  const auto unsat = problem->unsatisfied();
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), 3), 1)
      << "0 is not a G-neighbor of 3; strict mode must not credit";
}

TEST(AssignmentProblem, NeverSolvedAndAllowsDisconnected) {
  const DualCliqueNet dc = dual_clique_without_bridge(8);
  auto problem = std::make_shared<AssignmentProblem>(
      8, 0, std::vector<int>{1, 2});
  EXPECT_TRUE(problem->is_source(0));
  EXPECT_TRUE(problem->in_broadcast_set(1));
  EXPECT_FALSE(problem->in_broadcast_set(0));
  auto exec = scalar_execution(
      dc.net, scripted_factory(std::vector<std::vector<char>>(8)), problem,
      std::make_unique<NoExtraEdges>(), {1, 3, {}});
  const RunResult result = exec.run();
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.rounds, 3);
}

}  // namespace
}  // namespace dualcast
