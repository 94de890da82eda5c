#include "trace.hpp"

#include <type_traits>
#include <utility>

#include "sim/kernel.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"

namespace perfbench {

using namespace dualcast;

void LayerCounters::merge(const LayerCounters& o) {
  core_init_s += o.core_init_s;
  core_round_batch_s += o.core_round_batch_s;
  core_feedback_batch_s += o.core_feedback_batch_s;
  transmitters += o.transmitters;
  deliveries += o.deliveries;
  has_message += o.has_message;
  rounds += o.rounds;
  adversary_start_s += o.adversary_start_s;
  adversary_choose_s += o.adversary_choose_s;
  activated_edges += o.activated_edges;
  problem_observe_s += o.problem_observe_s;
  problem_solved_s += o.problem_solved_s;
  trial_setup_s += o.trial_setup_s;
}

LayerCounters& thread_counters() {
  thread_local LayerCounters counters;
  return counters;
}

void drain_thread_counters(LayerCounters& total, std::mutex& mutex) {
  LayerCounters& mine = thread_counters();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    total.merge(mine);
  }
  mine = LayerCounters{};
}

namespace {

class TracedKernel final : public AlgorithmKernel {
 public:
  explicit TracedKernel(std::unique_ptr<AlgorithmKernel> inner)
      : inner_(std::move(inner)), c_(&thread_counters()) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override;
  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override;
  void on_feedback_batch(const FeedbackView& feedback,
                         std::span<Rng> rngs) override;
  bool has_message(int v) const override {
    ++c_->has_message;
    return inner_->has_message(v);
  }
  double transmit_probability(int v, int round) const override {
    return inner_->transmit_probability(v, round);
  }
  double expected_transmitters(int round) const override {
    return inner_->expected_transmitters(round);
  }
  const std::vector<std::unique_ptr<Process>>* processes() const override {
    return inner_->processes();
  }

 private:
  std::unique_ptr<AlgorithmKernel> inner_;
  LayerCounters* c_;
  bool started_ = false;
};

class TracedLink final : public LinkProcess {
 public:
  explicit TracedLink(std::unique_ptr<LinkProcess> inner)
      : inner_(std::move(inner)), c_(&thread_counters()) {}

  AdversaryClass adversary_class() const override {
    return inner_->adversary_class();
  }
  bool needs_history() const override { return inner_->needs_history(); }
  void on_execution_start(const ExecutionSetup& setup, Rng& rng) override;
  void choose_oblivious(int round, Rng& rng, EdgeSet& out) override;
  void choose_online(int round, const ExecutionHistory& history,
                     const StateInspector& inspector, Rng& rng,
                     EdgeSet& out) override;
  void choose_offline(int round, const ExecutionHistory& history,
                      const StateInspector& inspector,
                      const RoundActions& actions, Rng& rng,
                      EdgeSet& out) override;

 private:
  void count(const EdgeSet& out, Clock::time_point start);

  std::unique_ptr<LinkProcess> inner_;
  const DualGraph* net_ = nullptr;  ///< from on_execution_start
  LayerCounters* c_;
};

class TracedProblem final : public Problem {
 public:
  explicit TracedProblem(std::shared_ptr<Problem> inner)
      : inner_(std::move(inner)), c_(&thread_counters()) {}

  std::string name() const override { return inner_->name(); }
  bool needs_history() const override { return inner_->needs_history(); }
  bool is_source(int v) const override { return inner_->is_source(v); }
  bool in_broadcast_set(int v) const override {
    return inner_->in_broadcast_set(v);
  }
  Message initial_message(int v) const override {
    return inner_->initial_message(v);
  }
  void observe_round(
      const RoundRecord& record,
      const std::vector<std::unique_ptr<Process>>& procs) override;
  bool solved(
      const std::vector<std::unique_ptr<Process>>& procs) const override;
  bool batch_compatible() const override {
    return inner_->batch_compatible();
  }
  bool solved_batch(const NodeStateView& nodes) const override;

 private:
  std::shared_ptr<Problem> inner_;
  LayerCounters* c_;
};

// --- TracedKernel ----------------------------------------------------------

void TracedKernel::init(const KernelSetup& setup, std::span<Rng> rngs) {
  const auto start = Clock::now();
  inner_->init(setup, rngs);
  c_->core_init_s += seconds_since(start);
}

void TracedKernel::on_round_batch(int round, TxBatch& out,
                                  std::span<Rng> rngs) {
  const auto start = Clock::now();
  if (!started_) {
    started_ = true;
    c_->trial_setup_s +=
        std::chrono::duration<double>(start - c_->trial_start).count();
  }
  inner_->on_round_batch(round, out, rngs);
  c_->core_round_batch_s += seconds_since(start);
  ++c_->rounds;
}

void TracedKernel::on_feedback_batch(const FeedbackView& feedback,
                                     std::span<Rng> rngs) {
  c_->transmitters += feedback.sent.size();
  c_->deliveries += feedback.deliveries.size();
  const auto start = Clock::now();
  inner_->on_feedback_batch(feedback, rngs);
  c_->core_feedback_batch_s += seconds_since(start);
}

// --- TracedLink ------------------------------------------------------------

void TracedLink::on_execution_start(const ExecutionSetup& setup, Rng& rng) {
  net_ = setup.net;
  const auto start = Clock::now();
  inner_->on_execution_start(setup, rng);
  c_->adversary_start_s += seconds_since(start);
}

void TracedLink::count(const EdgeSet& out, Clock::time_point start) {
  c_->adversary_choose_s += seconds_since(start);
  if (out.kind == EdgeSet::Kind::mask) {
    c_->activated_edges += static_cast<std::uint64_t>(out.count);
  } else if (out.kind == EdgeSet::Kind::all) {
    c_->activated_edges +=
        static_cast<std::uint64_t>(net_->gp_only_edge_count());
  }
}

void TracedLink::choose_oblivious(int round, Rng& rng, EdgeSet& out) {
  const auto start = Clock::now();
  inner_->choose_oblivious(round, rng, out);
  count(out, start);
}

void TracedLink::choose_online(int round, const ExecutionHistory& history,
                               const StateInspector& inspector, Rng& rng,
                               EdgeSet& out) {
  const auto start = Clock::now();
  inner_->choose_online(round, history, inspector, rng, out);
  count(out, start);
}

void TracedLink::choose_offline(int round, const ExecutionHistory& history,
                                const StateInspector& inspector,
                                const RoundActions& actions, Rng& rng,
                                EdgeSet& out) {
  const auto start = Clock::now();
  inner_->choose_offline(round, history, inspector, actions, rng, out);
  count(out, start);
}

// --- TracedProblem ---------------------------------------------------------

void TracedProblem::observe_round(
    const RoundRecord& record,
    const std::vector<std::unique_ptr<Process>>& procs) {
  const auto start = Clock::now();
  inner_->observe_round(record, procs);
  c_->problem_observe_s += seconds_since(start);
}

bool TracedProblem::solved(
    const std::vector<std::unique_ptr<Process>>& procs) const {
  const auto start = Clock::now();
  const bool done = inner_->solved(procs);
  c_->problem_solved_s += seconds_since(start);
  return done;
}

bool TracedProblem::solved_batch(const NodeStateView& nodes) const {
  const auto start = Clock::now();
  const bool done = inner_->solved_batch(nodes);
  c_->problem_solved_s += seconds_since(start);
  return done;
}

}  // namespace

void trace_cell(scenario::CellPlan& cell) {
  cell.kernel = [inner = cell.kernel, factory = cell.factory] {
    return std::make_unique<TracedKernel>(
        inner ? inner() : make_scalar_kernel_adapter(factory));
  };
  cell.adversary = [inner = cell.adversary] {
    return std::make_unique<TracedLink>(inner());
  };
  cell.problem = [inner = cell.problem] {
    return std::make_shared<TracedProblem>(inner());
  };
}

// --- TracedFs --------------------------------------------------------------

template <typename Op>
auto TracedFs::timed(Kind kind, std::size_t bytes, Op&& op)
    -> decltype(op()) {
  const auto start = Clock::now();
  try {
    if constexpr (std::is_void_v<decltype(op())>) {
      op();
      record(kind, bytes, start, false);
    } else {
      auto result = op();
      record(kind, bytes, start, false);
      return result;
    }
  } catch (...) {
    record(kind, bytes, start, true);
    throw;
  }
}

void TracedFs::record(Kind kind, std::size_t bytes, Clock::time_point start,
                      bool failed) {
  const double took = seconds_since(start);
  const bool on_main = std::this_thread::get_id() == main_;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.ops;
  counters_.busy_s += took;
  if (on_main) counters_.main_busy_s += took;
  if (failed) ++counters_.errors;
  if (kind == Kind::sync) {
    ++counters_.fsyncs;
    counters_.fsync_s += took;
  } else if (kind == Kind::write) {
    ++counters_.writes;
    counters_.bytes_written += bytes;
  }
}

FsCounters TracedFs::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

bool TracedFs::exists(const std::string& path) {
  return timed(Kind::read, 0, [&] { return inner_->exists(path); });
}

bool TracedFs::read_file(const std::string& path, std::string& out) {
  return timed(Kind::read, 0, [&] { return inner_->read_file(path, out); });
}

void TracedFs::write_file(const std::string& path, std::string_view data) {
  timed(Kind::write, data.size(), [&] { inner_->write_file(path, data); });
}

void TracedFs::append(const std::string& path, std::string_view data) {
  timed(Kind::write, data.size(), [&] { inner_->append(path, data); });
}

void TracedFs::fsync_file(const std::string& path) {
  timed(Kind::sync, 0, [&] { inner_->fsync_file(path); });
}

bool TracedFs::link(const std::string& existing,
                    const std::string& link_path) {
  return timed(Kind::write, 0,
               [&] { return inner_->link(existing, link_path); });
}

void TracedFs::rename(const std::string& from, const std::string& to) {
  timed(Kind::write, 0, [&] { inner_->rename(from, to); });
}

bool TracedFs::unlink(const std::string& path) {
  return timed(Kind::write, 0, [&] { return inner_->unlink(path); });
}

std::vector<std::string> TracedFs::list(const std::string& dir) {
  return timed(Kind::read, 0, [&] { return inner_->list(dir); });
}

void TracedFs::create_dirs(const std::string& dir) {
  timed(Kind::write, 0, [&] { inner_->create_dirs(dir); });
}

void TracedFs::sync_dir(const std::string& dir) {
  timed(Kind::sync, 0, [&] { inner_->sync_dir(dir); });
}

std::int64_t TracedFs::file_size(const std::string& path) {
  return timed(Kind::read, 0, [&] { return inner_->file_size(path); });
}

std::int64_t TracedFs::free_bytes(const std::string& path) {
  return timed(Kind::read, 0, [&] { return inner_->free_bytes(path); });
}

void TracedFs::invalidate(const std::string& path) {
  timed(Kind::read, 0, [&] { inner_->invalidate(path); });
}

}  // namespace perfbench
