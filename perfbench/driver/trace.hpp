#pragma once

// Outside-in per-layer tracing for the benchmark driver.
//
// Every span is recorded from the benchmark's own files: decorators wrap
// the library's public virtual seams and time each call into the layer
// behind them. Nothing inside src/ knows it is being traced.
//
//   trace_cell  wraps a CellPlan's factories, so every trial it builds
//               runs a decorated AlgorithmKernel (init / on_round_batch /
//               on_feedback_batch, counting has_message), LinkProcess
//               (on_execution_start / choose_*) and Problem
//               (observe_round / solved / solved_batch)
//   TracedFs    util::Fs: every op, split by kind
//
// Trial decorators are per-trial objects created on the thread that runs
// the trial, so they accumulate into that thread's LayerCounters without
// locking; a worker merges its counters once when it finishes.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "scenario/plan.hpp"
#include "util/io.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-layer sums of one traced pass (times in seconds, summed over
/// threads and trials).
struct LayerCounters {
  // core: the algorithm kernel
  double core_init_s = 0;
  double core_round_batch_s = 0;
  double core_feedback_batch_s = 0;
  std::uint64_t transmitters = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t has_message = 0;
  std::uint64_t rounds = 0;  ///< on_round_batch calls
  // adversary: the link process
  double adversary_start_s = 0;
  double adversary_choose_s = 0;
  std::uint64_t activated_edges = 0;
  // sim: the problem monitor, driven by the engine
  double problem_observe_s = 0;
  double problem_solved_s = 0;
  // sim: trial construction, from trial_start (set by the driver before
  // each trial) to the kernel's first round
  Clock::time_point trial_start{};
  double trial_setup_s = 0;

  void merge(const LayerCounters& other);
};

/// The calling thread's counters (trials decorate into these).
LayerCounters& thread_counters();

/// Moves the calling thread's counters into `total` under `mutex`.
void drain_thread_counters(LayerCounters& total, std::mutex& mutex);

/// Wraps every factory of `cell` so each trial it builds is traced. An
/// empty kernel factory becomes the scalar adapter the engine would
/// select anyway, wrapped.
void trace_cell(dualcast::scenario::CellPlan& cell);

/// Per-op totals of a TracedFs (thread-safe: service workers share it).
struct FsCounters {
  std::uint64_t ops = 0;
  std::uint64_t fsyncs = 0;  ///< fsync_file + sync_dir
  std::uint64_t writes = 0;  ///< write_file/append/link/rename/unlink/mkdir
  std::uint64_t bytes_written = 0;
  std::uint64_t errors = 0;  ///< ops that threw
  double busy_s = 0;         ///< Σ op time, all threads
  double main_busy_s = 0;    ///< the part on the constructing thread
  double fsync_s = 0;
};

class TracedFs final : public dualcast::util::Fs {
 public:
  explicit TracedFs(dualcast::util::Fs& inner)
      : inner_(&inner), main_(std::this_thread::get_id()) {}

  FsCounters snapshot() const;

  bool exists(const std::string& path) override;
  bool read_file(const std::string& path, std::string& out) override;
  void write_file(const std::string& path, std::string_view data) override;
  void append(const std::string& path, std::string_view data) override;
  void fsync_file(const std::string& path) override;
  bool link(const std::string& existing,
            const std::string& link_path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool unlink(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir) override;
  void create_dirs(const std::string& dir) override;
  void sync_dir(const std::string& dir) override;
  std::int64_t file_size(const std::string& path) override;
  std::int64_t free_bytes(const std::string& path) override;
  void invalidate(const std::string& path) override;

 private:
  enum class Kind { read, write, sync };
  template <typename Op>
  auto timed(Kind kind, std::size_t bytes, Op&& op) -> decltype(op());
  void record(Kind kind, std::size_t bytes, Clock::time_point start,
              bool failed);

  dualcast::util::Fs* inner_;
  std::thread::id main_;
  mutable std::mutex mutex_;
  FsCounters counters_;  ///< guarded by mutex_
};

}  // namespace perfbench
