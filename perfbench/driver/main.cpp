// perfbench_driver: one benchmark run of one workload.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --pins <file> --workdir <dir> [--smoke]
//
// Workloads (perfbench/README.md says why each exists):
//   fig1-inproc   the whole fig1/ tier through run_scenarios with the
//                 scenario-level scheduler on 4 threads
//   fig1-serve    the same selection through service::serve with 4
//                 in-process workers, then the identical request again,
//                 answered by the result cache
//   collider-4k   one scale/dual-clique-collider trial at n = 4096, to solve
//
// Every workload has two pinned input sets: "default" (the catalog's own
// seeds) and "heldout" (every seed shifted by 1000). Their outputs are
// pinned in the pins file; a mismatch marks the pass's operations failed
// and the driver exits 1.
//
// --trace 0 first times set-up alone (which also warms the process up),
// then measures rounds of both input sets back to back (the seed's parity
// picks which goes first) for as long as --seconds allows, and prints the
// end-to-end metrics as medians. Untraced passes call the program's own
// entry points (run_scenarios, service::serve, build_point_plan +
// measure_point_cell); the traced passes drive the same schedule by hand,
// to wrap the seams, and check their outputs against them. --trace 1 runs
// the seed's set once untraced and once traced, checks the two outputs are
// identical, and prints the per-layer metrics. The last stdout line is the
// result JSON.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "scenario/plan.hpp"
#include "scenario/registries.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "service/service.hpp"
#include "sim/kernel_execution.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace dualcast;
using scenario::ScenarioSpec;

constexpr int kThreads = 4;
constexpr std::uint64_t kHeldoutShift = 1000;
constexpr int kHeldout = 1;  ///< input set 0 is "default", 1 is "heldout"

// --- small helpers -------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::string rows_digest(const std::vector<std::string>& rows) {
  std::uint64_t hash = scenario::fnv1a64("");
  for (const std::string& row : rows) hash = scenario::fnv1a64(row, hash);
  return scenario::hash_hex(hash);
}

/// Rounds executed by every trial of the rows: each row's "values" are
/// rounds to solve (or to first receipt), censored trials already at the
/// round budget they ran to.
std::uint64_t rounds_in_rows(const std::vector<std::string>& rows) {
  double total = 0;
  for (const std::string& row : rows) {
    const std::string key = "\"values\":[";
    const std::size_t at = row.find(key);
    if (at == std::string::npos) throw std::runtime_error("row without values");
    const std::size_t from = at + key.size();
    std::istringstream in(row.substr(from, row.find(']', from) - from));
    std::string item;
    while (std::getline(in, item, ',')) total += std::stod(item);
  }
  return static_cast<std::uint64_t>(total);
}

/// Runs `pass` until the next one would overrun `seconds` (at least once).
template <typename Fn>
void repeat_until(double seconds, Fn&& pass) {
  const auto start = Clock::now();
  double last = 0;
  do {
    const auto t = Clock::now();
    pass();
    last = seconds_since(t);
  } while (seconds_since(start) + last <= seconds);
}

// --- result accounting ---------------------------------------------------

class Report {
 public:
  Report(std::map<std::string, std::string> pins, bool smoke)
      : pins_(std::move(pins)), prefix_(smoke ? "smoke-" : "") {}

  /// One output check; a failing one is printed to stderr once.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_checks_;
      if (printed_.insert(what).second) {
        std::cerr << "CHECK FAILED: " << what << "\n";
      }
    }
    return ok;
  }

  /// Compares an output of input set `set` against its pin.
  bool pin(int set, const std::string& key, const std::string& value) {
    const std::string id =
        prefix_ + (set == kHeldout ? "heldout " : "default ") + key;
    const auto it = pins_.find(id);
    return check(it != pins_.end() && it->second == value,
                 id + " = " + value + ", pinned " +
                     (it == pins_.end() ? "nothing" : it->second));
  }

  /// Accounts `count` operations whose output checks passed or not.
  void ops(std::uint64_t count, bool ok) {
    attempted_ += count;
    if (!ok) failed_ += count;
  }

  void metric(const std::string& name, const std::string& unit,
              double value) {
    metrics_.push_back({name, unit, value});
  }

  bool correct() const { return failed_checks_ == 0 && failed_ == 0; }

  void print(std::ostream& os) const {
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      os << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    }
    os << "}}\n";
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };

  std::map<std::string, std::string> pins_;  ///< "<set> <key>" -> value
  std::string prefix_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failed_checks_ = 0;
  std::vector<Metric> metrics_;
  std::set<std::string> printed_;
};

/// One measured pass in the common end-to-end terms.
struct Pass {
  double wall_s = 0;
  double setup_s = 0;  ///< the part of the set-up visible in the pass
  double cpu_s = 0;
  std::uint64_t trials = 0;
  std::uint64_t rounds = 0;

  Pass& operator+=(const Pass& o) {
    wall_s += o.wall_s;
    setup_s += o.setup_s;
    cpu_s += o.cpu_s;
    trials += o.trials;
    rounds += o.rounds;
    return *this;
  }
};

void report_end_to_end(Report& report, const std::vector<Pass>& rounds,
                       const std::vector<double>& setups) {
  std::vector<double> wall, cpu, tps;
  for (const Pass& p : rounds) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    tps.push_back(static_cast<double>(p.trials) / p.wall_s);
  }
  report.metric("wall_s", "s", median(wall));
  report.metric("setup_s", "s", median(setups));
  report.metric("cpu_s", "s", median(cpu));
  report.metric("peak_rss_mb", "MB", peak_rss_mb());
  report.metric("trials_per_s", "1/s", median(tps));
}

/// Per-layer quantities of one pass. Zero where a workload does not
/// exercise the layer or the quantity is not observable from outside.
struct Layers {
  double graph_build_s = 0, graph_heap_mb = 0;
  std::uint64_t edges_g = 0, edges_gp_only = 0;
  double prepare_s = 0, assemble_s = 0, busy_s = 0, idle_s = 0;
  double trial_p50_ms = 0, trial_p99_ms = 0;
  LayerCounters engine;
  double exec_ctor_s = 0, step_s = 0;
  /// Rounds per DeliveryResolver::Path taken, indexed by the enum.
  std::uint64_t resolver[4] = {0, 0, 0, 0};
  FsCounters fs;
  std::uint64_t cache_hit_fs_writes = 0;
  double cache_hit_ms = 0;
  double rounds_per_s = 0;
  double trace_overhead_s = 0, layer_gap_s = 0;
};

void report_layers(Report& r, const Layers& l, double traced_wall_s) {
  const LayerCounters& e = l.engine;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  r.metric("graph.build_s", "s", l.graph_build_s);
  r.metric("graph.edges_g", "count", count(l.edges_g));
  r.metric("graph.edges_gp_only", "count", count(l.edges_gp_only));
  r.metric("graph.heap_mb", "MB", l.graph_heap_mb);
  r.metric("scenario.prepare_s", "s", l.prepare_s);
  r.metric("scenario.assemble_s", "s", l.assemble_s);
  r.metric("scenario.worker_busy_s", "s", l.busy_s);
  r.metric("scenario.worker_idle_s", "s", l.idle_s);
  r.metric("scenario.trial_p50_ms", "ms", l.trial_p50_ms);
  r.metric("scenario.trial_p99_ms", "ms", l.trial_p99_ms);
  r.metric("adversary.start_s", "s", e.adversary_start_s);
  r.metric("adversary.choose_s", "s", e.adversary_choose_s);
  r.metric("adversary.activated_edges", "count", count(e.activated_edges));
  r.metric("core.init_s", "s", e.core_init_s);
  r.metric("core.on_round_batch_s", "s", e.core_round_batch_s);
  r.metric("core.on_feedback_batch_s", "s", e.core_feedback_batch_s);
  r.metric("core.transmitters", "count", count(e.transmitters));
  r.metric("core.deliveries", "count", count(e.deliveries));
  r.metric("core.deliveries_per_tx", "ratio",
           ratio(e.deliveries, e.transmitters));
  const double in_step = e.core_round_batch_s + e.core_feedback_batch_s +
                         e.adversary_choose_s + e.problem_observe_s +
                         e.problem_solved_s;
  r.metric("sim.exec_ctor_s", "s", l.exec_ctor_s);
  r.metric("sim.step_s", "s", l.step_s);
  r.metric("sim.engine_residual_s", "s", l.step_s - in_step);
  r.metric("sim.rounds", "count", count(e.rounds));
  r.metric("sim.rounds_per_s", "1/s", l.rounds_per_s);
  using Path = DeliveryResolver::Path;
  const auto path = [&](Path p) {
    return count(l.resolver[static_cast<int>(p)]);
  };
  r.metric("sim.resolver_rounds.sweep", "count", path(Path::sweep));
  r.metric("sim.resolver_rounds.bitmap", "count", path(Path::bitmap));
  r.metric("sim.resolver_rounds.structured", "count", path(Path::structured));
  r.metric("sim.problem_observe_s", "s", e.problem_observe_s);
  r.metric("sim.problem_solved_s", "s", e.problem_solved_s);
  r.metric("sim.has_message_per_round", "count",
           ratio(e.has_message, e.rounds));
  r.metric("service.fs_ops", "count", count(l.fs.ops));
  r.metric("service.fsyncs", "count", count(l.fs.fsyncs));
  r.metric("service.fsync_s", "s", l.fs.fsync_s);
  r.metric("service.fs_busy_s", "s", l.fs.busy_s);
  r.metric("service.bytes_written", "bytes", count(l.fs.bytes_written));
  r.metric("service.fs_errors", "count", count(l.fs.errors));
  r.metric("service.cache_hit_fs_writes", "count",
           count(l.cache_hit_fs_writes));
  r.metric("service.cache_hit_ms", "ms", l.cache_hit_ms);
  r.metric("bench.trace_overhead_s", "s", l.trace_overhead_s);
  r.metric("bench.layer_gap_s", "s", l.layer_gap_s);
  r.metric("bench.layer_gap_frac", "ratio", l.layer_gap_s / traced_wall_s);
}

// --- the harness -----------------------------------------------------------

/// What one pass of a workload over one input set produced.
struct Outcome {
  Pass pass;
  bool ok = true;      ///< every output check of the pass held
  std::string output;  ///< what a traced and an untraced pass must share
  Layers layers;
  double setup_sample = 0;  ///< a whole set-up, when the pass times one
};

struct Workload {
  std::function<Outcome(int set, bool traced)> pass;
  /// Set-up alone (no rounds), for set-up samples.
  std::function<double(int set)> setup_only;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string pins;
  std::string workdir;
};

void measure(Report& report, const Args& args, const Workload& w) {
  const int first = static_cast<int>(args.seed % 2);
  if (!args.trace) {
    const auto start = Clock::now();
    // Set-up samples first, timed alone with the input sets alternating so
    // that both weigh equally in the median: costly set-ups 4 times, cheap
    // ones 16 times. They also warm the process up before the rounds.
    std::vector<double> setups;
    while (setups.size() < 4 || setups.size() % 2 != 0 ||
           (setups.size() < 16 && median(setups) < 0.05)) {
      setups.push_back(
          w.setup_only((first + static_cast<int>(setups.size())) % 2));
    }
    std::vector<Pass> rounds;
    repeat_until(args.seconds - seconds_since(start), [&] {
      Pass round;
      for (int i = 0; i < 2; ++i) {
        const Outcome o = w.pass((first + i) % 2, false);
        report.ops(o.pass.trials, o.ok);
        round += o.pass;
        if (o.setup_sample > 0) setups.push_back(o.setup_sample);
      }
      rounds.push_back(round);
    });
    report_end_to_end(report, rounds, setups);
    return;
  }
  const Outcome plain = w.pass(first, false);
  Outcome traced = w.pass(first, true);
  report.ops(plain.pass.trials, plain.ok);
  report.ops(traced.pass.trials,
             report.check(traced.output == plain.output,
                          "traced output " + traced.output +
                              " != untraced " + plain.output) &&
                 traced.ok);
  Layers& l = traced.layers;
  l.trace_overhead_s = traced.pass.wall_s - plain.pass.wall_s;
  l.rounds_per_s = static_cast<double>(plain.pass.rounds) /
                   (plain.pass.wall_s - plain.pass.setup_s);
  // Quantities the untraced pass measures too are taken from it.
  if (plain.layers.trial_p50_ms > 0) {
    l.trial_p50_ms = plain.layers.trial_p50_ms;
    l.trial_p99_ms = plain.layers.trial_p99_ms;
  }
  if (plain.layers.cache_hit_ms > 0) l.cache_hit_ms = plain.layers.cache_hit_ms;
  report_layers(report, l, traced.pass.wall_s);
}

// --- fig1, in process ------------------------------------------------------

/// The fig1/ tier for each input set. Held-out variants are added to the
/// catalog so the service, which resolves job scenarios by name, runs
/// exactly the specs the in-process pass does.
std::vector<std::vector<const ScenarioSpec*>> fig1_selections() {
  // Copy first: adding to the catalog invalidates its spec pointers.
  std::vector<ScenarioSpec> shifted;
  for (const ScenarioSpec* spec : scenario::scenarios().match("fig1/")) {
    shifted.push_back(*spec);
  }
  std::vector<const ScenarioSpec*> heldout;
  for (ScenarioSpec& spec : shifted) {
    spec.name = "heldout/" + spec.name;
    spec.base_seed += kHeldoutShift;
    spec.topology_seed += kHeldoutShift;
    scenario::scenarios().add(spec);
  }
  for (const ScenarioSpec& spec : shifted) {
    heldout.push_back(&scenario::scenarios().get(spec.name));
  }
  return {scenario::scenarios().match("fig1/"), heldout};
}

std::vector<scenario::ScenarioPlan> prepare_plans(
    const std::vector<const ScenarioSpec*>& selection,
    const scenario::RunOptions& options) {
  std::vector<scenario::ScenarioPlan> plans(selection.size());
  for (std::size_t s = 0; s < selection.size(); ++s) {
    scenario::prepare_plan(
        plans[s], scenario::apply_options(*selection[s], options), options);
  }
  return plans;
}

double time_prepare(const std::vector<const ScenarioSpec*>& selection,
                    const scenario::RunOptions& options) {
  const auto start = Clock::now();
  prepare_plans(selection, options);
  return seconds_since(start);
}

struct Fig1Run {
  Pass pass;
  std::vector<std::string> rows;
  Layers layers;
};

/// The program's own path: run_scenarios over the selection with the
/// scenario-level scheduler on kThreads workers. Its set-up happens out of
/// sight, so pass.setup_s stays 0.
Fig1Run run_fig1(const std::vector<const ScenarioSpec*>& selection,
                 const scenario::RunOptions& options) {
  Fig1Run out;
  scenario::RunOptions pooled = options;
  pooled.sweep_threads = kThreads;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::vector<scenario::ScenarioResult> results =
      scenario::run_scenarios(selection, pooled);
  for (const auto& result : results) {
    scenario::append_json_rows(result, out.rows);
  }
  out.pass.wall_s = seconds_since(t0);
  out.pass.cpu_s = cpu_seconds() - cpu0;
  for (const auto& result : results) {
    for (const auto& point : result.points) {
      for (const auto& cell : point.cells) {
        out.pass.trials += static_cast<std::uint64_t>(cell.trials);
      }
    }
  }
  out.pass.rounds = rounds_in_rows(out.rows);
  return out;
}

/// run_scenarios' schedule driven by hand, so that it can be timed from
/// outside: prepare every plan, drain one flat task queue over the
/// selection on kThreads workers, assemble. `decorate` wraps every cell's
/// factories after prepare_plan.
Fig1Run trace_fig1(const std::vector<const ScenarioSpec*>& selection,
                   const scenario::RunOptions& options, bool decorate) {
  Fig1Run out;
  Layers& l = out.layers;
  const auto t0 = Clock::now();

  std::vector<scenario::ScenarioPlan> plans = prepare_plans(selection, options);
  std::vector<int> offset(plans.size() + 1, 0);
  for (std::size_t s = 0; s < plans.size(); ++s) {
    offset[s + 1] = offset[s] + plans[s].tasks();
  }
  l.prepare_s = seconds_since(t0);
  if (decorate) {
    for (auto& plan : plans) {
      for (auto& point : plan.points) {
        for (auto& cell : point.cells) trace_cell(cell);
      }
    }
  }

  const int total = offset.back();
  std::atomic<int> next{0};
  std::vector<std::vector<double>> trial_ms(kThreads);
  std::vector<Clock::time_point> worker_start(kThreads);
  std::mutex counters_mutex;
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        worker_start[static_cast<std::size_t>(w)] = Clock::now();
        LayerCounters& mine = thread_counters();
        for (int task; (task = next.fetch_add(1)) < total;) {
          std::size_t s = 0;
          while (task >= offset[s + 1]) ++s;
          mine.trial_start = Clock::now();
          scenario::run_plan_task(plans[s], task - offset[s], options);
          trial_ms[static_cast<std::size_t>(w)].push_back(
              seconds_since(mine.trial_start) * 1e3);
        }
        if (decorate) drain_thread_counters(l.engine, counters_mutex);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const auto phase_end = Clock::now();

  for (auto& plan : plans) {
    scenario::append_json_rows(scenario::assemble_plan(plan), out.rows);
  }
  l.assemble_s = seconds_since(phase_end);
  out.pass.wall_s = seconds_since(t0);
  out.pass.trials = static_cast<std::uint64_t>(total);
  out.pass.rounds = rounds_in_rows(out.rows);

  std::vector<double> all_ms;
  for (const auto& per : trial_ms) {
    all_ms.insert(all_ms.end(), per.begin(), per.end());
  }
  for (double ms : all_ms) l.busy_s += ms * 1e-3;
  l.trial_p50_ms = quantile(all_ms, 0.5);
  l.trial_p99_ms = quantile(all_ms, 0.99);
  // Idle: the part of each worker's span, from its own start (read on the
  // worker) to the end of the phase, spent outside trials: queue,
  // bookkeeping, waiting for the last trial.
  for (const Clock::time_point start : worker_start) {
    l.idle_s += std::chrono::duration<double>(phase_end - start).count();
  }
  l.idle_s -= l.busy_s;
  l.exec_ctor_s = l.engine.trial_setup_s - l.engine.core_init_s -
                  l.engine.adversary_start_s;
  l.step_s = l.busy_s - l.engine.trial_setup_s;
  // The sum check: the wall not covered by preparation, the workers'
  // trials and idle time (per worker) and assembly — the decorating and
  // the workers' start-up. Within a trial the split holds by construction,
  // because sim.engine_residual_s is what the decorated calls leave of it.
  l.layer_gap_s = out.pass.wall_s -
                  (l.prepare_s + (l.busy_s + l.idle_s) / kThreads +
                   l.assemble_s);

  // Graph layer: rebuild each point's topology once more, timed alone.
  if (decorate) {
    for (const auto& plan : plans) {
      for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const auto start = Clock::now();
        const scenario::Topology topo = scenario::topologies().build(
            plan.points[i].topo.spec,
            plan.spec.topology_seed + static_cast<std::uint64_t>(i));
        l.graph_build_s += seconds_since(start);
        const DualGraph& net = topo.net();
        l.edges_g += static_cast<std::uint64_t>(net.g_layer().edge_count());
        l.edges_gp_only +=
            static_cast<std::uint64_t>(net.gp_only_edge_count());
        l.graph_heap_mb +=
            static_cast<double>(net.approx_heap_bytes()) / (1 << 20);
      }
    }
  }
  return out;
}

bool check_fig1_rows(Report& report, int set,
                     const std::vector<std::string>& rows,
                     std::uint64_t trials) {
  bool ok = report.pin(set, "fig1.rows", rows_digest(rows));
  ok = report.pin(set, "fig1.row_count", std::to_string(rows.size())) && ok;
  return report.pin(set, "fig1.trials", std::to_string(trials)) && ok;
}

/// Untraced passes run the program's run_scenarios. The traced pass runs
/// the hand-driven schedule twice: undecorated for the trial percentiles,
/// then decorated for the layers.
Workload fig1_inproc(Report& report, const scenario::RunOptions& options) {
  const auto selections = fig1_selections();
  return {[&report, options, selections](int set, bool traced) {
            if (!traced) {
              Fig1Run run = run_fig1(selections[set], options);
              Outcome o{run.pass, true, rows_digest(run.rows), run.layers};
              o.ok = check_fig1_rows(report, set, run.rows, run.pass.trials);
              return o;
            }
            const Fig1Run timed = trace_fig1(selections[set], options, false);
            Fig1Run run = trace_fig1(selections[set], options, true);
            Outcome o{run.pass, true, rows_digest(run.rows), run.layers};
            o.layers.trial_p50_ms = timed.layers.trial_p50_ms;
            o.layers.trial_p99_ms = timed.layers.trial_p99_ms;
            o.ok = check_fig1_rows(report, set, timed.rows,
                                   timed.pass.trials);
            o.ok = check_fig1_rows(report, set, run.rows, run.pass.trials) &&
                   o.ok;
            return o;
          },
          [options, selections](int set) {
            return time_prepare(selections[set], options);
          }};
}

// --- fig1, through the service ---------------------------------------------

/// The real filesystem without the durability waits: fsync_file and
/// sync_dir return at once, every other op goes through. On a shared host
/// the latency of an fsync follows the other tenants' disk traffic and
/// would bury the job store's own cost in the untraced passes; the traced
/// pass runs on the real filesystem, so service.fsyncs and service.fsync_s
/// report what durability costs.
class NoSyncFs final : public util::Fs {
 public:
  bool exists(const std::string& path) override {
    return real().exists(path);
  }
  bool read_file(const std::string& path, std::string& out) override {
    return real().read_file(path, out);
  }
  void write_file(const std::string& path, std::string_view data) override {
    real().write_file(path, data);
  }
  void append(const std::string& path, std::string_view data) override {
    real().append(path, data);
  }
  void fsync_file(const std::string&) override {}
  bool link(const std::string& existing,
            const std::string& link_path) override {
    return real().link(existing, link_path);
  }
  void rename(const std::string& from, const std::string& to) override {
    real().rename(from, to);
  }
  bool unlink(const std::string& path) override {
    return real().unlink(path);
  }
  std::vector<std::string> list(const std::string& dir) override {
    return real().list(dir);
  }
  void create_dirs(const std::string& dir) override {
    real().create_dirs(dir);
  }
  void sync_dir(const std::string&) override {}
  std::int64_t file_size(const std::string& path) override {
    return real().file_size(path);
  }
  std::int64_t free_bytes(const std::string& path) override {
    return real().free_bytes(path);
  }
  void invalidate(const std::string& path) override {
    real().invalidate(path);
  }

 private:
  static util::Fs& real() { return util::real_fs(); }
};

Outcome serve_pass(Report& report, int set,
                   const std::vector<const ScenarioSpec*>& selection,
                   const scenario::RunOptions& options,
                   const std::string& dir, bool traced) {
  namespace fsys = std::filesystem;
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  Outcome o;
  Layers& l = o.layers;
  NoSyncFs no_sync;
  std::unique_ptr<TracedFs> fs;
  if (traced) {
    l.prepare_s = time_prepare(selection, options);
    fs = std::make_unique<TracedFs>(util::real_fs());
  }
  service::ServeOptions so;
  so.job_dir = dir + "/job";
  so.cache_dir = dir + "/cache";
  so.workers = kThreads;
  so.env.fs = fs ? static_cast<util::Fs*>(fs.get()) : &no_sync;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const service::ServeSummary fresh = service::serve(selection, options, so);
  o.pass.wall_s = seconds_since(t0);
  o.pass.cpu_s = cpu_seconds() - cpu0;
  o.pass.trials = fresh.trials_run;
  o.pass.rounds = rounds_in_rows(fresh.rows);
  o.output = rows_digest(fresh.rows);
  if (fs) l.fs = fs->snapshot();

  // The identical request again, which the cache answers in full. Its time
  // is service.cache_hit_ms alone: no end-to-end metric covers it.
  so.job_dir = dir + "/job-again";
  const auto t1 = Clock::now();
  const service::ServeSummary hit = service::serve(selection, options, so);
  l.cache_hit_ms = seconds_since(t1) * 1e3;
  if (fs) l.cache_hit_fs_writes = fs->snapshot().writes - l.fs.writes;
  fsys::remove_all(dir);

  const int n = static_cast<int>(selection.size());
  o.ok = check_fig1_rows(report, set, fresh.rows, fresh.trials_run);
  o.ok = report.check(fresh.computed == n && fresh.from_cache == 0,
                      "fresh serve did not compute every scenario") &&
         o.ok;
  o.ok = report.check(hit.from_cache == n && hit.trials_run == 0,
                      "repeat serve not answered by the cache in full") &&
         o.ok;
  o.ok = report.check(hit.rows == fresh.rows,
                      "cache-hit rows differ from fresh rows") &&
         o.ok;
  if (traced) {
    // The same request in process: serve's wall minus that engine wall,
    // minus the fs time on its critical path, is left to the job store.
    const Fig1Run inproc = run_fig1(selection, options);
    o.ok = report.check(inproc.rows == fresh.rows,
                        "in-process rows differ from served rows") &&
           o.ok;
    l.layer_gap_s = o.pass.wall_s -
                    (inproc.pass.wall_s + l.fs.main_busy_s +
                     (l.fs.busy_s - l.fs.main_busy_s) / kThreads);
  }
  return o;
}

/// Set-up samples are the plan preparation every serve repeats before its
/// first trial, timed alone by setup_only.
Workload fig1_serve(Report& report, const scenario::RunOptions& options,
                    const std::string& workdir) {
  const auto selections = fig1_selections();
  const std::string dir = workdir + "/serve";
  return {[&report, options, selections, dir](int set, bool traced) {
            return serve_pass(report, set, selections[set], options, dir,
                              traced);
          },
          [options, selections](int set) {
            return time_prepare(selections[set], options);
          }};
}

// --- solve workloads -------------------------------------------------------

/// One trial of sweep point `point` of a catalog scenario (column 0, trial
/// 0), with that point's x replaced by `x`.
struct SolveWorkload {
  std::string scenario;
  std::string pin_prefix;
  std::size_t point = 0;
  double x = 0;
};

struct SolveRun {
  Pass pass;
  double rounds = -1;  ///< the trial's measured value, < 0 when censored
  Layers layers;
  double setup_s = 0;  ///< plan + construction (construction timed apart)
};

void graph_layer(Layers& l, const DualGraph& net) {
  l.edges_g = static_cast<std::uint64_t>(net.g_layer().edge_count());
  l.edges_gp_only = static_cast<std::uint64_t>(net.gp_only_edge_count());
  l.graph_heap_mb = static_cast<double>(net.approx_heap_bytes()) / (1 << 20);
}

/// The execution measure_point_cell constructs for column 0, trial 0 of
/// `plan` on the kernel path.
std::unique_ptr<KernelExecution> construct_trial(
    const ScenarioSpec& spec, const scenario::PointPlan& plan,
    const scenario::RunOptions& options) {
  const scenario::CellPlan& cell = plan.cells.front();
  std::shared_ptr<Problem> problem = cell.problem();
  std::unique_ptr<AlgorithmKernel> kernel =
      scenario::select_kernel(cell.kernel, *problem, cell.factory);
  return std::make_unique<KernelExecution>(
      plan.topo.net(), cell.factory, std::move(kernel), std::move(problem),
      cell.adversary(),
      ExecutionConfig{}
          .with_seed(spec.base_seed)
          .with_max_rounds(plan.max_rounds)
          .with_history_policy(options.history)
          .with_rng_mode(options.rng));
}

/// The program's own path: build_point_plan, then measure_point_cell,
/// which constructs the execution and runs it to the end.
SolveRun run_solve(const ScenarioSpec& spec, std::size_t point,
                   const scenario::RunOptions& options) {
  SolveRun out;
  const scenario::Metric metric = scenario::parse_metric(spec.metric);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const scenario::PointPlan plan =
      scenario::build_point_plan(spec, metric, point, options);
  out.pass.setup_s = seconds_since(t0);
  out.rounds = scenario::measure_point_cell(spec, metric, plan, 0, 0, options);
  out.pass.wall_s = seconds_since(t0);
  out.pass.cpu_s = cpu_seconds() - cpu0;
  out.pass.trials = 1;
  out.pass.rounds = static_cast<std::uint64_t>(std::max(out.rounds, 0.0));
  graph_layer(out.layers, plan.topo.net());
  out.layers.trial_p50_ms = out.layers.trial_p99_ms =
      (out.pass.wall_s - out.pass.setup_s) * 1e3;
  // measure_point_cell constructs the execution out of sight: construct it
  // once more, after the pass, for the set-up sample.
  const auto ctor_start = Clock::now();
  construct_trial(spec, plan, options);
  out.setup_s = out.pass.setup_s + seconds_since(ctor_start);
  return out;
}

/// The same trial driven by hand, for the traced pass: the execution is
/// stepped here so that each step and the resolver path it took can be
/// read.
SolveRun trace_solve(const ScenarioSpec& spec, std::size_t point,
                     const scenario::RunOptions& options) {
  SolveRun out;
  Layers& l = out.layers;
  const scenario::Metric metric = scenario::parse_metric(spec.metric);
  const auto t0 = Clock::now();
  scenario::PointPlan plan =
      scenario::build_point_plan(spec, metric, point, options);
  l.prepare_s = seconds_since(t0);
  trace_cell(plan.cells.front());

  LayerCounters& counters = thread_counters();
  counters = LayerCounters{};
  counters.trial_start = Clock::now();
  const std::unique_ptr<KernelExecution> trial =
      construct_trial(spec, plan, options);
  KernelExecution& exec = *trial;
  const double ctor_s = seconds_since(counters.trial_start);
  out.pass.setup_s = seconds_since(t0);
  while (!exec.done()) {
    const auto start = Clock::now();
    exec.step();
    l.step_s += seconds_since(start);
    ++l.resolver[static_cast<int>(exec.resolver().last_path())];
  }
  out.pass.wall_s = seconds_since(t0);
  out.pass.trials = 1;
  out.pass.rounds = static_cast<std::uint64_t>(exec.round());
  out.rounds = exec.solved() ? exec.round() : -1;

  l.engine = counters;
  counters = LayerCounters{};
  l.exec_ctor_s = ctor_s - l.engine.core_init_s - l.engine.adversary_start_s;
  l.busy_s = out.pass.wall_s - out.pass.setup_s;
  l.layer_gap_s = out.pass.wall_s - (l.prepare_s + ctor_s + l.step_s);
  graph_layer(l, plan.topo.net());

  // Graph layer: the point's topology built once more, timed alone (it is
  // part of scenario.prepare_s above).
  const auto start = Clock::now();
  scenario::topologies().build(
      scenario::substitute_x(spec.topology, spec.sweep[point]),
      spec.topology_seed + static_cast<std::uint64_t>(point));
  l.graph_build_s = seconds_since(start);
  return out;
}

Workload solve(Report& report, const SolveWorkload& w) {
  ScenarioSpec base = scenario::scenarios().get(w.scenario);
  base.sweep.at(w.point) = w.x;
  const auto spec_for = [base](int set) {
    ScenarioSpec spec = base;
    if (set == kHeldout) {
      spec.base_seed += kHeldoutShift;
      spec.topology_seed += kHeldoutShift;
    }
    return spec;
  };
  return {[&report, w, spec_for](int set, bool traced) {
            const ScenarioSpec spec = spec_for(set);
            const SolveRun run = traced ? trace_solve(spec, w.point, {})
                                        : run_solve(spec, w.point, {});
            const auto rounds = static_cast<std::int64_t>(run.rounds);
            Outcome o{run.pass, true, std::to_string(rounds), run.layers,
                      run.setup_s};
            const std::string& p = w.pin_prefix;
            o.ok = report.check(run.rounds >= 0, p + " did not solve");
            o.ok = report.pin(set, p + ".solve_round", o.output) && o.ok;
            o.ok = report.pin(set, p + ".edges_g",
                              std::to_string(run.layers.edges_g)) &&
                   o.ok;
            o.ok = report.pin(set, p + ".edges_gp_only",
                              std::to_string(run.layers.edges_gp_only)) &&
                   o.ok;
            return o;
          },
          [w, spec_for](int set) {
            const ScenarioSpec spec = spec_for(set);
            const auto start = Clock::now();
            const scenario::PointPlan plan = scenario::build_point_plan(
                spec, scenario::parse_metric(spec.metric), w.point, {});
            construct_trial(spec, plan, {});
            return seconds_since(start);
          }};
}

// --- entry -----------------------------------------------------------------

/// Pins file lines: "<input set> <key> <value>"; '#' starts a comment.
std::map<std::string, std::string> load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string set, key, value;
    if (!(fields >> set) || set[0] == '#') continue;
    if (!(fields >> key >> value)) {
      throw std::runtime_error("malformed pins line: " + line);
    }
    pins[set + " " + key] = value;
  }
  return pins;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (++i >= argc) throw std::runtime_error(arg + " requires a value");
      return argv[i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = value() == "1";
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--pins") {
      args.pins = value();
    } else if (arg == "--workdir") {
      args.workdir = value();
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (args.pins.empty() || args.workdir.empty()) {
    throw std::runtime_error("--pins and --workdir are required");
  }
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report(load_pins(args.pins), args.smoke);
  scenario::RunOptions options;
  options.smoke = args.smoke;
  Workload workload;
  if (args.workload == "fig1-inproc") {
    workload = fig1_inproc(report, options);
  } else if (args.workload == "fig1-serve") {
    workload = fig1_serve(report, options, args.workdir);
  } else if (args.workload == "collider-4k") {
    workload = solve(report, {"scale/dual-clique-collider", "collider-4k", 0,
                              args.smoke ? 256.0 : 4096.0});
  } else {
    throw std::runtime_error("unknown workload \"" + args.workload + "\"");
  }
  measure(report, args, workload);
  report.print(std::cout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 2;
  }
}
