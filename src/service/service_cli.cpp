#include "service/service_cli.hpp"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/soak.hpp"
#include "util/clock.hpp"
#include "util/fs_sim.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

using scenario::ScenarioError;

// Shared default so `serve` runs and later `merge` invocations populate
// and hit the same cache without plumbing.
constexpr const char* kDefaultCacheDir = ".dualcast-cache";

/// Set by the SIGTERM/SIGINT handler; polled by daemon/worker loops so a
/// terminated daemon releases its leases instead of abandoning them.
std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

/// The worker/daemon test-decorator stack, outermost first:
/// DeadlineFs (per-op IO budget) → FaultyFs (injected death / targeted
/// stall) → SlowFs (uniform latency) → SharedFsSim (this process as one
/// NFS client view) → the real filesystem; plus an optional skewed clock.
/// Members exist only when the corresponding flag was given; `env` points
/// at the outermost layer of whatever was built. Layer order matters:
/// FaultyFs counts ops before SlowFs slows them (schedules stay stable
/// under latency), and DeadlineFs sits outside everything so an injected
/// stall is charged against the op budget like a real hung mount.
struct EnvStack {
  struct Params {
    bool fs_sim = false;
    std::uint64_t fs_sim_seed = 1;
    int fs_sim_stale_ops = 6;
    int fault_crash_op = -1;
    int clock_skew_seconds = 0;
    int slow_fs_ms = 0;
    int stall_append = -1;  ///< stall the N-th append to a shards/ file
    int stall_ms = 0;
    std::int64_t op_deadline_seconds = 0;
  };

  std::unique_ptr<util::SharedFsSim> sim;
  std::unique_ptr<util::SlowFs> slow;
  std::unique_ptr<util::FaultyFs> faulty;
  std::unique_ptr<util::DeadlineFs> deadline;
  std::unique_ptr<util::OffsetClock> clock;
  StoreEnv env;

  void build(const Params& p) {
    util::Fs* fs = &util::real_fs();
    if (p.fs_sim) {
      util::SharedFsSimConfig config;
      config.seed = p.fs_sim_seed;
      config.attr_stale_ops = p.fs_sim_stale_ops;
      config.dir_stale_ops = p.fs_sim_stale_ops;
      sim = std::make_unique<util::SharedFsSim>(*fs, config);
      fs = sim.get();
    }
    if (p.slow_fs_ms > 0) {
      slow = std::make_unique<util::SlowFs>(*fs, p.slow_fs_ms);
      fs = slow.get();
    }
    if (p.fault_crash_op >= 0 || p.stall_append >= 0) {
      faulty = std::make_unique<util::FaultyFs>(*fs);
      if (p.fault_crash_op >= 0) {
        util::InjectedFault fault;
        fault.kind = util::InjectedFault::Kind::crash;
        fault.at = p.fault_crash_op;
        faulty->inject(fault);
      }
      if (p.stall_append >= 0) {
        // A shard-record append only happens while holding that shard's
        // lease, so this stall is guaranteed to be a *mid-lease* hang.
        util::InjectedFault fault;
        fault.kind = util::InjectedFault::Kind::delay;
        fault.at = p.stall_append;
        fault.op = "append";
        fault.path_substr = "shards/";
        fault.delay_ms = p.stall_ms;
        faulty->inject(fault);
      }
      fs = faulty.get();
    }
    if (p.op_deadline_seconds > 0) {
      deadline = std::make_unique<util::DeadlineFs>(*fs);
      fs = deadline.get();
    }
    if (fs != &util::real_fs()) env.fs = fs;
    if (p.clock_skew_seconds != 0) {
      clock = std::make_unique<util::OffsetClock>(util::system_clock(),
                                                  p.clock_skew_seconds);
      env.clock = clock.get();
    }
  }
};

/// --cache-dir / --no-cache / --cache-max-bytes: serve, daemon and merge.
util::FlagTable cache_flags(std::string& dir, std::uint64_t& max_bytes) {
  return {
      util::string_flag(
          "--cache-dir", "C",
          str("result cache directory (default ", kDefaultCacheDir, ")"), dir),
      util::switch_flag("--no-cache", "disable the result cache",
                        [&dir] { dir.clear(); }),
      util::int_flag("--cache-max-bytes", "B",
                     "evict least-recently-used cache entries past this "
                     "budget (0 = unbounded)",
                     max_bytes, 0),
  };
}

/// The test-hook filesystem stack of worker and daemon (see EnvStack).
util::FlagTable env_stack_flags(EnvStack::Params& p) {
  return {
      util::int_flag("--op-deadline", "S",
                     "per-logical-op IO budget in seconds: an op still "
                     "unfinished past it becomes a transient ETIMEDOUT "
                     "(0 = unbounded)",
                     p.op_deadline_seconds, 0,
                     std::numeric_limits<int>::max()),
      util::int_flag("--fault-crash-op", "N",
                     "test hook: die (uncatchable, like kill -9) at the N-th "
                     "filesystem operation this process performs",
                     p.fault_crash_op, 0),
      util::int_flag("--slow-fs-ms", "M",
                     "test hook: every filesystem op takes an extra M ms (a "
                     "uniformly slow mount)",
                     p.slow_fs_ms, 0),
      util::int_flag("--stall-append", "N",
                     "test hook: the N-th append to a shard record (i.e. "
                     "mid-lease) hangs for --stall-ms",
                     p.stall_append, 0),
      util::int_flag("--stall-ms", "M",
                     "length of the --stall-append hang in ms", p.stall_ms,
                     0),
      util::implies(
          util::int_flag("--fs-sim-seed", "S",
                         "test hook: run behind a SharedFsSim NFS-client "
                         "view (seeded staleness windows, delayed directory "
                         "entries, ESTALE on unlinked-under-handle reads)",
                         p.fs_sim_seed, 0),
          p.fs_sim),
      util::int_flag("--fs-sim-stale-ops", "N",
                     "max staleness window in view ops (default 6)",
                     p.fs_sim_stale_ops, 0),
  };
}

util::Flag placement_flag(Placement& target, std::string help) {
  return util::choice_flag("--placement", "P", std::move(help), target,
                           {{"fifo", Placement::fifo},
                            {"fair", Placement::fair},
                            {"random", Placement::random}});
}

/// A subcommand's Invocation: a fresh `Command` owns the options its
/// flags() bind to and its run() acts on. It stays behind the shared_ptr
/// and is never copied, because the flags hold its members' addresses.
template <typename Command>
Invocation invoke() {
  auto command = std::make_shared<Command>();
  return {command->flags(),
          [command](const std::vector<std::string>& names) {
            return command->run(names);
          }};
}

struct ServeCommand {
  scenario::RunOptions run_options;
  ServeOptions options;

  ServeCommand() {
    options.cache_dir = kDefaultCacheDir;
    options.out = &std::cout;
  }

  util::FlagTable flags() {
    ServeOptions& o = options;
    return util::concat(
        {scenario::run_option_flags(run_options),
         cache_flags(o.cache_dir, o.cache_max_bytes),
         {util::int_flag("--workers", "N",
                         "in-process worker threads (default 1); 0 = submit "
                         "the job and exit (then run `worker` processes + "
                         "`merge`)",
                         o.workers, 0),
          util::string_flag("--job-dir", "D",
                            "job directory (default .dualcast-jobs/<job-key>)",
                            o.job_dir),
          util::switch_flag("--verify-cache",
                            "recompute cached scenarios and fail on any row "
                            "mismatch",
                            o.verify_cache),
          util::int_flag("--shard-tasks", "K",
                         "flat tasks per shard (default 16)", o.shard_tasks,
                         1),
          // 0 is meaningful: a dead worker's lease is instantly stealable —
          // what crash-drill jobs want, since resume never waits out a TTL.
          util::int_flag("--lease-ttl", "S",
                         "lease lifetime in seconds (default 60; 0 = a dead "
                         "worker is instantly stealable)",
                         o.lease_ttl_seconds, 0),
          util::string_flag("--json", "FILE",
                            "write merged result rows to FILE", o.json_path)}});
  }

  int run(const std::vector<std::string>& names) {
    if (names.empty()) {
      throw ScenarioError("serve: name at least one scenario (or a prefix)");
    }
    serve(scenario::resolve_selection(names), run_options, options);
    return 0;
  }
};

struct WorkerCommand {
  std::string job_dir;
  EnvStack::Params stack_params;
  WorkerOptions options;

  WorkerCommand() { options.log = &std::cout; }

  util::FlagTable flags() {
    return util::concat(
        {{util::string_flag("--job-dir", "D", "the job to work (required)",
                            job_dir),
          util::string_flag("--owner", "TOKEN",
                            "lease owner token (default pid<pid>)",
                            options.owner),
          util::int_flag("--max-shards", "N",
                         "stop after completing N shards (default: until "
                         "none is claimable)",
                         options.max_shards, 1)},
         env_stack_flags(stack_params)});
  }

  int run(const std::vector<std::string>&) {
    if (job_dir.empty()) throw ScenarioError("worker: --job-dir is required");
    // Test decorators: --fault-crash-op wraps this process's filesystem in
    // a FaultyFs so the injected death is indistinguishable (to the job
    // directory) from a kill at that syscall; --stall-append/--stall-ms arm
    // a mid-lease hang instead; --slow-fs-ms taxes every op; --op-deadline
    // bounds each logical op; --fs-sim-seed additionally puts the process
    // behind its own simulated NFS-client view — the CI fault matrix and
    // shared-fs/fail-slow smokes drive these flags.
    EnvStack stack;
    stack.build(stack_params);
    options.op_deadline_seconds = stack_params.op_deadline_seconds;
    options.deadline_fs = stack.deadline.get();
    const StoreEnv& env = stack.env;
    JobStore store = JobStore::open(job_dir, env);
    const JobRuntime runtime(store);
    std::signal(SIGTERM, request_stop);
    std::signal(SIGINT, request_stop);
    options.stop = &g_stop;
    const WorkerReport report = run_worker(store, runtime, options);
    std::cout << "worker done: " << report.shards_completed
              << " shard(s) completed, " << report.tasks_executed
              << " task(s) measured, " << report.tasks_skipped
              << " already recorded";
    if (report.shards_quarantined > 0) {
      std::cout << ", " << report.shards_quarantined
                << " corrupt shard(s) quarantined";
    }
    if (report.stopped) std::cout << " [stopped by signal]";
    std::cout << "\n";
    return 0;
  }
};

struct DaemonCommand {
  DaemonOptions options;
  EnvStack::Params stack_params;

  DaemonCommand() {
    options.cache_dir = kDefaultCacheDir;
    options.log = &std::cout;
  }

  util::FlagTable flags() {
    DaemonOptions& o = options;
    return util::concat(
        {{util::string_flag("--jobs-dir", "D",
                            "directory to watch for job directories "
                            "(required)",
                            o.jobs_dir)},
         cache_flags(o.cache_dir, o.cache_max_bytes),
         {util::string_flag("--owner", "TOKEN",
                            "lease owner token == fleet member id (default "
                            "pid<pid>.d)",
                            o.owner),
          util::int_flag("--poll-ms", "M", "idle backoff start (default 100)",
                         o.poll_initial_ms, 1),
          util::int_flag("--max-poll-ms", "M",
                         "idle backoff cap (default 2000)", o.poll_max_ms, 1),
          util::int_flag("--max-cycles", "N",
                         "exit after N poll cycles (default: run until "
                         "signalled)",
                         o.max_cycles, 0),
          placement_flag(o.placement,
                         "fifo | fair | random (default fifo): how shard "
                         "claims spread across jobs; fair interleaves one "
                         "shard at a time with aging + a per-job in-flight "
                         "cap"),
          util::int_flag("--inflight-cap", "N",
                         "under fair: prefer jobs holding fewer than N "
                         "unexpired leases fleet-wide (default 2; soft — "
                         "never starves)",
                         o.inflight_cap, 1),
          util::int_flag("--member-ttl", "S",
                         "membership heartbeat TTL (default 15)",
                         o.member_ttl_seconds, 1),
          util::int_flag("--seed", "S",
                         "placement jitter seed (default: derived from the "
                         "owner token)",
                         o.seed, 0),
          util::int_flag("--cores", "N",
                         "advertise N cores in the member record (default: "
                         "probe the machine); feeds the fair-placement claim "
                         "budget",
                         o.resources.cores, 1),
          util::int_flag("--load100", "L",
                         "advertise load average x100 (default: probe, "
                         "re-sampled at each heartbeat)",
                         o.resources.load100, 0),
          util::int_flag("--min-free-bytes", "B",
                         "disk-pressure ladder watermark: as free space on "
                         "the jobs-dir filesystem shrinks below 4x/2x/1x B "
                         "the daemon sheds its cache, stops claiming, then "
                         "parks; freed space walks it back up (0 = off)",
                         o.min_free_bytes, 0),
          util::string_flag("--free-bytes-file", "F",
                            "test hook: probe free bytes from file F instead "
                            "of statvfs",
                            o.free_bytes_file),
          // Signed: a box whose clock runs behind the fleet is exactly the
          // interesting case.
          util::int_flag("--clock-skew", "S",
                         "test hook: offset this daemon's wall clock by S "
                         "seconds (negative allowed)",
                         stack_params.clock_skew_seconds,
                         std::numeric_limits<int>::min())},
         env_stack_flags(stack_params)});
  }

  int run(const std::vector<std::string>&) {
    if (options.jobs_dir.empty()) {
      throw ScenarioError("daemon: --jobs-dir is required");
    }
    // Unbuffered progress: a SIGKILLed daemon (the soak harness's whole
    // point) must not take its logged steal/claim evidence down with it.
    std::cout << std::unitbuf;
    // Test decorators, mirroring the worker's: FaultyFs so the injected
    // death (or mid-lease stall) is indistinguishable from a kill or hung
    // mount at that syscall, SlowFs for uniform latency, DeadlineFs for
    // per-op budgets, SharedFsSim so this daemon runs behind one simulated
    // NFS-client view of the jobs directory, and OffsetClock so its wall
    // clock disagrees with the fleet's by a fixed skew.
    EnvStack stack;
    stack.build(stack_params);
    options.op_deadline_seconds = stack_params.op_deadline_seconds;
    options.deadline_fs = stack.deadline.get();
    const StoreEnv& env = stack.env;
    std::signal(SIGTERM, request_stop);
    std::signal(SIGINT, request_stop);
    options.stop = &g_stop;
    const DaemonReport report = run_daemon(options, env);
    std::cout << "daemon exit: " << report.cycles << " cycle(s), "
              << report.jobs_seen << " job(s) seen, " << report.jobs_completed
              << " completed, " << report.tasks_executed
              << " task(s) measured";
    if (report.shards_quarantined > 0) {
      std::cout << ", " << report.shards_quarantined
                << " corrupt shard(s) quarantined";
    }
    if (report.leases_stolen > 0) {
      std::cout << ", " << report.leases_stolen << " lease(s) stolen";
    }
    if (report.shards_fenced > 0) {
      std::cout << ", " << report.shards_fenced << " shard(s) fenced";
    }
    if (report.heartbeats_skipped > 0) {
      std::cout << ", " << report.heartbeats_skipped
                << " heartbeat(s) withheld";
    }
    if (report.pressure_transitions > 0) {
      std::cout << ", " << report.pressure_transitions
                << " pressure transition(s) (final " << report.pressure << ")";
    }
    if (report.members_reaped > 0 || report.leases_reclaimed > 0 ||
        report.quarantines_removed > 0) {
      std::cout << ", gc " << report.members_reaped << "/"
                << report.leases_reclaimed << "/"
                << report.quarantines_removed
                << " member(s)/lease(s)/quarantine(s)";
    }
    if (report.stopped) std::cout << " [stopped by signal]";
    std::cout << "\n";
    return 0;
  }
};

struct MergeCommand {
  std::string job_dir;
  std::string json_path;
  std::string cache_dir = kDefaultCacheDir;
  std::uint64_t cache_max_bytes = 0;

  util::FlagTable flags() {
    return util::concat(
        {{util::string_flag("--job-dir", "D", "the job to merge (required)",
                            job_dir),
          util::string_flag("--json", "FILE", "write the result rows to FILE",
                            json_path)},
         cache_flags(cache_dir, cache_max_bytes)});
  }

  int run(const std::vector<std::string>&) {
    if (job_dir.empty()) throw ScenarioError("merge: --job-dir is required");
    JobStore store = JobStore::open(job_dir);
    JobRuntime runtime(store);
    std::unique_ptr<ResultCache> cache;
    if (!cache_dir.empty()) {
      try {
        cache = std::make_unique<ResultCache>(cache_dir, cache_max_bytes);
      } catch (const util::IoError& error) {
        std::cout << "warning: cannot open result cache " << cache_dir
                  << " (" << error.what() << "); merging without caching\n";
      }
    }
    const std::vector<std::string> rows =
        merge_job(store, runtime, cache.get(), &std::cout);
    std::cout << "merged " << rows.size() << " result rows from "
              << store.shard_count() << " shards\n";
    if (!json_path.empty()) {
      if (!scenario::write_json_rows_file(json_path, rows)) {
        throw ScenarioError(str("cannot write ", json_path));
      }
      std::cout << "wrote " << rows.size() << " result rows to " << json_path
                << "\n";
    }
    return 0;
  }
};

struct StatusCommand {
  std::string job_dir;
  std::string jobs_dir;
  std::string json_path;

  util::FlagTable flags() {
    return {
        util::string_flag("--job-dir", "D",
                          "report one job's shards, leases (with age and "
                          "last-progress age — a big gap on a live lease is "
                          "a fail-slow holder; STALE when expired), "
                          "quarantines, and progress",
                          job_dir),
        util::string_flag("--jobs-dir", "D",
                          "the fleet view — every member daemon (live/STALE, "
                          "heartbeat age, host/cores/load, shards/sec, "
                          "disk-pressure state, held leases) and every job's "
                          "progress with per-lease owner/age/progress lines",
                          jobs_dir),
        util::string_flag("--json", "FILE",
                          "with --jobs-dir, also write the fleet view as "
                          "deterministic machine-readable JSON (\"-\" = "
                          "stdout)",
                          json_path)};
  }

  int run(const std::vector<std::string>&) {
    if (!jobs_dir.empty()) {
      if (!json_path.empty()) {
        const std::string json = fleet_status_json(jobs_dir);
        if (json_path == "-") {
          std::cout << json;
        } else {
          util::real_fs().write_file_atomic(json_path, json);
          std::cout << "wrote fleet status JSON to " << json_path << "\n";
        }
        return 0;
      }
      print_fleet_status(jobs_dir, {}, std::cout);
      return 0;
    }
    if (!json_path.empty()) {
      throw ScenarioError("status: --json requires --jobs-dir");
    }
    if (job_dir.empty()) {
      throw ScenarioError("status: --job-dir or --jobs-dir is required");
    }
    const JobStore store = JobStore::open(job_dir);
    print_job_status(store, std::cout);
    return 0;
  }
};

struct GcCommand {
  std::string jobs_dir;
  bool dry_run = false;

  util::FlagTable flags() {
    return {util::string_flag("--jobs-dir", "D",
                              "the jobs directory (required)", jobs_dir),
            util::switch_flag("--dry-run",
                              "print what would be reclaimed without "
                              "mutating anything",
                              dry_run)};
  }

  int run(const std::vector<std::string>&) {
    if (jobs_dir.empty()) throw ScenarioError("gc: --jobs-dir is required");
    const GcReport report = gc_sweep(jobs_dir, {}, &std::cout, dry_run);
    if (dry_run) {
      std::cout << "gc (dry run): " << report.jobs_swept
                << " job(s) swept, would reap " << report.members_reaped
                << " stale member(s), reclaim " << report.leases_reclaimed
                << " expired lease(s), remove " << report.quarantines_removed
                << " quarantine(s)\n";
    } else {
      std::cout << "gc: " << report.jobs_swept << " job(s) swept, "
                << report.members_reaped << " stale member(s) reaped, "
                << report.leases_reclaimed << " expired lease(s) reclaimed, "
                << report.quarantines_removed << " quarantine(s) removed\n";
    }
    return 0;
  }
};

struct SoakCommand {
  SoakOptions options;

  SoakCommand() { options.log = &std::cout; }

  util::FlagTable flags() {
    SoakOptions& o = options;
    return {
        util::int_flag("--daemons", "N", "daemon processes (default 4)",
                       o.daemons, 1),
        util::int_flag("--kills", "N",
                       "SIGKILLs delivered across the storm (default 6)",
                       o.kills, 0),
        util::int_flag("--kill-interval-ms", "M",
                       "time between kills (default 600)", o.kill_interval_ms,
                       1),
        util::int_flag("--kill-seed", "S",
                       "seeds the victim sequence (replayable; default 7)",
                       o.kill_seed, 0),
        placement_flag(o.placement, "fleet placement policy (default fair)"),
        util::int_flag("--small-jobs", "N",
                       "small jobs besides the big one (default 2)",
                       o.small_jobs, 0),
        util::int_flag("--big-trials", "T",
                       "trials of the big job (default 40)", o.big_trials, 1),
        util::int_flag("--small-trials", "T",
                       "trials of each small job (default 4)", o.small_trials,
                       1),
        util::int_flag("--shard-tasks", "K",
                       "flat tasks per shard (default 5)", o.shard_tasks, 1),
        util::int_flag("--lease-ttl", "S", "lease TTL in seconds (default 2)",
                       o.lease_ttl_seconds, 0),
        util::int_flag("--member-ttl", "S",
                       "membership heartbeat TTL (default 4)",
                       o.member_ttl_seconds, 1),
        util::string_flag("--dir", "D",
                          "working directory (default .dualcast-soak; wiped "
                          "at start)",
                          o.dir),
        util::int_flag("--timeout", "S", "liveness deadline (default 300)",
                       o.timeout_seconds, 1),
        util::int_flag("--fault-crash-op", "N",
                       "also arm each first-generation daemon with the "
                       "FaultyFs crash hook",
                       o.fault_crash_op, 0),
        util::switch_flag("--sim",
                          "run every daemon behind its own SharedFsSim "
                          "NFS-client view of the jobs directory (respawns "
                          "get cold caches)",
                          o.sim),
        util::implies(util::int_flag("--fs-sim-seed", "S",
                                     "view-skew base seed (implies --sim)",
                                     o.fs_sim_seed, 0),
                      o.sim),
        util::implies(util::int_flag("--fs-sim-stale-ops", "N",
                                     "max staleness window (implies --sim)",
                                     o.fs_sim_stale_ops, 0),
                      o.sim),
        util::int_flag("--clock-skew", "S",
                       "spread daemon wall clocks across [-S, +S] seconds",
                       o.clock_skew_seconds, 0),
        // The default tax; --slow-fs-ms sets the amount, in either order.
        util::switch_flag("--slow",
                          "run every daemon behind a uniformly slow mount "
                          "(2 ms per op unless --slow-fs-ms is given)",
                          [&o] {
                            if (o.slow_fs_ms == 0) o.slow_fs_ms = 2;
                          }),
        util::int_flag("--slow-fs-ms", "M", "per-op tax of the slow mount",
                       o.slow_fs_ms, 1),
        util::int_flag("--stall-seed", "S",
                       "arm one seeded mid-lease append hang per daemon "
                       "generation, long enough that the lease lapses, a "
                       "peer steals it, and the holder fences itself on "
                       "waking",
                       o.stall_seed, 0),
        util::int_flag("--stall-ms", "M",
                       "length of each hang (default lease TTL + 1s)",
                       o.stall_ms, 1),
        util::switch_flag("--disk-pressure",
                          "squeeze a shared free-bytes file to zero "
                          "mid-storm and restore it; every daemon must walk "
                          "the degradation ladder down and back up",
                          o.disk_pressure),
        util::int_flag("--min-free-bytes", "B",
                       "ladder watermark of the disk-pressure drill "
                       "(default 1 MiB)",
                       o.min_free_bytes, 0),
        util::switch_flag("--no-require-steal",
                          "don't fail when kills produced no steal",
                          [&o] { o.require_steal = false; })};
  }

  int run(const std::vector<std::string>&) {
    return run_soak(options).ok ? 0 : 1;
  }
};

const Subcommand kSubcommands[] = {
    {"serve", "<names...> [options]",
     "Cached/sharded run of a scenario selection. Scenarios whose results\n"
     "are in the cache are served without recomputation; the rest become a\n"
     "persistent job measured by worker threads and merged into rows\n"
     "byte-identical to a plain run.\n",
     true, invoke<ServeCommand>},
    {"worker", "--job-dir D [options]",
     "Lease and measure shards of an existing job until none is claimable.\n"
     "Any number of worker processes may run at once; a restarted worker\n"
     "resumes from the shard logs and quarantines corrupt ones. Leases are\n"
     "heartbeat-renewed at TTL/3; transient IO errors are retried with\n"
     "backoff.\n",
     false, invoke<WorkerCommand>},
    {"daemon", "--jobs-dir D [options]",
     "Watch D for dropped job directories, work them to completion, and\n"
     "merge results into the cache (an unwritable cache degrades to\n"
     "compute-without-cache with a warning). Polling backs off while idle.\n"
     "The daemon publishes a fleet membership file under D/fleet/\n"
     "(heartbeat at TTL/3) and runs a gc sweep at the same cadence.\n"
     "SIGTERM/SIGINT stop cleanly with all leases released and the member\n"
     "file removed.\n",
     false, invoke<DaemonCommand>},
    {"merge", "--job-dir D [options]",
     "Reassemble a complete job's shard records into result rows\n"
     "(byte-identical to a single-process run) and populate the result\n"
     "cache. Exits nonzero, naming the shard and line, if any shard log is\n"
     "corrupt or the job is incomplete.\n",
     false, invoke<MergeCommand>},
    {"status", "--job-dir D | --jobs-dir D [--json FILE]",
     "Report one job (--job-dir) or the whole fleet (--jobs-dir).\n", false,
     invoke<StatusCommand>},
    {"gc", "--jobs-dir D [--dry-run]",
     "One garbage-collection sweep: reap stale fleet members, reclaim\n"
     "expired lease debris (done shards or stale owners), delete\n"
     "quarantined shard logs whose recomputed replacement passed CRC\n"
     "verification. Daemons run this sweep automatically at heartbeat\n"
     "cadence.\n",
     false, invoke<GcCommand>},
    {"soak", "[options]",
     "Fleet kill-storm drill: drop one big + several small jobs in a fresh\n"
     "directory, spawn N real daemon processes, and SIGKILL/restart them on\n"
     "a seeded schedule while they drain. Exits nonzero unless every job\n"
     "completes, every merge is byte-identical to a single-process run, and\n"
     "(when kills happened) at least one lease steal was observed.\n",
     false, invoke<SoakCommand>},
};

}  // namespace

std::span<const Subcommand> subcommands() { return kSubcommands; }

const Subcommand* find_subcommand(std::string_view name) {
  for (const Subcommand& command : kSubcommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

int service_main(int argc, char** argv) {
  try {
    const Subcommand* command =
        argc >= 2 ? find_subcommand(argv[1]) : nullptr;
    if (command == nullptr) {
      throw ScenarioError(str("unknown service command \"",
                              argc >= 2 ? argv[1] : "", "\""));
    }
    const Invocation invocation = command->invoke();
    std::vector<std::string> names;
    if (!util::parse_flags(invocation.flags, {argv + 2, argv + argc},
                           command->takes_names ? &names : nullptr)) {
      std::cout << "usage: " << argv[0] << " " << command->name << " "
                << command->synopsis << "\n\n"
                << command->prose << "\noptions:\n";
      util::print_flags(std::cout, invocation.flags);
      return 0;
    }
    return invocation.run(names);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace dualcast::service
