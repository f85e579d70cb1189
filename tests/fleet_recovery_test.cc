// Fleet supervision under injected faults: drives the real sweep_worker and
// sweep_fleet binaries (paths baked in by CMake) through the deterministic
// fault matrix — flaky exits, crashes mid-write, corrupted documents, hangs —
// and asserts the two halves of the fleet contract:
//
//   * whenever recovery succeeds, the merged result is byte-identical to the
//     single-process SweepRunner::Run (the PR 5 shard contract survives
//     retries, timeouts, and re-partitioning);
//   * whenever retries are exhausted, the loss is *explicit*: a FleetError
//     naming the cells, or (with partial_ok) a report marking exactly the
//     exhausted cells — never a silently truncated table.
//
// Every fault is seeded: the worker's fault draw is a pure hash of
// (fail_seed, shard_index, attempt), so the seeds below pin which attempts
// fail on every platform. With prob = 0.5 the draws are:
//   seed  1: unit0 fails attempt 1;   unit1 fails attempts 1 and 2
//   seed 21: unit0 fails attempt 1;   units 1 and 2 never fail
// (tools/sweep_worker.cc DecideFault; the stats assertions below would catch
// any drift in the draw function.)

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/fleet/subprocess.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/scenario.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"

#ifndef LONGSTORE_SWEEP_WORKER
#error "CMake must define LONGSTORE_SWEEP_WORKER (path to the worker binary)"
#endif
#ifndef LONGSTORE_SWEEP_FLEET
#error "CMake must define LONGSTORE_SWEEP_FLEET (path to the fleet binary)"
#endif
#ifndef LONGSTORE_SWEEP_SERVICED
#error "CMake must define LONGSTORE_SWEEP_SERVICED (path to the daemon binary)"
#endif

namespace longstore {
namespace {

Scenario SmallScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(400.0), Duration::Hours(200.0))
                       .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(40.0))))
      .Build();
}

// The two-cell sweep every fleet run here executes; small enough that a
// worker attempt is milliseconds, so the fault matrix dominates the clock.
struct SmallSweep {
  SweepSpec spec;
  SweepOptions options;
};

SmallSweep MakeSweep() {
  SmallSweep sweep{SweepSpec(SmallScenario()), SweepOptions()};
  sweep.spec.AddAxis("mv_hours");
  for (const double hours : {400.0, 800.0}) {
    sweep.spec.AddPoint(std::to_string(static_cast<int>(hours)), hours,
                        [hours](Scenario& scenario) {
                          for (ReplicaSpec& replica : scenario.replicas) {
                            replica.mv = Duration::Hours(hours);
                          }
                        });
  }
  sweep.options.estimand = SweepOptions::Estimand::kMttdl;
  sweep.options.mc.trials = 64;
  sweep.options.mc.seed = 99;
  return sweep;
}

std::string SingleProcessJson() {
  const SmallSweep sweep = MakeSweep();
  return SweepRunner().Run(sweep.spec, sweep.options).ToJson();
}

// Scratch directory, recursively removed on destruction (the supervisor
// cleans its own files, but crashed workers leave torn .tmp files behind —
// deliberately — and the binary tests write their own captures).
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/fleet_recovery_test.XXXXXX";
    EXPECT_NE(::mkdtemp(pattern), nullptr);
    path_ = pattern;
  }
  ~TempDir() { RemoveTree(path_); }
  const std::string& path() const { return path_; }

 private:
  static void RemoveTree(const std::string& dir) {
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) return;
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = dir + "/" + name;
      struct stat info;
      if (::lstat(child.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(handle);
    ::rmdir(dir.c_str());
  }

  std::string path_;
};

FleetOptions BaseOptions(const TempDir& dir) {
  FleetOptions options;
  options.worker_path = LONGSTORE_SWEEP_WORKER;
  options.temp_dir = dir.path();
  options.shard_count = 2;
  options.max_parallel = 2;
  options.max_retries = 3;
  options.timeout_seconds = 30.0;
  options.backoff_initial_seconds = 0.02;  // fault matrix, not wall clock
  return options;
}

FleetReport RunFleet(const FleetOptions& options) {
  const SmallSweep sweep = MakeSweep();
  return FleetSupervisor(options).Run(sweep.spec, sweep.options);
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return "";
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  return text;
}

// Writes the small sweep as one shard document; returns its path.
std::string WriteWholeSweepShard(const TempDir& dir) {
  const SmallSweep sweep = MakeSweep();
  const ShardPlan plan(sweep.spec, sweep.options, 1);
  const std::string path = dir.path() + "/shard.json";
  const std::string json = plan.shards()[0].ToJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  EXPECT_NE(file, nullptr) << path;
  if (file != nullptr) {
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
  }
  return path;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Whether the kernel and any seccomp filter let a process open pidfds; without
// them Subprocess::WaitAny falls back to 2 ms polling.
bool PidfdsAvailable() {
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, ::getpid(), 0));
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

// Entries in /proc/self/fd (the listing's own descriptor included, which
// is the same on every call).
size_t OpenDescriptorCount() {
  DIR* handle = ::opendir("/proc/self/fd");
  EXPECT_NE(handle, nullptr);
  if (handle == nullptr) return 0;
  size_t count = 0;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++count;
  }
  ::closedir(handle);
  return count;
}

TEST(FleetRecoveryTest, CleanFleetRunIsByteIdenticalToSingleProcess) {
  TempDir dir;
  const FleetReport report = RunFleet(BaseOptions(dir));
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.lost.empty());
  EXPECT_EQ(report.result.ToJson(), SingleProcessJson());
  EXPECT_EQ(report.stats.spawned, 2);
  EXPECT_EQ(report.stats.succeeded, 2);
  EXPECT_EQ(report.stats.retries, 0);
  EXPECT_EQ(report.stats.crashed + report.stats.timed_out + report.stats.corrupt +
                report.stats.malformed,
            0);
}

TEST(FleetRecoveryTest, AggregatesWorkerMetricsAcrossTheFleet) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "telemetry disabled in the environment";
  }
  TempDir dir;
  const FleetReport report = RunFleet(BaseOptions(dir));
  ASSERT_TRUE(report.complete);
  // Each worker ships its sweep.* snapshot back beside the shard document;
  // the supervisor merges them, so the fleet-level view covers every cell
  // the workers actually simulated.
  ASSERT_FALSE(report.worker_metrics.empty());
  const auto cells = report.worker_metrics.counters.find("sweep.cells");
  ASSERT_NE(cells, report.worker_metrics.counters.end());
  EXPECT_EQ(cells->second, 2);
  const auto trials = report.worker_metrics.counters.find("sweep.trials");
  ASSERT_NE(trials, report.worker_metrics.counters.end());
  EXPECT_GT(trials->second, 0);
}

// Each worker times its phases (tools/sweep_worker.cc) and ships them in the
// snapshot beside its result: start-up from the supervisor's --spawn-ns
// stamp, then the shard's parse, run and emit, one sample per attempt.
// --spawn-ns is parsed as strictly as every other numeric flag.
TEST(FleetRecoveryTest, WorkersReportTheirPhaseTimesOncePerAttempt) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "telemetry disabled in the environment";
  }
  TempDir dir;
  const FleetReport report = RunFleet(BaseOptions(dir));
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(report.stats.spawned, 2);
  for (const char* name : {"worker.startup_ns", "worker.parse_ns",
                           "worker.run_ns", "worker.emit_ns"}) {
    const auto timer = report.worker_metrics.histograms.find(name);
    ASSERT_NE(timer, report.worker_metrics.histograms.end()) << name;
    EXPECT_EQ(timer->second.count, report.stats.spawned) << name;
    EXPECT_GT(timer->second.sum, 0) << name;
  }

  const std::string spec_path = WriteWholeSweepShard(dir);
  for (const char* bad : {"abc", "", "3x", "-1", "1.5", "99999999999999999999"}) {
    Subprocess refused = Subprocess::Spawn(
        {LONGSTORE_SWEEP_WORKER, "--shard=" + spec_path, "--metrics-out=-",
         std::string("--spawn-ns=") + bad},
        dir.path() + "/refused.log");
    refused.Await();
    EXPECT_EQ(refused.DescribeExit(), "exit status 1") << bad;
    EXPECT_TRUE(refused.output().empty()) << bad;
  }
  EXPECT_NE(ReadAll(dir.path() + "/refused.log").find("usage:"),
            std::string::npos);
}

// flaky / crash / corrupt all follow the same seeded failure schedule (three
// failed attempts across the two units), differ only in *how* the attempt
// fails, and must all converge to the byte-identical figure.
TEST(FleetRecoveryTest, RecoversByteIdenticallyFromFlakyCrashAndCorrupt) {
  const std::string expected = SingleProcessJson();
  struct Mode {
    const char* name;
    int FleetStats::* counter;  // which detector must have fired
  };
  const Mode modes[] = {
      {"flaky", &FleetStats::crashed},    // dirty exit status 1
      {"crash", &FleetStats::crashed},    // SIGABRT mid-write
      {"corrupt", &FleetStats::corrupt},  // envelope checksum mismatch
  };
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    TempDir dir;
    FleetOptions options = BaseOptions(dir);
    options.fail_mode = mode.name;
    options.fail_prob = 0.5;
    options.fail_seed = 1;  // unit0 fails attempt 1; unit1 attempts 1 and 2
    const FleetReport report = RunFleet(options);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.result.ToJson(), expected);
    EXPECT_EQ(report.stats.retries, 3);
    EXPECT_EQ(report.stats.*mode.counter, 3);
    EXPECT_EQ(report.stats.spawned, 5);  // 2 first attempts + 3 retries
    EXPECT_EQ(report.stats.succeeded, 2);
  }
}

TEST(FleetRecoveryTest, CorruptDocumentsAreDetectedNeverMerged) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.fail_mode = "corrupt";
  options.fail_prob = 0.5;
  options.fail_seed = 1;
  const FleetReport report = RunFleet(options);
  // The corrupted attempts were detected by the checksum (IntegrityError →
  // corrupt, not malformed) and retried; nothing corrupt reached the merge,
  // or the bytes could not match the single-process run.
  EXPECT_EQ(report.stats.corrupt, 3);
  EXPECT_EQ(report.stats.malformed, 0);
  EXPECT_EQ(report.result.ToJson(), SingleProcessJson());
}

TEST(FleetRecoveryTest, KillsAndRetriesHungWorkers) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.fail_mode = "hang";
  options.fail_prob = 0.5;
  options.fail_seed = 21;  // only unit0, only attempt 1
  options.timeout_seconds = 1.0;
  const FleetReport report = RunFleet(options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.result.ToJson(), SingleProcessJson());
  EXPECT_EQ(report.stats.timed_out, 1);
  EXPECT_EQ(report.stats.retries, 1);
  EXPECT_EQ(report.stats.spawned, 3);
}

// The supervisor sleeps until a worker exits or a deadline passes. The run
// above needs at least five passes of the supervision loop, one per event:
// the first spawns, unit1 exits, unit0's 1 s timeout passes, its backoff
// ends, and its retry exits. A 2 ms poll would take about 500.
TEST(FleetRecoveryTest, SupervisorSleepsThroughAHungWorkersTimeout) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "telemetry disabled in the environment";
  }
  if (!PidfdsAvailable()) {
    GTEST_SKIP() << "no pidfds here; the supervisor polls at 2 ms instead";
  }
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.fail_mode = "hang";
  options.fail_prob = 0.5;
  options.fail_seed = 21;  // only unit0, only attempt 1
  options.timeout_seconds = 1.0;
  const obs::Counter& wakeups =
      obs::Registry::Global().counter("fleet.wakeups");
  const int64_t before = wakeups.value();
  const FleetReport report = RunFleet(options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.stats.timed_out, 1);
  EXPECT_GE(wakeups.value() - before, 5);
  EXPECT_LE(wakeups.value() - before, 12);
}

// Every pidfd is closed again — on reap, on move-assignment of a retried
// unit's child, and on destruction — so a chaos run that spawns, fails and
// respawns workers leaves this process's descriptor table as it found it.
TEST(FleetRecoveryTest, FlakyChaosRunLeavesNoDescriptorOpen) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.fail_mode = "flaky";
  options.fail_prob = 0.5;
  options.fail_seed = 1;  // unit0 fails attempt 1; unit1 attempts 1 and 2
  const size_t before = OpenDescriptorCount();
  const FleetReport report = RunFleet(options);
  EXPECT_EQ(OpenDescriptorCount(), before);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.stats.spawned, 5);
  EXPECT_EQ(report.stats.retries, 3);
}

TEST(FleetRecoveryTest, SplitsExhaustedMultiCellUnitAndStillCompletes) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.shard_count = 1;  // one unit owns both cells
  options.max_retries = 0;  // first failure exhausts it
  options.fail_mode = "flaky";
  options.fail_prob = 0.5;
  options.fail_seed = 21;  // unit0 fails; split units 1 and 2 never do
  const FleetReport report = RunFleet(options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.result.ToJson(), SingleProcessJson());
  EXPECT_EQ(report.stats.splits, 1);
  EXPECT_EQ(report.stats.retries, 0);
  EXPECT_EQ(report.stats.spawned, 3);  // the failed unit + its two halves
}

TEST(FleetRecoveryTest, PartialOkMarksExactlyTheExhaustedCells) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.max_retries = 0;
  options.fail_mode = "flaky";
  options.fail_prob = 0.5;
  options.fail_seed = 21;  // unit0 (cell 0, "400") fails its only attempt
  options.partial_ok = true;
  const FleetReport report = RunFleet(options);
  EXPECT_FALSE(report.complete);
  ASSERT_EQ(report.lost.size(), 1u);
  EXPECT_EQ(report.lost[0].index, 0u);
  EXPECT_EQ(report.lost[0].label, "400");
  EXPECT_NE(report.lost[0].reason.find("after 1 attempts"), std::string::npos)
      << report.lost[0].reason;

  // The result holds the survivor alone, under its true grid index (1, not
  // 0), and it finalizes to exactly the bytes it has in the full
  // single-process run — partial results never perturb what did arrive.
  ASSERT_EQ(report.result.cells.size(), 1u);
  const SweepCellResult& survivor = report.result.cells[0];
  EXPECT_EQ(survivor.index, 1u);
  EXPECT_EQ(survivor.label, "800");
  const SmallSweep sweep = MakeSweep();
  const SweepResult full = SweepRunner().Run(sweep.spec, sweep.options);
  const SweepCellResult& reference = full.cells[1];
  ASSERT_TRUE(survivor.mttdl.has_value());
  EXPECT_EQ(survivor.trials, reference.trials);
  EXPECT_EQ(survivor.mttdl->mean_years(), reference.mttdl->mean_years());
  EXPECT_EQ(survivor.mttdl->ci_years.lo, reference.mttdl->ci_years.lo);
  EXPECT_EQ(survivor.mttdl->ci_years.hi, reference.mttdl->ci_years.hi);
  EXPECT_EQ(survivor.mttdl->censored_trials, reference.mttdl->censored_trials);
}

TEST(FleetRecoveryTest, PartialOkWithNoSurvivorsIsAnError) {
  // partial_ok accepts a sweep with lost cells, not one with nothing left to
  // finalize: every attempt crashing still throws, naming every cell.
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.max_retries = 0;
  options.fail_mode = "crash";
  options.fail_prob = 1.0;
  options.partial_ok = true;
  try {
    RunFleet(options);
    FAIL() << "a fleet run with no surviving cell must throw";
  } catch (const FleetError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no cells to finalize"), std::string::npos) << message;
    EXPECT_NE(message.find("2 of 2 cells lost"), std::string::npos) << message;
  }
}

TEST(FleetRecoveryTest, ExhaustedCellsThrowNamingThemWithoutPartialOk) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.max_retries = 0;
  options.fail_mode = "flaky";
  options.fail_prob = 0.5;
  options.fail_seed = 21;
  try {
    RunFleet(options);
    FAIL() << "an incomplete fleet run without partial_ok must throw";
  } catch (const FleetError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("1 of 2 cells lost"), std::string::npos) << message;
    EXPECT_NE(message.find("cell 0 \"400\""), std::string::npos) << message;
  }
}

// An injected crash dies halfway through the stdout document: the reader
// gets a torn document that fails to parse, never a whole one. This is how
// a crashed fleet worker fails: its SIGABRT fails the attempt before any
// parse, and its capture is torn.
TEST(FleetRecoveryTest, CrashingWorkerTearsItsStdoutDocument) {
  TempDir dir;
  const std::string spec_path = WriteWholeSweepShard(dir);
  Subprocess crashing = Subprocess::Spawn(
      {LONGSTORE_SWEEP_WORKER, "--shard=" + spec_path, "--metrics-out=-",
       "--fail-mode=crash", "--fail-prob=1"},
      dir.path() + "/worker.log");
  crashing.Await();
  EXPECT_EQ(crashing.term_signal(), SIGABRT) << crashing.DescribeExit();
  const std::string& captured = crashing.output();
  EXPECT_FALSE(captured.empty());
  EXPECT_EQ(captured.find('\n'), std::string::npos) << "no whole result line";
  EXPECT_THROW(ShardResult::FromJson(captured, "stdout"), std::invalid_argument);
}

// --metrics-out=- puts the worker's answer on stdout as two lines: the
// result document, then the telemetry snapshot.
TEST(FleetRecoveryTest, WorkerAnswersWithResultThenSnapshotOnStdout) {
  TempDir dir;
  const std::string spec_path = WriteWholeSweepShard(dir);
  Subprocess worker = Subprocess::Spawn(
      {LONGSTORE_SWEEP_WORKER, "--shard=" + spec_path, "--metrics-out=-"},
      dir.path() + "/worker.log");
  worker.Await();
  ASSERT_TRUE(worker.exited_cleanly()) << worker.DescribeExit();
  const std::string& captured = worker.output();
  const size_t newline = captured.find('\n');
  ASSERT_NE(newline, std::string::npos);
  ASSERT_EQ(captured.back(), '\n');
  EXPECT_EQ(captured.find('\n', newline + 1), captured.size() - 1)
      << "exactly two lines";
  EXPECT_NO_THROW(ShardResult::FromJson(captured.substr(0, newline), "result"));
  EXPECT_NO_THROW(obs::MetricsSnapshot::FromJson(captured.substr(newline + 1),
                                                 "snapshot"));

  // Stdout is the only sink: a file for the result or the snapshot is
  // refused with the usage before the shard runs, and no file appears.
  const std::string file = dir.path() + "/answer.json";
  for (const std::string& flag : {"--out=" + file, "--metrics-out=" + file}) {
    Subprocess refused = Subprocess::Spawn(
        {LONGSTORE_SWEEP_WORKER, "--shard=" + spec_path, flag},
        dir.path() + "/refused.log");
    refused.Await();
    EXPECT_EQ(refused.DescribeExit(), "exit status 1") << flag;
    EXPECT_TRUE(refused.output().empty()) << flag;
    EXPECT_FALSE(FileExists(file)) << flag;
  }
  EXPECT_NE(ReadAll(dir.path() + "/refused.log").find("usage:"),
            std::string::npos);
}

// A negative or NaN timeout would silently switch hang protection off; the
// supervisor refuses it before spawning anything.
TEST(FleetRecoveryTest, RejectsNegativeOrNanTimeout) {
  TempDir dir;
  for (const double timeout : {-1.0, std::nan("")}) {
    FleetOptions options = BaseOptions(dir);
    options.timeout_seconds = timeout;
    try {
      RunFleet(options);
      FAIL() << "ran with timeout_seconds = " << timeout;
    } catch (const FleetError& e) {
      EXPECT_NE(std::string(e.what()).find("timeout_seconds"), std::string::npos)
          << e.what();
    }
  }
}

// A nonexistent worker binary is a configuration error, not a transient
// fault: the fleet must fail immediately with the attempted path in the
// message instead of burning the full retry/backoff budget on a typo.
TEST(FleetRecoveryTest, NonexistentWorkerBinaryFailsFastNamingThePath) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.worker_path = dir.path() + "/no_such_worker";
  options.max_retries = 50;                 // fail-fast must not consume these
  options.backoff_initial_seconds = 1000.0;  // a single backoff would hang us
  try {
    RunFleet(options);
    FAIL() << "a fleet with an unrunnable worker must throw";
  } catch (const FleetError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(options.worker_path), std::string::npos) << message;
    EXPECT_NE(message.find("could not be executed"), std::string::npos)
        << message;
    EXPECT_NE(message.find("--worker"), std::string::npos) << message;
  }
}

// A child that cannot be started is an error at Spawn, naming the step and
// the path, and no exit status is reserved: a child may exit 127 itself.
TEST(FleetRecoveryTest, SpawnFailuresAreErrorsAndNoExitCodeIsReserved) {
  TempDir dir;
  const std::string missing = dir.path() + "/missing_binary";
  try {
    Subprocess::Spawn({missing}, dir.path() + "/log.txt");
    FAIL() << "spawning a missing binary must throw";
  } catch (const SpawnError& e) {
    EXPECT_EQ(e.step(), SpawnError::Step::kExec);
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
  }

  // A directory at the log path makes open(O_WRONLY) fail (EISDIR) even for
  // root, so this exercises the log-open branch portably. The child would
  // leave a marker file; it must never start.
  const std::string dir_as_log = dir.path() + "/log_is_a_dir";
  const std::string marker = dir.path() + "/started";
  ASSERT_EQ(::mkdir(dir_as_log.c_str(), 0755), 0);
  try {
    Subprocess::Spawn({"/bin/sh", "-c", "exec touch \"$0\"", marker}, dir_as_log);
    FAIL() << "a log file that cannot be opened must throw";
  } catch (const SpawnError& e) {
    EXPECT_EQ(e.step(), SpawnError::Step::kLogOpen);
    EXPECT_NE(std::string(e.what()).find(dir_as_log), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(FileExists(marker)) << "a process started without its log";

  Subprocess exits_127 = Subprocess::Spawn({"/bin/sh", "-c", "exit 127"},
                                           dir.path() + "/log.txt");
  exits_127.Await();
  EXPECT_EQ(exits_127.DescribeExit(), "exit status 127");

  // An exec that fails for a reason other than the binary (an argument
  // longer than the kernel's 128 KiB limit per string) is a spawn failure,
  // not a bad path.
  try {
    Subprocess::Spawn({"/bin/true", std::string(200000, 'x')}, "");
    FAIL() << "an oversized argument must fail the spawn";
  } catch (const SpawnError& e) {
    EXPECT_EQ(e.step(), SpawnError::Step::kSpawn) << e.what();
    EXPECT_EQ(e.error_number(), E2BIG) << e.what();
    EXPECT_NE(std::string(e.what()).find("cannot spawn '/bin/true'"),
              std::string::npos)
        << e.what();
  }
}

// Once the child exits, its output is complete even while a process it
// left behind still holds the pipe open: the reap reads what is buffered
// and closes the pipe, never waiting for an EOF the background sleep would
// withhold for 5 s.
TEST(FleetRecoveryTest, AwaitDoesNotWaitForAnEofADescendantWithholds) {
  TempDir dir;
  Subprocess child = Subprocess::Spawn({"/bin/sh", "-c", "sleep 5 & echo $!"},
                                       dir.path() + "/log.txt");
  const auto start = std::chrono::steady_clock::now();
  child.Await();
  const double waited = SecondsSince(start);
  ASSERT_TRUE(child.exited_cleanly()) << child.DescribeExit();
  const std::string& captured = child.output();
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured.back(), '\n') << captured;
  const pid_t sleeper = static_cast<pid_t>(std::atol(captured.c_str()));
  ASSERT_GT(sleeper, 0) << captured;
  ::kill(sleeper, SIGKILL);
  EXPECT_LT(waited, 2.0);
}

// A captured child is drained while it runs, so it never blocks on a full
// pipe: 1 MiB is sixteen times the pipe's default capacity, and a reader
// that waited for the exit first would wait forever.
TEST(FleetRecoveryTest, CapturedChildIsDrainedWhileItRuns) {
  Subprocess child =
      Subprocess::Spawn({"/bin/sh", "-c", "head -c 1048576 /dev/zero"}, "");
  const auto start = std::chrono::steady_clock::now();
  const double bound_s = 10.0;
  while (!child.Poll() && SecondsSince(start) < bound_s) {
    Subprocess::WaitAny({&child}, bound_s - SecondsSince(start));
  }
  const double waited = SecondsSince(start);
  const bool exited = child.Poll();
  child.Kill();
  ASSERT_TRUE(exited) << "the child is still running after " << waited << " s";
  EXPECT_TRUE(child.exited_cleanly()) << child.DescribeExit();
  EXPECT_EQ(child.output().size(), 1048576u);
  EXPECT_LT(waited, 5.0);
}

// A child spawned while another captured child runs inherits no supervisor
// descriptor: not the other child's pipe or pidfd, not its own log file or
// pipe read end. Descriptors this test process itself leaves inheritable
// (none under ctest) are allowed through.
TEST(FleetRecoveryTest, SpawnedChildInheritsNoSupervisorDescriptor) {
  TempDir dir;
  std::vector<std::string> inheritable;
  DIR* handle = ::opendir("/proc/self/fd");
  ASSERT_NE(handle, nullptr);
  while (const dirent* entry = ::readdir(handle)) {
    const int fd = std::atoi(entry->d_name);
    if (fd > 2 && fd != ::dirfd(handle) &&
        (::fcntl(fd, F_GETFD) & FD_CLOEXEC) == 0) {
      inheritable.push_back(entry->d_name);
    }
  }
  ::closedir(handle);

  Subprocess running =
      Subprocess::Spawn({"/bin/sleep", "30"}, dir.path() + "/sleep.log");
  Subprocess lister = Subprocess::Spawn({"/bin/sh", "-c", "exec ls /proc/self/fd"},
                                        dir.path() + "/ls.log");
  lister.Await();
  running.Kill();
  running.Await();
  ASSERT_TRUE(lister.exited_cleanly()) << lister.DescribeExit();

  int standard = 0;
  std::vector<std::string> listed;
  std::istringstream lines(lister.output());
  for (std::string line; std::getline(lines, line);) {
    if (line == "0" || line == "1" || line == "2") {
      ++standard;
    } else if (std::find(inheritable.begin(), inheritable.end(), line) ==
               inheritable.end()) {
      listed.push_back(line);
    }
  }
  EXPECT_EQ(standard, 3) << lister.output();
  // What is left is ls's own handle on the directory it lists.
  EXPECT_EQ(listed.size(), 1u) << lister.output();
}

// A child that exited before the wait began is reported at once, far inside
// a long bound.
TEST(FleetRecoveryTest, WaitAnyReturnsAtOnceForAChildThatAlreadyExited) {
  Subprocess child = Subprocess::Spawn({"/bin/true"}, "");
  // Wait for the exit without reaping it (WNOWAIT): the child has exited,
  // but Subprocess has not seen it yet.
  siginfo_t info = {};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(child.pid()), &info,
                     WEXITED | WNOWAIT),
            0);
  ASSERT_TRUE(child.running());
  const auto start = std::chrono::steady_clock::now();
  Subprocess::WaitAny({&child}, 30.0);
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_TRUE(child.Poll());
  EXPECT_TRUE(child.exited_cleanly()) << child.DescribeExit();
}

// A wait on a child that keeps running returns once its bound has passed,
// never before — a sub-millisecond bound included, which rounds up.
TEST(FleetRecoveryTest, WaitAnyOnARunningChildReturnsOnlyAfterItsBound) {
  if (!PidfdsAvailable()) {
    GTEST_SKIP() << "no pidfds here; WaitAny caps every wait at 2 ms";
  }
  Subprocess child = Subprocess::Spawn({"/bin/sleep", "30"}, "");
  for (const double bound : {0.0004, 0.05, 0.2}) {
    SCOPED_TRACE(bound);
    const auto start = std::chrono::steady_clock::now();
    Subprocess::WaitAny({&child}, bound);
    const double waited = SecondsSince(start);
    EXPECT_GE(waited, bound);
    EXPECT_LT(waited, bound + 5.0);
    EXPECT_FALSE(child.Poll());
  }
  child.Kill();
  child.Await();
  EXPECT_EQ(child.term_signal(), SIGKILL);
}

// An attempt writes no file: its answer comes back over stdout and its
// stderr is the supervisor's. What keep_files keeps is the shard documents,
// one per unit, even after retries.
TEST(FleetRecoveryTest, KeptFilesAreTheShardDocumentsAlone) {
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.keep_files = true;
  options.fail_mode = "flaky";
  options.fail_prob = 0.5;
  options.fail_seed = 1;
  const FleetReport report = RunFleet(options);
  ASSERT_TRUE(report.complete);
  ASSERT_GT(report.stats.retries, 0);
  std::vector<std::string> kept;
  DIR* handle = ::opendir(dir.path().c_str());
  ASSERT_NE(handle, nullptr);
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") kept.push_back(name);
  }
  ::closedir(handle);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<std::string>{"unit0.shard.json", "unit1.shard.json"}));
}

// The trace journal must record the *exact* injected fault sequence: with
// seed 1 the schedule is pinned (unit0 fails attempt 1; unit1 fails attempts
// 1 and 2), so the per-unit event chains are fully determined — any drift in
// the journal (missed transition, wrong attempt number, wrong failure kind)
// breaks this test even though the merged figure still comes out right.
TEST(FleetRecoveryTest, JournalRecordsTheInjectedFaultSequence) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "telemetry disabled; no journal to inspect";
  }
  TempDir dir;
  const std::string journal_path = dir.path() + "/trace.jsonl";
  obs::TraceJournal journal;
  journal.Open(journal_path);
  const obs::Histogram& spawn_ns =
      obs::Registry::Global().histogram("fleet.spawn_ns");
  const obs::Histogram& harvest_ns =
      obs::Registry::Global().histogram("fleet.harvest_ns");
  const int64_t spawns_before = spawn_ns.count();
  const int64_t harvests_before = harvest_ns.count();

  FleetOptions options = BaseOptions(dir);
  options.fail_mode = "crash";
  options.fail_prob = 0.5;
  options.fail_seed = 1;
  options.journal = &journal;
  options.log = nullptr;  // journal only; stderr stays quiet
  const FleetReport report = RunFleet(options);
  EXPECT_TRUE(report.complete);
  // One spawn sample per attempt; one harvest sample per attempt that
  // exited cleanly (the three crashed attempts are never harvested).
  EXPECT_EQ(spawn_ns.count() - spawns_before, 5);
  EXPECT_EQ(harvest_ns.count() - harvests_before, 2);
  std::string flush_error;
  ASSERT_TRUE(journal.Flush(&flush_error)) << flush_error;

  // One readable line per unit event: "spawn:1", "backoff:1:crashed", ...
  struct UnitEvents {
    std::vector<std::string> chain;
  };
  std::map<int64_t, UnitEvents> units;
  const std::string text = ReadAll(journal_path);
  size_t begin = 0;
  size_t journal_opens = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    const json::Value event = json::Parse(line, "trace.jsonl");
    const json::Value* name = event.Find("event");
    ASSERT_NE(name, nullptr);
    if (name->string == "journal_open") {
      ++journal_opens;
      continue;
    }
    const json::Value* unit = event.Find("unit");
    if (unit == nullptr) continue;  // fleet_plan / fleet_done
    const json::Value* attempt = event.Find("attempt");
    ASSERT_NE(attempt, nullptr) << name->string;
    std::string entry = name->string.substr(std::string("unit_").size()) + ":" +
                        std::to_string(static_cast<int64_t>(attempt->number));
    if (name->string == "unit_backoff") {
      const json::Value* kind = event.Find("kind");
      const json::Value* reason = event.Find("reason");
      ASSERT_NE(kind, nullptr);
      ASSERT_NE(reason, nullptr);
      EXPECT_NE(reason->string.find("worker died"), std::string::npos)
          << reason->string;
      entry += ":" + kind->string;
    }
    units[static_cast<int64_t>(unit->number)].chain.push_back(entry);
  }
  EXPECT_EQ(journal_opens, 1u);

  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].chain,
            (std::vector<std::string>{"spawn:1", "backoff:1:crashed", "spawn:2",
                                      "done:2"}));
  EXPECT_EQ(units[1].chain,
            (std::vector<std::string>{"spawn:1", "backoff:1:crashed", "spawn:2",
                                      "backoff:2:crashed", "spawn:3",
                                      "done:3"}));
}

// End-to-end through the sweep_fleet binary: a chaos run must print the same
// bytes as --single and exit 0; an exhausted run with --partial-ok must mark
// the loss on stdout and exit 2.
TEST(FleetRecoveryTest, SweepFleetBinaryMatchesSingleAndSignalsPartial) {
  TempDir dir;
  const std::string scenario_path = dir.path() + "/scenario.json";
  {
    std::FILE* file = std::fopen(scenario_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string json = SmallScenario().ToJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
  }
  const std::string fleet = LONGSTORE_SWEEP_FLEET;
  const std::string common =
      " --scenario=" + scenario_path + " --trials=64 --seed=99 --format=csv";

  const std::string single_out = dir.path() + "/single.csv";
  int status = std::system((fleet + " --single" + common + " >" + single_out +
                            " 2>" + dir.path() + "/single.err")
                               .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const std::string chaos_out = dir.path() + "/chaos.csv";
  status = std::system((fleet + " --worker=" + LONGSTORE_SWEEP_WORKER +
                        " --shards=2 --fail-mode=flaky --fail-prob=0.5"
                        " --fail-seed=1 --backoff-initial-s=0.02 --tmp=" +
                        dir.path() + common + " >" + chaos_out + " 2>" +
                        dir.path() + "/chaos.err")
                           .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << ReadAll(dir.path() + "/chaos.err");
  EXPECT_EQ(ReadAll(chaos_out), ReadAll(single_out));

  // Two cells (one per scenario flag), unit0 exhausted on its only attempt:
  // --partial-ok turns that into exit 2 plus an explicit loss marker.
  const std::string scenario_b = dir.path() + "/scenario_b.json";
  status = std::system(("cp " + scenario_path + " " + scenario_b).c_str());
  ASSERT_EQ(status, 0);
  const std::string partial_out = dir.path() + "/partial.txt";
  status = std::system((fleet + " --worker=" + LONGSTORE_SWEEP_WORKER +
                        " --scenario=" + scenario_path + " --scenario=" +
                        scenario_b +
                        " --shards=2 --max-retries=0 --fail-mode=flaky"
                        " --fail-prob=0.5 --fail-seed=21 --partial-ok"
                        " --backoff-initial-s=0.02 --trials=64 --seed=99"
                        " --tmp=" + dir.path() + " >" + partial_out + " 2>" +
                        dir.path() + "/partial.err")
                           .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << ReadAll(dir.path() + "/partial.err");
  const std::string partial = ReadAll(partial_out);
  EXPECT_NE(partial.find("INCOMPLETE SWEEP: 1 of 2 cells lost"),
            std::string::npos)
      << partial;
}

// --format=json escapes what it prints about lost cells: a lost cell's
// label is its --scenario path, and one holding a quote and a backslash
// must leave stdout valid JSON that carries the label byte for byte.
TEST(FleetRecoveryTest, SweepFleetJsonEscapesLostCellLabels) {
  TempDir dir;
  const std::string lost_path = dir.path() + "/cell \"q\" back\\slash.json";
  const std::string kept_path = dir.path() + "/kept.json";
  const std::string scenario_json = SmallScenario().ToJson();
  for (const std::string& path : {lost_path, kept_path}) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    std::fwrite(scenario_json.data(), 1, scenario_json.size(), file);
    std::fclose(file);
  }
  // Fail seed 21 loses unit 0, the first --scenario cell, on its only
  // attempt; unit 1 never fails.
  const std::string out = dir.path() + "/partial.json";
  const int status = std::system(
      (std::string(LONGSTORE_SWEEP_FLEET) + " --worker=" + LONGSTORE_SWEEP_WORKER +
       " '--scenario=" + lost_path + "' --scenario=" + kept_path +
       " --shards=2 --max-retries=0 --fail-mode=flaky --fail-prob=0.5"
       " --fail-seed=21 --partial-ok --backoff-initial-s=0.02 --trials=64"
       " --seed=99 --format=json --tmp=" + dir.path() + " >" + out + " 2>" +
       dir.path() + "/partial.err")
          .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << ReadAll(dir.path() + "/partial.err");
  const std::string printed = ReadAll(out);
  json::Value document;
  ASSERT_NO_THROW(document = json::Parse(printed, "sweep_fleet stdout")) << printed;
  const json::Value* missing = document.Find("missing");
  ASSERT_NE(missing, nullptr) << printed;
  ASSERT_EQ(missing->array.size(), 1u) << printed;
  const json::Value* label = missing->array[0].Find("label");
  ASSERT_NE(label, nullptr) << printed;
  EXPECT_EQ(label->string, lost_path);
}

// --threads sets the lanes of a --single run too, which never moves its
// bytes. Every numeric flag of sweep_fleet, sweep_serviced, sweep_worker,
// sweep_client and frontier_plan is parsed strictly: a non-numeric, partly
// numeric or out-of-range value is a usage error rather than a silent
// default — "--timeout-s=-1" must not switch hang protection off,
// "--shards=3x" must not run 3 shards, "--seed=abc" must not mean seed 0.
TEST(FleetRecoveryTest, SweepFleetSingleHonorsAndValidatesThreads) {
  TempDir dir;
  const auto run = [&](const std::string& command, const std::string& name) {
    const int status =
        std::system((command + " >" + dir.path() + "/" + name + ".out 2>" +
                     dir.path() + "/" + name + ".err")
                        .c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
  };
  const std::string fleet =
      std::string(LONGSTORE_SWEEP_FLEET) + " --single --cheetah --format=csv";
  ASSERT_EQ(run(fleet, "all_lanes"), 0);
  ASSERT_EQ(run(fleet + " --threads=1", "one_lane"), 0);
  const std::string all_lanes = ReadAll(dir.path() + "/all_lanes.out");
  EXPECT_FALSE(all_lanes.empty());
  EXPECT_EQ(ReadAll(dir.path() + "/one_lane.out"), all_lanes);

  struct BadValues {
    std::string command;  // binary and its required flags
    const char* flag;
    std::vector<std::string> values;
  };
  const std::string serviced =
      std::string(LONGSTORE_SWEEP_SERVICED) + " --stdio --max-requests=1";
  // Each bad value exits before reading the shard or touching the socket.
  const std::string worker = std::string(LONGSTORE_SWEEP_WORKER) + " --shard=-";
  const std::string client = std::string(LONGSTORE_SWEEP_CLIENT) + " --socket=" +
                             dir.path() + "/none.sock --cheetah";
  const std::string frontier =
      std::string(LONGSTORE_FRONTIER_PLAN) + " --golden-small --format=json";
  const std::vector<std::string> count = {"abc", "", "3x", "0", "1.5"};
  const std::vector<std::string> non_negative = {"abc", "", "3x", "-1", "1.5"};
  const std::vector<std::string> seconds = {"abc", "", "3x", "-1", "nan", "inf"};
  const std::vector<std::string> positive = {"abc", "", "3x", "-1", "0", "nan", "inf"};
  const std::vector<std::string> seed = {"abc", "", "3x", "-1"};
  const std::vector<std::string> probability = {"abc", "", "3x", "-0.5", "1.5", "nan"};
  const std::vector<BadValues> table = {
      {fleet, "--threads", non_negative},
      {fleet, "--shards", count},
      {fleet, "--max-parallel", count},
      {fleet, "--max-retries", non_negative},
      {fleet, "--timeout-s", seconds},
      {fleet, "--backoff-initial-s", seconds},
      {fleet, "--trials", count},
      {fleet, "--seed", seed},
      {fleet, "--mission-years", seconds},
      {fleet, "--fail-prob", probability},
      {fleet, "--fail-seed", seed},
      {serviced, "--shards", count},
      {serviced, "--max-parallel", count},
      {serviced, "--threads", non_negative},
      {serviced, "--timeout-s", seconds},
      {serviced, "--cache-capacity", count},
      {serviced, "--max-requests", non_negative},
      {worker, "--threads", non_negative},
      {worker, "--fail-prob", probability},
      {worker, "--fail-seed", seed},
      {worker, "--fail-nonce", seed},
      {client, "--precision", positive},
      {client, "--max-trials", count},
      {frontier, "--trials", count},
      {frontier, "--seed", seed},
      {frontier, "--threads", non_negative},
      {frontier, "--mission-years", positive},
      {frontier, "--target-loss", positive},
      {frontier, "--budget", positive},
      {frontier, "--archive-gb", positive},
      {frontier, "--migrate-at", {"abc", "", "10,abc", "10,", "10,-5", "3x"}},
  };
  for (const BadValues& entry : table) {
    for (const std::string& bad : entry.values) {
      const std::string flag = std::string(entry.flag) + "=" + bad;
      EXPECT_EQ(run(entry.command + " '" + flag + "' </dev/null", "bad"), 1)
          << entry.command << " " << flag;
      EXPECT_NE(ReadAll(dir.path() + "/bad.err").find("usage:"),
                std::string::npos)
          << entry.command << " " << flag;
    }
  }
}

// --- distributed adaptive rounds (Run, every seed mode) --------------------

SmallSweep MakeAdaptiveSweep(SweepOptions::SeedMode seed_mode) {
  SmallSweep sweep = MakeSweep();
  sweep.options.seed_mode = seed_mode;
  sweep.options.adaptive = true;
  sweep.options.relative_precision = 0.05;
  sweep.options.mc.trials = 256;
  sweep.options.max_trials = 8192;
  return sweep;
}

// Trial ranges need only per-trial seeding, so every xoshiro mode splits as
// well as the counter generator does.
constexpr SweepOptions::SeedMode kAllSeedModes[] = {
    SweepOptions::SeedMode::kPerCellDerived, SweepOptions::SeedMode::kSharedRoot,
    SweepOptions::SeedMode::kScenarioDerived, SweepOptions::SeedMode::kCounterV1};

// An adaptive sweep whose continuation rounds are *split mid-cell* across
// workers (trial-range pieces, folded by the merger onto the previous
// round's accumulators) must be byte-identical to the single-process
// adaptive run — same accumulators, same round schedule, same half-width
// history.
TEST(FleetRecoveryTest, AdaptiveSplitMidCellIsByteIdenticalToSingleProcess) {
  for (const SweepOptions::SeedMode mode : kAllSeedModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    const SmallSweep sweep = MakeAdaptiveSweep(mode);
    const std::string expected =
        SweepRunner().Run(sweep.spec, sweep.options).ToJson();
    TempDir dir;
    FleetOptions options = BaseOptions(dir);
    options.shard_count = 3;  // round 2 onward splits each cell across workers
    const FleetReport report =
        FleetSupervisor(options).Run(sweep.spec, sweep.options);
    EXPECT_TRUE(report.complete);
    EXPECT_TRUE(report.lost.empty());
    EXPECT_EQ(report.result.ToJson(), expected);
    ASSERT_EQ(report.executions.size(), 2u);
    for (const SweepCellExecution& execution : report.executions) {
      EXPECT_GT(execution.rounds, 1) << execution.label;
      EXPECT_EQ(static_cast<size_t>(execution.rounds),
                execution.half_width_history.size());
    }
  }
}

TEST(FleetRecoveryTest, AdaptiveRecoversByteIdenticallyUnderChaos) {
  for (const SweepOptions::SeedMode mode : {SweepOptions::SeedMode::kPerCellDerived,
                                            SweepOptions::SeedMode::kCounterV1}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const SmallSweep sweep = MakeAdaptiveSweep(mode);
    const std::string expected =
        SweepRunner().Run(sweep.spec, sweep.options).ToJson();
    TempDir dir;
    FleetOptions options = BaseOptions(dir);
    options.shard_count = 2;
    options.fail_mode = "crash";
    options.fail_prob = 0.5;
    options.fail_seed = 1;
    const FleetReport report =
        FleetSupervisor(options).Run(sweep.spec, sweep.options);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.result.ToJson(), expected);
    EXPECT_GT(report.stats.retries, 0);
  }
}

// RunSweepRounds' prior checks hold on the fleet path and fire before any
// worker is spawned: the worker binary does not exist, so a spawn would
// surface as FleetError rather than std::invalid_argument.
TEST(FleetRecoveryTest, MismatchedPriorsAreRejectedBeforeAnySpawn) {
  const SmallSweep sweep = MakeAdaptiveSweep(SweepOptions::SeedMode::kPerCellDerived);
  const std::vector<SweepCellExecution> prior =
      RunSweepCells(WorkerPool::Shared(), sweep.spec.BuildCells(), sweep.options);
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.worker_path = dir.path() + "/no_such_worker";
  const FleetSupervisor fleet(options);
  const auto run = [&](const SweepOptions& sweep_options,
                       std::vector<SweepCellExecution> from) {
    return fleet.Run(sweep.spec.AxisNames(), sweep_options,
                     sweep.spec.BuildCells(), std::move(from));
  };

  std::vector<SweepCellExecution> relabelled = prior;
  relabelled[0].label = "someone-else";
  EXPECT_THROW(run(sweep.options, relabelled), std::invalid_argument);

  std::vector<SweepCellExecution> extra = prior;
  extra.push_back(prior[0]);
  EXPECT_THROW(run(sweep.options, extra), std::invalid_argument);

  SweepOptions fixed = sweep.options;
  fixed.adaptive = false;
  EXPECT_THROW(run(fixed, prior), std::invalid_argument);
}

// A non-adaptive sweep with fewer cells than shards splits its cells at
// block boundaries in its one round, under every seed mode.
TEST(FleetRecoveryTest, OneRoundSplitMidCellIsByteIdenticalUnderEverySeedMode) {
  for (const SweepOptions::SeedMode mode : kAllSeedModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    SmallSweep sweep = MakeSweep();
    sweep.options.seed_mode = mode;
    sweep.options.mc.trials = 1000;
    TempDir dir;
    FleetOptions options = BaseOptions(dir);
    options.shard_count = 3;
    const FleetReport report =
        FleetSupervisor(options).Run(sweep.spec, sweep.options);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.result.ToJson(),
              SweepRunner().Run(sweep.spec, sweep.options).ToJson());
    EXPECT_EQ(report.stats.spawned, 3);  // 2 cells x 3 chunks over 3 units
  }
}

// Mission-bounded cells never split (PartitionShardRound): with more shards
// than cells each cell runs whole on its own unit and the spare shard
// spawns nothing.
TEST(FleetRecoveryTest, MissionBoundedCellsRunWholeWithSpareShards) {
  SmallSweep sweep = MakeSweep();
  sweep.options.estimand = SweepOptions::Estimand::kLossProbability;
  sweep.options.mission = Duration::Years(5.0);
  sweep.options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  sweep.options.mc.trials = 1000;
  TempDir dir;
  FleetOptions options = BaseOptions(dir);
  options.shard_count = 3;
  const FleetReport report = FleetSupervisor(options).Run(sweep.spec, sweep.options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.result.ToJson(),
            SweepRunner().Run(sweep.spec, sweep.options).ToJson());
  EXPECT_EQ(report.stats.spawned, 2);
}

}  // namespace
}  // namespace longstore
