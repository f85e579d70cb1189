// End-to-end: the real sweep_serviced daemon over a real Unix-domain
// socket — cold query computed, warm query answered from cache with bytes
// identical to the in-process golden run, the real sweep_client binary
// agreeing via its --expect-source exit codes, a stalled or trickling
// client dropped at the connection deadline without the daemon allocating
// the frame it announced, the fleet backend producing the
// same bytes through worker subprocesses, a tighter query resumed on either
// backend, and SIGTERM shutting the daemon down cleanly.

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet/subprocess.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/service_protocol.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"
#include "tools/figure_sweeps.h"

#ifndef LONGSTORE_SWEEP_SERVICED
#error "build must define LONGSTORE_SWEEP_SERVICED"
#endif
#ifndef LONGSTORE_SWEEP_CLIENT
#error "build must define LONGSTORE_SWEEP_CLIENT"
#endif
#ifndef LONGSTORE_SWEEP_WORKER
#error "build must define LONGSTORE_SWEEP_WORKER"
#endif

namespace longstore {
namespace {

class ServiceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/service_e2e.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    socket_path_ = dir_ + "/svc.sock";
  }

  void TearDown() override {
    daemon_.Kill();
    if (daemon_.started()) {
      daemon_.Await();
    }
    // Best-effort scrub of the handful of files the daemon/client leave.
    for (const char* name : {"/svc.sock", "/serviced.log", "/client.log"}) {
      ::unlink((dir_ + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  void StartDaemon(std::vector<std::string> extra_args = {}) {
    std::vector<std::string> argv = {LONGSTORE_SWEEP_SERVICED,
                                     "--socket=" + socket_path_};
    argv.insert(argv.end(), extra_args.begin(), extra_args.end());
    daemon_ = Subprocess::Spawn(argv, dir_ + "/serviced.log");
    ASSERT_TRUE(daemon_.started());
  }

  // Polls until the daemon accepts connections (it unlinks and rebinds the
  // socket during startup, so existence of the path is not enough).
  int Connect() {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0 &&
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return fd;
      }
      if (fd >= 0) {
        ::close(fd);
      }
      ::usleep(50 * 1000);
    }
    return -1;
  }

  ServiceResponse Roundtrip(const ServiceRequest& request) {
    const int fd = Connect();
    EXPECT_GE(fd, 0) << "daemon never started accepting";
    std::string payload;
    std::string frame_error;
    EXPECT_TRUE(WriteFrame(fd, request.ToJson()));
    EXPECT_EQ(ReadFrame(fd, &payload, &frame_error), FrameStatus::kOk)
        << frame_error;
    ::close(fd);
    return ServiceResponse::FromJson(payload, "e2e socket");
  }

  static ServiceRequest CheetahRequest() {
    SweepSpec spec;
    SweepOptions options;
    BuildCheetahSweep(&spec, &options);
    ServiceRequest request;
    request.kind = ServiceRequest::Kind::kSweep;
    request.sweep_document =
        ShardPlan(spec, options, /*shard_count=*/1).shards()[0].ToJson();
    return request;
  }

  static std::string CheetahGolden() {
    SweepSpec spec;
    SweepOptions options;
    BuildCheetahSweep(&spec, &options);
    return SweepRunner().Run(spec, options).ToJson();
  }

  int RunClient(const std::vector<std::string>& args) {
    std::vector<std::string> argv = {LONGSTORE_SWEEP_CLIENT,
                                     "--socket=" + socket_path_};
    argv.insert(argv.end(), args.begin(), args.end());
    Subprocess client = Subprocess::Spawn(argv, dir_ + "/client.log");
    client.Await();
    return client.exit_code();
  }

  std::string dir_;
  std::string socket_path_;
  Subprocess daemon_;
};

TEST_F(ServiceE2eTest, ColdThenWarmCheetahMatchesTheGoldenByteForByte) {
  StartDaemon();
  const std::string golden = CheetahGolden();

  const ServiceResponse cold = Roundtrip(CheetahRequest());
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  EXPECT_EQ(cold.new_trials, 3 * 4000);
  EXPECT_EQ(cold.result_json, golden);

  const ServiceResponse warm = Roundtrip(CheetahRequest());
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.source, "cache");
  EXPECT_EQ(warm.new_trials, 0);
  EXPECT_EQ(warm.result_json, golden);

  // Clean SIGTERM shutdown: the accept loop notices the signal and exits 0.
  ASSERT_EQ(::kill(daemon_.pid(), SIGTERM), 0);
  daemon_.Await();
  EXPECT_TRUE(daemon_.exited_cleanly()) << daemon_.DescribeExit();
}

TEST_F(ServiceE2eTest, RealClientObservesComputedThenCache) {
  StartDaemon();
  // Wait for readiness, then release the probe connection — the daemon
  // serves one connection at a time, and a held-open idle probe would park
  // every later client in the listen backlog.
  const int probe = Connect();
  ASSERT_GE(probe, 0);
  ::close(probe);
  EXPECT_EQ(RunClient({"--ping"}), 0);
  EXPECT_EQ(RunClient({"--cheetah", "--expect-source=computed"}), 0);
  EXPECT_EQ(RunClient({"--cheetah", "--expect-source=cache"}), 0);
  // The provenance claim is enforced, not decorative: expecting the wrong
  // source is a distinct failure exit.
  EXPECT_EQ(RunClient({"--cheetah", "--expect-source=computed"}), 4);
}

// The daemon serves one connection at a time, so a client that stalls
// mid-frame must not block everyone else: its connection is dropped once the
// frame deadline passes, and a ping sent meanwhile is answered.
TEST_F(ServiceE2eTest, StalledClientIsDroppedAtTheDeadline) {
  StartDaemon();
  const int stalled = Connect();
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::write(stalled, "12\n", 3), 3);  // a frame length, then nothing

  Subprocess ping = Subprocess::Spawn(
      {LONGSTORE_SWEEP_CLIENT, "--socket=" + socket_path_, "--ping"},
      dir_ + "/client.log");
  const auto start = std::chrono::steady_clock::now();
  const double bound_s = kConnectionDeadlineSeconds + 5.0;
  double waited_s = 0.0;
  while (!ping.Poll() && waited_s < bound_s) {
    Subprocess::WaitAny({&ping}, bound_s - waited_s);
    waited_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
  }
  const bool answered = ping.Poll();
  char byte = 0;
  const ssize_t stalled_read = ::recv(stalled, &byte, 1, MSG_DONTWAIT);
  ::close(stalled);
  ASSERT_TRUE(answered) << "ping still blocked after " << bound_s << " s";
  EXPECT_TRUE(ping.exited_cleanly()) << ping.DescribeExit();
  EXPECT_EQ(stalled_read, 0) << "the stalled connection is still open";
  std::string log;
  ASSERT_TRUE(obs::ReadWholeFile(dir_ + "/serviced.log", &log, nullptr));
  EXPECT_NE(log.find("dropping connection: read timed out"), std::string::npos) << log;
}

// The deadline bounds the whole frame, not each read: a client that sends
// one payload byte a second never makes a single read wait the deadline
// out, yet its connection is dropped when the frame's deadline passes.
TEST_F(ServiceE2eTest, TricklingClientIsDroppedAtTheFrameDeadline) {
  StartDaemon();
  const int trickling = Connect();
  ASSERT_GE(trickling, 0);
  ASSERT_EQ(::write(trickling, "12\n", 3), 3);

  Subprocess ping = Subprocess::Spawn(
      {LONGSTORE_SWEEP_CLIENT, "--socket=" + socket_path_, "--ping"},
      dir_ + "/client.log");
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  const double bound_s = kConnectionDeadlineSeconds + 3.0;
  int sent = 0;
  while (!ping.Poll() && elapsed_s() < bound_s) {
    if (elapsed_s() >= sent + 1.0) {
      // MSG_NOSIGNAL: the daemon may already have dropped the connection.
      ::send(trickling, "x", 1, MSG_NOSIGNAL);
      ++sent;
    }
    Subprocess::WaitAny({&ping}, std::min(sent + 1.0, bound_s) - elapsed_s());
  }
  const bool answered = ping.Poll();
  ::close(trickling);
  ASSERT_TRUE(answered) << "ping still blocked after " << bound_s << " s, "
                        << sent << " payload bytes trickled";
  EXPECT_TRUE(ping.exited_cleanly()) << ping.DescribeExit();
  std::string log;
  ASSERT_TRUE(obs::ReadWholeFile(dir_ + "/serviced.log", &log, nullptr));
  EXPECT_NE(log.find("dropping connection: read timed out after"), std::string::npos)
      << log;
}

// A frame length alone costs the daemon nothing: the payload grows as bytes
// arrive, so a client that announces a frame just under kMaxFrameBytes and
// sends no payload leaves the daemon's peak memory far below that length.
TEST_F(ServiceE2eTest, AnnouncedFrameLengthIsNotAllocatedAhead) {
  StartDaemon();
  const int stalled = Connect();
  ASSERT_GE(stalled, 0);
  const std::string prefix = "268435455\n";  // kMaxFrameBytes - 1
  ASSERT_EQ(::write(stalled, prefix.data(), prefix.size()),
            static_cast<ssize_t>(prefix.size()));
  // The daemon drops the connection at the frame deadline: EOF arrives.
  pollfd entry = {stalled, POLLIN, 0};
  EXPECT_EQ(::poll(&entry, 1, (kConnectionDeadlineSeconds + 5) * 1000), 1);
  char byte = 0;
  EXPECT_EQ(::recv(stalled, &byte, 1, MSG_DONTWAIT), 0)
      << "the stalled connection is still open";
  ::close(stalled);

  std::string status;
  ASSERT_TRUE(obs::ReadWholeFile("/proc/" + std::to_string(daemon_.pid()) + "/status",
                                 &status, nullptr));
  const size_t line = status.find("VmHWM:");
  ASSERT_NE(line, std::string::npos) << status;
  const long peak_kb = std::strtol(status.c_str() + line + 6, nullptr, 10);
  EXPECT_GT(peak_kb, 0);
  EXPECT_LT(peak_kb, 64 * 1024) << "the daemon's peak RSS followed the prefix";
  EXPECT_EQ(RunClient({"--ping"}), 0);
}

TEST_F(ServiceE2eTest, FleetBackendProducesTheSameBytesAndStillCaches) {
  StartDaemon({"--backend=fleet", "--worker=" LONGSTORE_SWEEP_WORKER,
               "--tmp=" + dir_, "--shards=3", "--max-parallel=2",
               "--timeout-s=120"});
  const std::string golden = CheetahGolden();

  const ServiceResponse cold = Roundtrip(CheetahRequest());
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  EXPECT_EQ(cold.result_json, golden)
      << "fleet-backed service must keep the shard merge contract";

  const ServiceResponse warm = Roundtrip(CheetahRequest());
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.source, "cache");
  EXPECT_EQ(warm.result_json, golden);
}

// Fleet workers inherit none of the daemon's sockets. A worker holding the
// listener or a client's connection would keep that client from seeing EOF
// when the daemon dies, until every orphaned worker exits. The --worker
// wrapper records each worker's open descriptors, then execs the real one.
TEST_F(ServiceE2eTest, FleetWorkersInheritNoSockets) {
  const std::string wrapper = dir_ + "/fd_wrapper.sh";
  std::FILE* file = std::fopen(wrapper.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fprintf(file, "#!/bin/sh\nls -l /proc/$$/fd > %s/fds.$$\nexec %s \"$@\"\n",
               dir_.c_str(), LONGSTORE_SWEEP_WORKER);
  ASSERT_EQ(std::fclose(file), 0);
  ASSERT_EQ(::chmod(wrapper.c_str(), 0755), 0);

  StartDaemon({"--backend=fleet", "--worker=" + wrapper, "--tmp=" + dir_,
               "--shards=3", "--timeout-s=120", "--max-requests=1"});
  const int probe = Connect();
  ASSERT_GE(probe, 0);
  ::close(probe);
  EXPECT_EQ(RunClient({"--cheetah"}), 0);
  daemon_.Await();
  EXPECT_TRUE(daemon_.exited_cleanly()) << daemon_.DescribeExit();

  int listings = 0;
  DIR* handle = ::opendir(dir_.c_str());
  ASSERT_NE(handle, nullptr);
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind("fds.", 0) != 0) continue;
    const std::string path = dir_ + "/" + name;
    std::string listing;
    EXPECT_TRUE(obs::ReadWholeFile(path, &listing, nullptr)) << path;
    // Lines read "<mode> ... <fd> -> <target>". Only descriptors past the
    // standard three count: those come from whoever started the daemon,
    // and under some harnesses stdin is itself a socket.
    std::istringstream lines(listing);
    for (std::string line; std::getline(lines, line);) {
      const size_t arrow = line.find(" -> socket:");
      if (arrow == std::string::npos) continue;
      EXPECT_LE(std::atoi(line.c_str() + line.rfind(' ', arrow - 1) + 1), 2)
          << line;
    }
    ++listings;
    ::unlink(path.c_str());
  }
  ::closedir(handle);
  ::unlink(wrapper.c_str());
  EXPECT_EQ(listings, 3);  // one worker per cell of the Cheetah figure
}

// An adaptive query through the fleet backend: the supervisor drives the
// rounds, and with 3 cells on 4 shards every round splits cells mid-cell
// across workers — the answer must still be the in-process bytes.
TEST_F(ServiceE2eTest, AdaptiveCheetahThroughAFourShardFleetMatchesInProcess) {
  StartDaemon({"--backend=fleet", "--worker=" LONGSTORE_SWEEP_WORKER,
               "--tmp=" + dir_, "--shards=4", "--max-parallel=2",
               "--timeout-s=120"});
  SweepSpec spec;
  SweepOptions options;
  BuildCheetahSweep(&spec, &options);
  options.adaptive = true;
  options.relative_precision = 0.015;  // forces a second round
  options.max_trials = 20000;
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document =
      ShardPlan(spec, options, /*shard_count=*/1).shards()[0].ToJson();

  const ServiceResponse cold = Roundtrip(request);
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  const SweepResult in_process = SweepRunner().Run(spec, options);
  EXPECT_EQ(cold.result_json, in_process.ToJson());
  int64_t trials = 0;
  for (const SweepCellResult& cell : in_process.cells) {
    EXPECT_GT(cell.rounds, 1) << cell.label;
    trials += cell.trials;
  }
  EXPECT_EQ(cold.new_trials, trials);
}

// The canonical MetricsSnapshot over the real socket: after a scripted
// cold-then-warm sequence the daemon's own counters must read exactly
// misses=1, exact_hits=1 — the cache accounts for itself (satellite: the
// single Lookup path), and the `metrics` request kind ships the snapshot
// without touching any result bytes.
TEST_F(ServiceE2eTest, MetricsRequestReportsTheScriptedCacheSequence) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "telemetry disabled; the snapshot would read all zeros";
  }
  StartDaemon();
  const ServiceResponse cold = Roundtrip(CheetahRequest());
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  const ServiceResponse warm = Roundtrip(CheetahRequest());
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.source, "cache");

  ServiceRequest metrics_request;
  metrics_request.kind = ServiceRequest::Kind::kMetrics;
  const ServiceResponse metrics = Roundtrip(metrics_request);
  ASSERT_TRUE(metrics.ok) << metrics.message;
  EXPECT_EQ(metrics.source, "metrics");
  ASSERT_FALSE(metrics.result_json.empty());

  const json::Value snapshot =
      json::Parse(metrics.result_json, "metrics snapshot");
  const json::Value* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr) << metrics.result_json;
  const auto counter = [&](const char* name) -> int64_t {
    const json::Value* value = counters->Find(name);
    EXPECT_NE(value, nullptr) << name;
    return value == nullptr ? -1 : static_cast<int64_t>(value->number);
  };
  EXPECT_EQ(counter("service.cache.misses"), 1);
  EXPECT_EQ(counter("service.cache.exact_hits"), 1);
  EXPECT_EQ(counter("service.cache.insertions"), 1);
  // Metrics register at their record site on first use: paths this sequence
  // never took (resume, eviction) leave no name in the snapshot at all.
  EXPECT_EQ(counters->Find("service.cache.resume_hits"), nullptr);
  EXPECT_EQ(counters->Find("service.cache.evictions"), nullptr);

  // Both sweep requests left a latency sample. The frame-size histograms
  // read exactly 2: the snapshot is taken while *this* request is still in
  // flight, and its frame is recorded only after the response is built.
  const json::Value* histograms = snapshot.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* sweep_latency = histograms->Find("service.latency_ns.sweep");
  ASSERT_NE(sweep_latency, nullptr) << metrics.result_json;
  const json::Value* latency_count = sweep_latency->Find("count");
  ASSERT_NE(latency_count, nullptr);
  EXPECT_EQ(static_cast<int64_t>(latency_count->number), 2);
  const json::Value* frames_in = histograms->Find("service.frame_bytes_in");
  ASSERT_NE(frames_in, nullptr);
  const json::Value* frames_count = frames_in->Find("count");
  ASSERT_NE(frames_count, nullptr);
  EXPECT_EQ(static_cast<int64_t>(frames_count->number), 2);

  // The real client fetches the same snapshot (exit 0, JSON on stdout).
  EXPECT_EQ(RunClient({"--metrics"}), 0);
}

// A near hit resumes on the configured backend (the parameter): in process
// on the pool, or on a 4-shard worker fleet whose first round merges onto
// the stored accumulators.
class ServiceE2eResumeTest : public ServiceE2eTest,
                             public ::testing::WithParamInterface<std::string> {};

TEST_P(ServiceE2eResumeTest, AdaptiveResumeWorksAcrossTheWire) {
  std::vector<std::string> args = {"--backend=" + GetParam()};
  if (GetParam() == "fleet") {
    args.insert(args.end(), {"--worker=" LONGSTORE_SWEEP_WORKER, "--tmp=" + dir_,
                             "--shards=4", "--max-parallel=2", "--timeout-s=120"});
  }
  StartDaemon(args);
  SweepSpec spec;
  SweepOptions options;
  BuildCheetahSweep(&spec, &options);
  options.adaptive = true;
  options.max_trials = 20000;

  const auto request_at = [&](double precision) {
    SweepOptions at = options;
    at.relative_precision = precision;
    ServiceRequest request;
    request.kind = ServiceRequest::Kind::kSweep;
    request.sweep_document =
        ShardPlan(spec, at, /*shard_count=*/1).shards()[0].ToJson();
    return request;
  };

  // At 4000 initial trials the CI is already ~3% relative: 0.1 converges in
  // round one, 0.015 forces at least one more adaptive round — so the
  // second query genuinely continues the first instead of aliasing it.
  const ServiceResponse loose = Roundtrip(request_at(0.1));
  ASSERT_TRUE(loose.ok) << loose.message;
  EXPECT_EQ(loose.source, "computed");

  const ServiceResponse tight = Roundtrip(request_at(0.015));
  ASSERT_TRUE(tight.ok) << tight.message;
  EXPECT_EQ(tight.source, "resumed");
  EXPECT_GT(tight.new_trials, 0);

  // Byte-identity of the resumed answer against the cold in-process run.
  SweepOptions cold_options = options;
  cold_options.relative_precision = 0.015;
  const SweepResult cold = SweepRunner().Run(spec, cold_options);
  EXPECT_EQ(tight.result_json, cold.ToJson());
  int64_t cold_trials = 0;
  for (const SweepCellResult& cell : cold.cells) {
    cold_trials += cell.trials;
  }
  EXPECT_LT(tight.new_trials, cold_trials);
  EXPECT_EQ(loose.new_trials + tight.new_trials, cold_trials);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceE2eResumeTest,
                         ::testing::Values(std::string("pool"), std::string("fleet")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace longstore
