// sweep_serviced: the resident sweep service daemon. Holds a warm worker
// pool (or a supervised sweep_worker fleet) and a CanonicalHash-keyed result
// cache across requests, so repeated figure queries cost one cache lookup
// instead of one Monte Carlo campaign — and near-miss queries (same sweep,
// tighter precision) resume from stored accumulator state instead of
// restarting.
//
//   sweep_serviced (--socket=PATH | --stdio) [options]
//
// Transport:
//   --socket=PATH        listen on a Unix-domain stream socket (unlinks a
//                        stale PATH first); one connection served at a time,
//                        frames answered in order; a connection whose
//                        request frame takes longer than
//                        kConnectionDeadlineSeconds to arrive, or that stops
//                        reading its reply for that long, is dropped
//   --stdio              serve frames on stdin/stdout (single supervised
//                        instance, e.g. under a test harness)
//
// Execution backend:
//   --backend=pool|fleet pool (default): every sweep runs on this process's
//                        warm WorkerPool. fleet: every sweep, cold or
//                        resumed, runs on a supervised sweep_worker fleet
//                        (a resume's first round merges onto the cached
//                        accumulators)
//   --worker=PATH        sweep_worker binary          (fleet backend)
//   --tmp=DIR            fleet scratch directory      (fleet backend)
//   --shards=K --max-parallel=N --threads=N --timeout-s=T
//                        forwarded to the fleet supervisor (K, N >= 1;
//                        threads >= 0, 0 = every core; T >= 0 seconds,
//                        0 = no timeout)
//
// Service:
//   --cache-capacity=N   LRU entries held             (default 64)
//   --max-requests=N     exit cleanly after N requests (tests; 0 = forever)
//
// Numeric flags are parsed strictly (tools/numeric_flags.h): a value that is
// not wholly a number, or lies outside its range, is a usage error.
//
// Telemetry (out-of-band; never changes a response byte):
//   --metrics-out=FILE   write the canonical MetricsSnapshot JSON at
//                        shutdown (atomic tmp/fsync/rename); live clients
//                        fetch the same snapshot with a `metrics` request
//   --trace-out=FILE     write the request/fleet trace journal (JSONL)
//
// Protocol: length-prefixed frames ("<len>\n<payload>") carrying checksummed
// service documents — src/service/README.md. Every malformed request gets a
// structured error response; a malformed *frame* ends that connection (the
// byte stream cannot be resynchronized). SIGINT/SIGTERM exit the accept
// loop cleanly. Exit 0 = clean shutdown, 1 = startup/transport error.

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/service_protocol.h"
#include "src/service/sweep_service.h"
#include "tools/numeric_flags.h"

namespace longstore {
namespace {

volatile sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket=PATH | --stdio) [--backend=pool|fleet]\n"
               "  [--worker=PATH] [--tmp=DIR] [--shards=K] [--max-parallel=N]\n"
               "  [--threads=N] [--timeout-s=T] [--cache-capacity=N]\n"
               "  [--max-requests=N] [--metrics-out=FILE] [--trace-out=FILE]\n",
               argv0);
  return 1;
}

// Best-effort telemetry sinks at shutdown; failures warn, never fail the
// daemon's exit status.
void WriteTelemetry(const std::string& metrics_out, obs::TraceJournal& journal) {
  std::string error;
  if (!journal.Flush(&error)) {
    std::fprintf(stderr, "[serviced] trace journal: %s\n", error.c_str());
  }
  if (!metrics_out.empty() &&
      !obs::WriteFileAtomic(metrics_out,
                            obs::Registry::Global().SnapshotJson(), &error)) {
    std::fprintf(stderr, "[serviced] metrics snapshot: %s\n", error.c_str());
  }
}

// Serves every frame arriving on `fd` (responses to `out_fd`) until EOF, a
// malformed or late frame, or the request budget runs out; each frame must
// arrive within `deadline_seconds` (0: no bound). Returns false when the
// daemon should stop accepting.
bool ServeStream(SweepService& service, int fd, int out_fd, int deadline_seconds,
                 long max_requests, long* served) {
  std::string payload;
  std::string frame_error;
  while (g_stop == 0) {
    const FrameStatus status =
        ReadFrame(fd, &payload, &frame_error, deadline_seconds);
    if (status == FrameStatus::kEof) {
      return true;
    }
    if (status == FrameStatus::kMalformed) {
      std::fprintf(stderr, "[serviced] dropping connection: %s\n",
                   frame_error.c_str());
      return true;
    }
    const std::string response =
        service.HandleRequestBytes(payload, "service connection");
    if (!WriteFrame(out_fd, response)) {
      std::fprintf(stderr, "[serviced] dropping connection: %s mid-response\n",
                   errno == EAGAIN || errno == EWOULDBLOCK ? "send timed out"
                                                           : "peer vanished");
      return true;
    }
    ++*served;
    if (max_requests > 0 && *served >= max_requests) {
      std::fprintf(stderr, "[serviced] request budget reached, exiting\n");
      return false;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  std::string socket_path;
  bool stdio = false;
  std::string backend = "pool";
  long cache_capacity = 64;
  long max_requests = 0;
  std::string metrics_out;
  std::string trace_out;

  ServiceOptions options;
  options.fleet.shard_count = 3;
  options.fleet.max_parallel = 2;
  options.fleet.timeout_seconds = 120.0;
  options.fleet.log = stderr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--stdio") == 0) {
      stdio = true;
    } else if (MatchValueFlag(arg, "--socket", &value)) {
      socket_path = value;
    } else if (MatchValueFlag(arg, "--backend", &value)) {
      backend = value;
      if (backend != "pool" && backend != "fleet") {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--worker", &value)) {
      options.fleet.worker_path = value;
    } else if (MatchValueFlag(arg, "--tmp", &value)) {
      options.fleet.temp_dir = value;
    } else if (MatchValueFlag(arg, "--shards", &value)) {
      if (!ParseIntFlag(value, 1, &options.fleet.shard_count)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--max-parallel", &value)) {
      if (!ParseIntFlag(value, 1, &options.fleet.max_parallel)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--threads", &value)) {
      if (!ParseIntFlag(value, 0, &options.fleet.worker_threads)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--timeout-s", &value)) {
      if (!ParseDoubleFlag(value, 0.0, &options.fleet.timeout_seconds)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--cache-capacity", &value)) {
      if (!ParseIntFlag(value, 1L, &cache_capacity)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--max-requests", &value)) {
      if (!ParseIntFlag(value, 0L, &max_requests)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else if (MatchValueFlag(arg, "--trace-out", &value)) {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (stdio == !socket_path.empty()) {  // exactly one transport
    return Usage(argv[0]);
  }
  if (backend == "fleet" &&
      (options.fleet.worker_path.empty() || options.fleet.temp_dir.empty())) {
    std::fprintf(stderr,
                 "%s: --backend=fleet requires --worker=PATH and --tmp=DIR\n",
                 argv[0]);
    return 1;
  }
  options.backend = backend == "fleet" ? ServiceOptions::Backend::kFleet
                                       : ServiceOptions::Backend::kPool;
  options.cache_capacity = static_cast<size_t>(cache_capacity);

  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished peer is a log line, not a death

  // One journal carries both the request lifecycle events (service) and the
  // fleet backend's unit transitions, in emission order.
  obs::TraceJournal journal;
  journal.Open(trace_out);
  options.journal = &journal;
  options.fleet.journal = &journal;

  SweepService service(options);
  long served = 0;

  if (stdio) {
    ServeStream(service, STDIN_FILENO, STDOUT_FILENO, /*deadline_seconds=*/0,
                max_requests, &served);
    WriteTelemetry(metrics_out, journal);
    return 0;
  }

  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "%s: socket path too long: %s\n", argv[0],
                 socket_path.c_str());
    return 1;
  }
  // Close-on-exec, here and on accept: a fleet worker holding the listener
  // or a client's connection would keep that client from seeing EOF when
  // this daemon dies, until every orphaned worker exits.
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  ::unlink(socket_path.c_str());  // a stale socket from a dead daemon
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror(socket_path.c_str());
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "[serviced] listening on %s (backend=%s)\n",
               socket_path.c_str(), backend.c_str());

  bool keep_going = true;
  while (keep_going && g_stop == 0) {
    const int conn = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;  // g_stop decides
      }
      std::perror("accept");
      break;
    }
    const timeval send_deadline = {kConnectionDeadlineSeconds, 0};
    if (::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &send_deadline,
                     sizeof(send_deadline)) != 0) {
      std::perror("setsockopt");
      ::close(conn);
      continue;
    }
    keep_going = ServeStream(service, conn, conn, kConnectionDeadlineSeconds,
                             max_requests, &served);
    ::close(conn);
  }
  ::close(listener);
  ::unlink(socket_path.c_str());
  WriteTelemetry(metrics_out, journal);
  std::fprintf(stderr, "[serviced] served %ld request(s), shutting down\n",
               served);
  return 0;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  try {
    return longstore::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_serviced: %s\n", e.what());
    return 1;
  }
}
