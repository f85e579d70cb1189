// sweep_worker: executes one sweep shard — a trial range of each of its
// cells — and emits the raw accumulators of those trials, the worker half of
// the sharded fan-out protocol (src/shard/README.md).
//
//   sweep_worker --shard=FILE [--metrics-out=-] [--threads=N]
//                [--fail-mode=crash|hang|corrupt|flaky
//                 --fail-prob=P --fail-seed=S --fail-nonce=N]
//
// Reads a ShardSpec JSON document (the file "-" means stdin), runs its cells
// on this process's worker pool, and writes the ShardResult JSON to stdout
// as one line. The result is deterministic: cell seeds derive from the
// document's seed mode, never from this process's identity, so any worker
// produces the same bytes for the same shard. --threads sizes the worker
// pool (0, the default, is one thread per core): wall clock, never results.
// --metrics-out=- puts this process's MetricsSnapshot JSON on stdout as the
// line after the result, once the shard completes; "-" is its only value.
// That is how the fleet supervisor (src/fleet/) collects both: over its pipe
// on the worker's stdout.
//
// A worker killed mid-write leaves a torn line, never a whole document: its
// exit status fails it first, and the envelope (length + FNV-1a) rejects the
// bytes for any reader that ignores the status.
//
// The --fail-* flags are a deterministic fault-injection harness for
// exercising fleet supervisors (src/fleet/): with probability P — decided by
// hashing (S, shard_index, N), so a given attempt's fate is reproducible and
// retries (fresh N) draw fresh fates — the worker
//   crash:   dies dirty (SIGABRT) halfway through writing its result to
//            stdout, whose reader gets a torn document,
//   hang:    sleeps forever before running (exercises timeout + SIGKILL),
//   corrupt: flips one byte of the finished document and exits 0 — silent
//            corruption only the envelope checksum can catch,
//   flaky:   exits 1 cleanly before running.
// Compiled in but inert by default (no --fail-mode = no injection, zero
// cost); never set in production drivers.
//
// Exit status: 0 on success, 1 on any error (malformed shard, invalid
// scenario, I/O failure), with a one-line diagnostic on stderr — shard
// drivers treat a non-zero worker as a failed shard and may reassign it.
// Numeric flags are parsed strictly (tools/numeric_flags.h): a value that
// is not wholly a number in range ("abc", "3x", a negative --threads or
// --fail-seed, a --fail-prob outside [0, 1] or NaN) prints the usage and
// exits 1.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"
#include "src/sweep/worker_pool.h"
#include "src/util/random.h"
#include "tools/numeric_flags.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard=FILE [--metrics-out=-] [--threads=N]\n"
      "          [--fail-mode=crash|hang|corrupt|flaky] [--fail-prob=P]\n"
      "          [--fail-seed=S] [--fail-nonce=N]\n"
      "  --shard=FILE   shard spec JSON (\"-\" = stdin); the result JSON goes\n"
      "                 to stdout as one line\n"
      "  --threads=N    worker-pool threads, 0 = one per core (never changes\n"
      "                 results)\n"
      "  --metrics-out=-  after the shard completes, write this process's\n"
      "                 MetricsSnapshot JSON to stdout as the line after the\n"
      "                 result (telemetry; never affects results)\n"
      "  --fail-*       deterministic fault injection for supervisor tests;\n"
      "                 the fault fires when hash(S, shard_index, N) < P\n",
      argv0);
  return 1;
}

// Writes all of `bytes` to stdout in as few write calls as the pipe takes,
// so a reader sees the whole answer at once; false on failure.
bool WriteStdout(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(STDOUT_FILENO, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

struct FailPlan {
  const char* mode = nullptr;  // nullptr = no injection
  double prob = 1.0;
  uint64_t seed = 0;
  uint64_t nonce = 0;
  bool armed = false;  // decided once the shard_index is known
};

// The injection decision: a pure function of (seed, shard_index, nonce), so
// a test that fixes the seeds knows exactly which attempts fail and how.
bool DecideFault(const FailPlan& plan, int shard_index) {
  const uint64_t draw = longstore::DeriveSeed(
      longstore::DeriveSeed(plan.seed, static_cast<uint64_t>(shard_index)),
      plan.nonce);
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return u < plan.prob;
}

}  // namespace

int main(int argc, char** argv) {
  const char* shard_path = nullptr;
  bool metrics_to_stdout = false;
  int threads = 0;
  FailPlan fail;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shard=", 8) == 0) {
      shard_path = arg + 8;
    } else if (std::strcmp(arg, "--metrics-out=-") == 0) {
      metrics_to_stdout = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!longstore::ParseIntFlag(arg + 10, 0, &threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fail-mode=", 12) == 0) {
      fail.mode = arg + 12;
      if (std::strcmp(fail.mode, "crash") != 0 && std::strcmp(fail.mode, "hang") != 0 &&
          std::strcmp(fail.mode, "corrupt") != 0 &&
          std::strcmp(fail.mode, "flaky") != 0) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fail-prob=", 12) == 0) {
      if (!longstore::ParseDoubleFlag(arg + 12, 0.0, &fail.prob) ||
          fail.prob > 1.0) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fail-seed=", 12) == 0) {
      if (!longstore::ParseUint64Flag(arg + 12, &fail.seed)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fail-nonce=", 13) == 0) {
      if (!longstore::ParseUint64Flag(arg + 13, &fail.nonce)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (shard_path == nullptr) {
    return Usage(argv[0]);
  }

  try {
    std::string text;
    std::string error;
    if (!longstore::obs::ReadWholeFile(
            std::strcmp(shard_path, "-") == 0 ? "/dev/stdin" : shard_path, &text,
            &error)) {
      throw std::runtime_error("shard file: " + error);
    }

    const longstore::ShardSpec shard =
        longstore::ShardSpec::FromJson(text, shard_path);
    fail.armed = fail.mode != nullptr && DecideFault(fail, shard.shard_index);

    if (fail.armed && std::strcmp(fail.mode, "flaky") == 0) {
      std::fprintf(stderr, "sweep_worker: injected flaky failure (shard %d)\n",
                   shard.shard_index);
      return 1;
    }
    if (fail.armed && std::strcmp(fail.mode, "hang") == 0) {
      std::fprintf(stderr, "sweep_worker: injected hang (shard %d)\n",
                   shard.shard_index);
      for (;;) {
        ::sleep(3600);
      }
    }

    longstore::WorkerPool pool(threads);
    const longstore::ShardResult result = longstore::RunShard(shard, &pool);
    std::string json = result.ToJson();

    if (fail.armed && std::strcmp(fail.mode, "corrupt") == 0) {
      // Flip one byte deep in the body (past the envelope prefix), write
      // the whole document to stdout as usual and exit 0: a silent
      // transport corruption that only the merge-side checksum can detect.
      json[json.size() * 2 / 3] ^= 0x20;
      std::fprintf(stderr, "sweep_worker: injected corruption (shard %d)\n",
                   shard.shard_index);
    }

    if (fail.armed && std::strcmp(fail.mode, "crash") == 0) {
      // Die dirty halfway through the output: the reader gets a torn
      // document, which the envelope checksum rejects.
      WriteStdout(std::string_view(json).substr(0, json.size() / 2));
      std::fprintf(stderr, "sweep_worker: injected crash mid-write (shard %d)\n",
                   shard.shard_index);
      std::abort();
    }

    // The whole answer leaves in one write: the result line, then, with
    // --metrics-out=-, the snapshot line.
    std::string answer = json + '\n';
    if (metrics_to_stdout) {
      answer += longstore::obs::Registry::Global().SnapshotJson() + '\n';
    }
    if (!WriteStdout(answer)) {
      throw std::runtime_error("failed to write to stdout");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
