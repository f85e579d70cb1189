// sweep_worker: executes one sweep shard — a trial range of each of its
// cells — and emits the raw accumulators of those trials, the worker half of
// the sharded fan-out protocol (src/shard/README.md).
//
//   sweep_worker --shard=FILE [--out=FILE] [--threads=N]
//                [--fail-mode=crash|hang|corrupt|flaky
//                 --fail-prob=P --fail-seed=S --fail-nonce=N]
//
// Reads a ShardSpec JSON document (the file "-" means stdin), runs its cells
// on this process's worker pool, and writes the ShardResult JSON to --out
// (default stdout). The result is deterministic: cell seeds derive from the
// document's seed mode, never from this process's identity, so any worker
// produces the same bytes for the same shard. --threads only caps the lanes
// used (wall clock, never results).
//
// --out is written atomically: the document goes to <out>.tmp, is fsynced,
// and only then renamed into place — a worker killed mid-write leaves no
// file at --out, never a plausible-but-truncated document for a merger to
// read. (The envelope checksum would catch the truncation anyway; atomicity
// keeps the failure at the cheaper "no output" tier.)
//
// The --fail-* flags are a deterministic fault-injection harness for
// exercising fleet supervisors (src/fleet/): with probability P — decided by
// hashing (S, shard_index, N), so a given attempt's fate is reproducible and
// retries (fresh N) draw fresh fates — the worker
//   crash:   dies dirty (SIGABRT) halfway through writing its output: to
//            <out>.tmp, which is never renamed into place, or, without
//            --out, to stdout, whose reader gets a torn document,
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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

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
      "usage: %s --shard=FILE [--out=FILE] [--threads=N]\n"
      "          [--fail-mode=crash|hang|corrupt|flaky] [--fail-prob=P]\n"
      "          [--fail-seed=S] [--fail-nonce=N]\n"
      "  --shard=FILE   shard spec JSON (\"-\" = stdin)\n"
      "  --out=FILE     write the shard result JSON here, atomically\n"
      "                 (default stdout)\n"
      "  --threads=N    cap worker-pool lanes (never changes results)\n"
      "  --metrics-out=FILE  write this process's MetricsSnapshot JSON after\n"
      "                 the shard completes (telemetry; never affects results)\n"
      "  --fail-*       deterministic fault injection for supervisor tests;\n"
      "                 the fault fires when hash(S, shard_index, N) < P\n",
      argv0);
  return 1;
}

// Thin throwing shim over the shared atomic-write path (obs::WriteFileAtomic:
// <path>.tmp, fsync, rename). Documents carry a trailing newline on disk.
void WriteFileAtomically(const std::string& path, const std::string& bytes) {
  std::string error;
  if (!longstore::obs::WriteFileAtomic(path, bytes + '\n', &error)) {
    throw std::runtime_error(error);
  }
}

// Best-effort telemetry sink: a failed snapshot write warns but never fails
// the shard — the result document is the product.
void WriteWorkerMetrics(const char* metrics_out) {
  if (metrics_out == nullptr) {
    return;
  }
  std::string error;
  if (!longstore::obs::WriteFileAtomic(
          metrics_out, longstore::obs::Registry::Global().SnapshotJson(),
          &error)) {
    std::fprintf(stderr, "sweep_worker: metrics snapshot: %s\n", error.c_str());
  }
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
  const char* out_path = nullptr;
  const char* metrics_out = nullptr;
  int threads = 0;
  FailPlan fail;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shard=", 8) == 0) {
      shard_path = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
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

    longstore::ShardSpec shard = longstore::ShardSpec::FromJson(text, shard_path);
    shard.options.mc.threads = threads;
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

    const longstore::ShardResult result = longstore::RunShard(shard);
    std::string json = result.ToJson();

    if (fail.armed && std::strcmp(fail.mode, "corrupt") == 0) {
      // Flip one byte deep in the body (past the envelope prefix), write
      // the document *atomically* and exit 0: a silent transport corruption
      // that only the merge-side checksum can detect.
      json[json.size() * 2 / 3] ^= 0x20;
      std::fprintf(stderr, "sweep_worker: injected corruption (shard %d)\n",
                   shard.shard_index);
    }

    if (fail.armed && std::strcmp(fail.mode, "crash") == 0) {
      // Die dirty halfway through the output. The atomic-rename contract
      // means --out never sees these bytes; a stdout reader sees a torn
      // document that the envelope checksum rejects.
      std::FILE* file =
          out_path == nullptr
              ? stdout
              : std::fopen((std::string(out_path) + ".tmp").c_str(), "wb");
      if (file != nullptr) {
        std::fwrite(json.data(), 1, json.size() / 2, file);
        std::fflush(file);
      }
      std::fprintf(stderr, "sweep_worker: injected crash mid-write (shard %d)\n",
                   shard.shard_index);
      std::abort();
    }

    if (out_path == nullptr) {
      const bool wrote =
          std::fwrite(json.data(), 1, json.size(), stdout) == json.size() &&
          std::fputc('\n', stdout) != EOF && std::fflush(stdout) == 0;
      if (!wrote) {
        throw std::runtime_error("failed to write the shard result");
      }
      WriteWorkerMetrics(metrics_out);
      return 0;
    }

    WriteFileAtomically(out_path, json);
    WriteWorkerMetrics(metrics_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
