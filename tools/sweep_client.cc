// sweep_client: query a running sweep_serviced daemon.
//
//   sweep_client --socket=PATH (--cheetah | --shard=FILE | --ping | --stats
//                | --metrics)
//                [--precision=P] [--max-trials=N] [--expect-source=S]
//
// Sweep selection:
//   --cheetah            the §5.4 Cheetah golden sweep (tools/figure_sweeps.h)
//                        — byte-diffable against `sweep_fleet --single
//                        --cheetah --format=json`'s cells
//   --shard=FILE         send FILE's bytes verbatim as the sweep document (a
//                        single-shard document, e.g. written by a driver);
//                        verbatim matters — the service hashes the canonical
//                        bytes, so the client must not re-serialize them
//   --precision=P        ask for adaptive stopping at relative precision P
//                        (with --cheetah; turns the golden sweep adaptive)
//   --max-trials=N       adaptive trial cap            (default 1000000)
//
// --precision must be a positive number and --max-trials a positive integer
// (tools/numeric_flags.h); anything else prints the usage and exits 1.
//
// Probes:
//   --ping / --stats     liveness / cache counters (JSON on stdout)
//   --metrics            the daemon's canonical MetricsSnapshot (JSON on
//                        stdout; see src/obs/README.md for the catalog)
//
// Output: the sweep result JSON on stdout; provenance on stderr
// ("source=cache sweep_id=0x... new_trials=0"). --expect-source=S exits 4
// when the service answered from somewhere else — the CI smoke test asserts
// cache hits this way. Exit 0 = ok, 1 = usage/transport, 2 = service error
// (3 = retryable service error), 4 = source mismatch.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "src/obs/trace.h"
#include "src/service/service_protocol.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "tools/figure_sweeps.h"
#include "tools/numeric_flags.h"

namespace longstore {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH (--cheetah | --shard=FILE | --ping | "
               "--stats | --metrics)\n"
               "  [--precision=P] [--max-trials=N] [--expect-source=S]\n",
               argv0);
  return 1;
}

int Main(int argc, char** argv) {
  std::string socket_path;
  std::string shard_file;
  std::string expect_source;
  bool cheetah = false;
  bool ping = false;
  bool stats = false;
  bool metrics = false;
  double precision = 0.0;  // 0 = not adaptive
  int64_t max_trials = 1000000;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--cheetah") == 0) {
      cheetah = true;
    } else if (std::strcmp(arg, "--ping") == 0) {
      ping = true;
    } else if (std::strcmp(arg, "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else if (MatchValueFlag(arg, "--socket", &value)) {
      socket_path = value;
    } else if (MatchValueFlag(arg, "--shard", &value)) {
      shard_file = value;
    } else if (MatchValueFlag(arg, "--precision", &value)) {
      if (!ParseDoubleFlag(value, kPositiveDouble, &precision)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--max-trials", &value)) {
      if (!ParseIntFlag(value, int64_t{1}, &max_trials)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--expect-source", &value)) {
      expect_source = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const int selections = static_cast<int>(cheetah) +
                         static_cast<int>(!shard_file.empty()) +
                         static_cast<int>(ping) + static_cast<int>(stats) +
                         static_cast<int>(metrics);
  if (socket_path.empty() || selections != 1) {
    return Usage(argv[0]);
  }

  ServiceRequest request;
  if (ping) {
    request.kind = ServiceRequest::Kind::kPing;
  } else if (stats) {
    request.kind = ServiceRequest::Kind::kStats;
  } else if (metrics) {
    request.kind = ServiceRequest::Kind::kMetrics;
  } else {
    request.kind = ServiceRequest::Kind::kSweep;
    if (!shard_file.empty()) {
      std::string error;
      if (!obs::ReadWholeFile(shard_file, &request.sweep_document, &error)) {
        throw std::runtime_error("shard file: " + error);
      }
    } else {
      SweepSpec spec;
      SweepOptions options;
      BuildCheetahSweep(&spec, &options);
      if (precision > 0.0) {
        options.adaptive = true;
        options.relative_precision = precision;
        options.max_trials = max_trials;
      }
      // A 1-shard plan *is* the whole-sweep document the service expects.
      request.sweep_document =
          ShardPlan(spec, options, /*shard_count=*/1).shards()[0].ToJson();
    }
  }

  // A transport failure throws, and main answers it with exit 1.
  const ServiceResponse response = CallService(socket_path, request);
  if (!response.ok) {
    std::fprintf(stderr, "sweep_client: service error (%s): %s\n",
                 response.retryable ? "retryable" : "permanent",
                 response.message.c_str());
    return response.retryable ? 3 : 2;
  }
  std::fprintf(stderr, "source=%s sweep_id=0x%016llx new_trials=%lld\n",
               response.source.c_str(),
               static_cast<unsigned long long>(response.sweep_id),
               static_cast<long long>(response.new_trials));
  if (!response.result_json.empty()) {
    std::printf("%s\n", response.result_json.c_str());
  }
  if (!expect_source.empty() && response.source != expect_source) {
    std::fprintf(stderr, "sweep_client: expected source=%s, got %s\n",
                 expect_source.c_str(), response.source.c_str());
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  try {
    return longstore::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_client: %s\n", e.what());
    return 1;
  }
}
