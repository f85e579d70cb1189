// Evaluation backends for the frontier search: one interface, three ways to
// execute a single-shard sweep document.
//
// The byte-identity contract (src/frontier/README.md) hangs on this layer:
// the frontier builds each candidate's sweep document exactly once and hands
// the *same bytes* to whichever backend is configured. The in-process pool
// backend runs the document through the identical check/execute/finalize
// path the resident service uses (ParseSweepRequest -> RunSweepCells ->
// FinalizeSweepCells -> ToJson), so the result bytes — and therefore the
// frontier JSON assembled from them — cannot depend on which backend
// answered, and neither backend answers a document the other refuses.

#ifndef LONGSTORE_SRC_FRONTIER_EVAL_BACKEND_H_
#define LONGSTORE_SRC_FRONTIER_EVAL_BACKEND_H_

#include <cstdint>
#include <string>

#include "src/service/sweep_service.h"
#include "src/sweep/worker_pool.h"

namespace longstore {

class FrontierEvalBackend {
 public:
  struct Eval {
    // Provenance: "computed", or the service's "cache" / "resumed" when the
    // resident daemon answered without (full) simulation.
    std::string source;
    // SweepResult::ToJson bytes for the document's cells.
    std::string result_json;
    // Trials simulated to answer this request (0 on an exact cache hit).
    int64_t new_trials = 0;
  };

  virtual ~FrontierEvalBackend() = default;

  // Executes a checksummed single-shard sweep document (shard 0 of 1).
  // Throws std::runtime_error on transport/service failure and
  // std::invalid_argument on a malformed document.
  virtual Eval Evaluate(const std::string& sweep_document) = 0;
};

// In-process execution on a WorkerPool (nullptr = the process-wide shared
// pool). This is the reference backend: it checks the document with the
// service's own ParseSweepRequest, then runs the same execution core.
class PoolEvalBackend : public FrontierEvalBackend {
 public:
  explicit PoolEvalBackend(WorkerPool* pool = nullptr);
  Eval Evaluate(const std::string& sweep_document) override;

 private:
  WorkerPool& pool_;
};

// An in-process SweepService (tests, benches): exercises the real cache /
// resume classification without a socket.
class ServiceEvalBackend : public FrontierEvalBackend {
 public:
  explicit ServiceEvalBackend(SweepService& service) : service_(service) {}
  Eval Evaluate(const std::string& sweep_document) override;

 private:
  SweepService& service_;
};

// A resident sweep_serviced over its Unix-domain socket (one CallService
// exchange per evaluation, like tools/sweep_client). Repeated and refined
// searches hit the daemon's ComputeSweepId cache and adaptive-resume path
// for free.
class SocketEvalBackend : public FrontierEvalBackend {
 public:
  explicit SocketEvalBackend(std::string socket_path)
      : socket_path_(std::move(socket_path)) {}
  Eval Evaluate(const std::string& sweep_document) override;

 private:
  std::string socket_path_;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_FRONTIER_EVAL_BACKEND_H_
