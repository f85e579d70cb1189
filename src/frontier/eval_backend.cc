#include "src/frontier/eval_backend.h"

#include <stdexcept>
#include <utility>

#include "src/service/service_protocol.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

ServiceRequest SweepRequest(const std::string& sweep_document) {
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = sweep_document;
  return request;
}

FrontierEvalBackend::Eval EvalFromResponse(ServiceResponse response) {
  if (!response.ok) {
    throw std::runtime_error("frontier eval: service error" +
                             std::string(response.retryable ? " (retryable)" : "") +
                             ": " + response.message);
  }
  FrontierEvalBackend::Eval eval;
  eval.source = std::move(response.source);
  eval.result_json = std::move(response.result_json);
  eval.new_trials = response.new_trials;
  return eval;
}

}  // namespace

PoolEvalBackend::PoolEvalBackend(WorkerPool* pool)
    : pool_(pool != nullptr ? *pool : WorkerPool::Shared()) {}

FrontierEvalBackend::Eval PoolEvalBackend::Evaluate(
    const std::string& sweep_document) {
  // The service's compute path: the same request check, execution core and
  // finalizer, so the bytes cannot differ from a service answer.
  ShardSpec spec = ParseSweepRequest(sweep_document, "frontier eval");
  const SweepResult result = FinalizeSweepCells(
      RunSweepCells(pool_, std::move(spec.cells), spec.options),
      spec.axis_names, spec.options.estimand, spec.options.mc.confidence);
  Eval eval;
  eval.source = "computed";
  eval.result_json = result.ToJson();
  eval.new_trials = result.TotalTrials();
  return eval;
}

FrontierEvalBackend::Eval ServiceEvalBackend::Evaluate(
    const std::string& sweep_document) {
  return EvalFromResponse(service_.Handle(SweepRequest(sweep_document)));
}

FrontierEvalBackend::Eval SocketEvalBackend::Evaluate(
    const std::string& sweep_document) {
  return EvalFromResponse(CallService(socket_path_, SweepRequest(sweep_document)));
}

}  // namespace longstore
