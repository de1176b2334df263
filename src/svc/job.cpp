#include "svc/job.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "models/avg_filter.hpp"
#include "models/mutex_ring.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"
#include "models/typed_fifo.hpp"

namespace icb::svc {

namespace {

/// Reads an optional non-negative integer field, rejecting fractions and
/// wrong-typed values (a silently truncated "4.5" would run the wrong job).
unsigned uintField(const obs::JsonValue& request, const char* name,
                   unsigned def) {
  const obs::JsonValue* v = request.find(name);
  if (v == nullptr) return def;
  if (v->kind != obs::JsonValue::Kind::kNumber || v->number < 0 ||
      v->number != std::floor(v->number)) {
    throw std::invalid_argument(std::string(name) +
                                " must be a non-negative integer");
  }
  return static_cast<unsigned>(v->number);
}

std::uint64_t u64Field(const obs::JsonValue& request, const char* name,
                       std::uint64_t def) {
  const obs::JsonValue* v = request.find(name);
  if (v == nullptr) return def;
  if (v->kind != obs::JsonValue::Kind::kNumber || v->number < 0 ||
      v->number != std::floor(v->number)) {
    throw std::invalid_argument(std::string(name) +
                                " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->number);
}

double doubleField(const obs::JsonValue& request, const char* name,
                   double def) {
  const obs::JsonValue* v = request.find(name);
  if (v == nullptr) return def;
  if (v->kind != obs::JsonValue::Kind::kNumber || v->number < 0) {
    throw std::invalid_argument(std::string(name) +
                                " must be a non-negative number");
  }
  return v->number;
}

bool boolField(const obs::JsonValue& request, const char* name, bool def) {
  const obs::JsonValue* v = request.find(name);
  if (v == nullptr) return def;
  if (v->kind != obs::JsonValue::Kind::kBool) {
    throw std::invalid_argument(std::string(name) + " must be a boolean");
  }
  return v->boolean;
}

}  // namespace

bool validJobId(const std::string& id) {
  if (id.empty() || id.size() > 64 || id.front() == '.') return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

JobRequest parseJobRequest(const obs::JsonValue& request) {
  if (request.kind != obs::JsonValue::Kind::kObject) {
    throw std::invalid_argument("request must be a JSON object");
  }
  // Fields of removed features are rejected rather than dropped: ignoring
  // "spill": true would quietly turn a job that completed beyond its node
  // cap into a node-limit verdict.
  for (const char* removed : {"apply_workers", "spill"}) {
    if (request.find(removed) != nullptr) {
      throw std::invalid_argument(std::string("field '") + removed +
                                  "' is no longer supported");
    }
  }
  JobRequest req;
  const obs::JsonValue* id = request.find("id");
  if (id == nullptr || id->kind != obs::JsonValue::Kind::kString) {
    throw std::invalid_argument("missing required string field 'id'");
  }
  req.id = id->text;
  if (!validJobId(req.id)) {
    throw std::invalid_argument(
        "id must be 1-64 chars of [A-Za-z0-9._-], not starting with '.'");
  }
  const obs::JsonValue* model = request.find("model");
  if (model == nullptr || model->kind != obs::JsonValue::Kind::kString) {
    throw std::invalid_argument("missing required string field 'model'");
  }
  req.model = model->text;

  if (const obs::JsonValue* method = request.find("method")) {
    if (method->kind != obs::JsonValue::Kind::kString) {
      throw std::invalid_argument("method must be a string");
    }
    req.method = parseMethod(method->text);  // throws invalid_argument
  }

  req.size = uintField(request, "size", 0);
  req.width = uintField(request, "width", 0);
  req.injectBug = boolField(request, "inject_bug", false);
  req.withAssists = boolField(request, "with_assists", false);
  req.wantTrace = boolField(request, "want_trace", true);
  req.deadlineSeconds = doubleField(request, "deadline_seconds", 0.0);
  req.maxNodes = u64Field(request, "max_nodes", 0);
  req.maxIterations = uintField(request, "max_iterations", 0);
  req.checkpointEvery = uintField(request, "checkpoint_every", 0);
  req.resume = boolField(request, "resume", false);
  req.autoReorder = boolField(request, "auto_reorder", false);
  req.reorderTrigger = doubleField(request, "reorder_trigger", 0.0);
  return req;
}

BddOptions bddOptionsFor(const JobRequest& request) {
  BddOptions options;
  options.autoReorder = request.autoReorder;
  if (request.reorderTrigger > 0.0) {
    options.reorderTrigger = request.reorderTrigger;
  }
  return options;
}

EngineOptions engineOptionsFor(const JobRequest& request) {
  EngineOptions options;
  options.withAssists = request.withAssists;
  options.wantTrace = request.wantTrace;
  options.maxNodes = request.maxNodes;
  if (request.maxIterations != 0) options.maxIterations = request.maxIterations;
  options.timeLimitSeconds = request.deadlineSeconds;
  return options;
}

ModelInstance buildJobModel(BddManager& mgr, const JobRequest& request) {
  const unsigned size = request.size;
  const unsigned width = request.width;
  ModelInstance out;
  if (request.model == "fifo") {
    auto m = std::make_shared<TypedFifoModel>(
        mgr, TypedFifoConfig{size != 0 ? size : 3, width != 0 ? width : 4,
                             request.injectBug});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (request.model == "mutex") {
    auto m = std::make_shared<MutexRingModel>(
        mgr, MutexRingConfig{size != 0 ? size : 3, request.injectBug});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (request.model == "network") {
    auto m = std::make_shared<NetworkModel>(
        mgr, NetworkConfig{size != 0 ? size : 3, request.injectBug});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (request.model == "filter") {
    auto m = std::make_shared<AvgFilterModel>(
        mgr, AvgFilterConfig{size != 0 ? size : 2, width != 0 ? width : 4,
                             request.injectBug});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (request.model == "pipeline") {
    auto m = std::make_shared<PipelineCpuModel>(
        mgr, PipelineCpuConfig{size != 0 ? size : 2, width != 0 ? width : 1,
                               request.injectBug});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else {
    throw std::invalid_argument(
        "unknown model '" + request.model +
        "' (fifo|mutex|network|filter|pipeline)");
  }
  return out;
}

}  // namespace icb::svc
