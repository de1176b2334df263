// Verification job requests: the icbdd-svc-v1 request half.
//
// A request is one JSON object per line (parsed with obs/jsonl, the same
// reader the trace tooling uses), naming a model, an engine method, and the
// resource / checkpoint knobs a service caller may set:
//
//   {"id":"fifo-1","model":"fifo","method":"xici","size":4,"width":8,
//    "inject_bug":false,"with_assists":true,"deadline_seconds":30,
//    "max_nodes":1000000,"max_iterations":200,"checkpoint_every":4,
//    "resume":true,"auto_reorder":false}
//
// Only "id" and "model" are required.  docs/service.md documents every
// field.  The same parser backs VerifyService::submitLine and the doctor's
// --job flag, so the schema cannot drift from what the service accepts.
#pragma once

#include <string>

#include "bdd/options.hpp"
#include "obs/jsonl.hpp"
#include "verif/run_all.hpp"

namespace icb::svc {

struct JobRequest {
  std::string id;               ///< [A-Za-z0-9._-], at most 64 chars
  std::string model;            ///< fifo|mutex|network|filter|pipeline
  Method method = Method::kXici;
  unsigned size = 0;            ///< model size knob (depth/cells/...); 0 = default
  unsigned width = 0;           ///< model width knob where it has one; 0 = default
  bool injectBug = false;
  bool withAssists = false;
  bool wantTrace = true;
  double deadlineSeconds = 0.0;     ///< 0 = service default / unlimited
  std::uint64_t maxNodes = 0;       ///< 0 = unlimited
  unsigned maxIterations = 0;       ///< 0 = engine default
  unsigned checkpointEvery = 0;     ///< 0 = service default
  bool resume = false;              ///< pick up this id's journaled checkpoint
  bool autoReorder = false;
  double reorderTrigger = 0.0;      ///< 0 = BddOptions default
};

/// True when `id` is usable as a job id (and hence a journal file stem):
/// 1..64 characters from [A-Za-z0-9._-], not starting with a dot.
[[nodiscard]] bool validJobId(const std::string& id);

/// Parses one request object.  Throws std::invalid_argument on a missing or
/// malformed field, or on a field of a removed feature ("apply_workers",
/// "spill"); the message is safe to echo back in a job_rejected.  Other
/// unknown fields are ignored.
[[nodiscard]] JobRequest parseJobRequest(const obs::JsonValue& request);

/// Manager options implied by the request's reorder knobs.
[[nodiscard]] BddOptions bddOptionsFor(const JobRequest& request);

/// Engine options implied by the request (checkpoint hooks and the
/// service-level deadline clamp are layered on by VerifyService).
[[nodiscard]] EngineOptions engineOptionsFor(const JobRequest& request);

/// Builds the requested model in `mgr`.  Throws std::invalid_argument on an
/// unknown model name.
[[nodiscard]] ModelInstance buildJobModel(BddManager& mgr,
                                          const JobRequest& request);

}  // namespace icb::svc
