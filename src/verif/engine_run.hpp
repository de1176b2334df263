// The run protocol the paper holds all five engines to (Fwd, Bkwd, FD, ICI,
// XICI): the same resource caps and capped verdicts, the same iteration
// span, arena audit and reorder safe point, the same checkpoint cadence, and
// the same time / iterations / peak-node / memory report per cell.  Each
// engine keeps only its own state and loop and drives one EngineRun:
//
//   return runEngine(fsm, Method::kFwd, options, [&](EngineRun& run) {
//     ... build the initial state, or restore it from run.resume(...);
//     while (true) {
//       run.trackPeak(iterate);
//       ICBDD_SAFE_POINT("...");
//       if (run.checkpointDue()) run.emitCheckpoint(lists);
//       ... violation check: set the verdict and break;
//       if (!run.beginStep("image")) break;   // iteration cap
//       ... one image step;
//       ICBDD_SAFE_POINT("...");
//       run.endStep("image", sizes);
//       ... convergence test: set kHolds and break;
//     }
//   });
//
// runEngine holds the only catch of ResourceLimitError: a body cut short by
// a cap ends with the capped verdict, never with an exception.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "ici/conjunct_list.hpp"
#include "obs/trace.hpp"
#include "sym/fsm.hpp"
#include "util/timer.hpp"
#include "verif/checkpoint.hpp"
#include "verif/engine.hpp"
#include "verif/limit_guard.hpp"

namespace icb {

class EngineRun {
 public:
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  [[nodiscard]] obs::TraceSession& trace() { return trace_; }
  [[nodiscard]] EngineResult& result() { return result_; }
  /// Completed iterations, continuing from a resumed snapshot's count.
  [[nodiscard]] unsigned iterations() const { return result_.iterations; }

  /// The snapshot to continue from, or null for a fresh run.  Throws
  /// BddUsageError when it was taken by another method or `layoutOk`
  /// rejects its lists; otherwise the iteration count continues from it.
  const EngineSnapshot* resume(bool (*layoutOk)(const EngineSnapshot&));

  /// resume() for the layered snapshot of ICI and XICI (lists[0] = g0's
  /// members, lists[1..] = the layers, oldest first): false on a fresh run,
  /// else restores `g0` and `layers` and returns true.
  bool resumeLayers(ConjunctList& g0, std::vector<ConjunctList>& layers);

  /// True when this iteration's snapshot is wanted (the every-N cadence,
  /// skipping the iteration the run resumed at).
  [[nodiscard]] bool checkpointDue() const {
    return ckpt_.due(result_.iterations);
  }
  /// Emits this iteration's snapshot.  Call only at an ICBDD_SAFE_POINT.
  void emitCheckpoint(std::vector<std::vector<Bdd>> lists,
                      std::vector<std::uint64_t> numbers = {});

  /// Records the iterate's size (the paper's "BDD Nodes" column); a list
  /// also records its member sizes when it sets a new peak.
  void trackPeak(const Bdd& iterate);
  void trackPeak(const ConjunctList& iterate);

  /// The backward engines' violation check on the newest layer, member by
  /// member (S not inside L[j]).  On a violation sets the verdict, builds
  /// the counterexample when wanted, and returns true.
  bool violatedAt(const std::vector<ConjunctList>& layers);

  /// Opens the next iteration's span, or sets kIterationLimit and returns
  /// false when the iteration cap is reached.
  bool beginStep(std::string_view phase);

  /// Completes the iteration: counts it, audits the arena at kFull, closes
  /// the span with the iterate sizes `sizes()` (called only when tracing),
  /// then lets the manager reorder.  Call only at an ICBDD_SAFE_POINT.
  void endStep(std::string_view phase,
               const std::function<std::vector<std::uint64_t>()>& sizes);

  /// Closes the open span without completing the iteration: the step is
  /// redone under the same iteration number.
  void abandonStep(std::string_view phase);

  /// Runs `body` under one EngineRun: the capped verdict for a body cut
  /// short by a ResourceLimitError, then the epilogue (time, peak allocated
  /// nodes, memory, BDD metrics, the closing run span).
  friend EngineResult runEngine(Fsm& fsm, Method method,
                                const EngineOptions& options,
                                const std::function<void(EngineRun&)>& body);

 private:
  /// The prologue: validates the machine, installs the caps, resets the
  /// manager's statistics, opens the trace run span and starts the clock.
  EngineRun(Fsm& fsm, Method method, const EngineOptions& options);

  Fsm& fsm_;
  BddManager& mgr_;
  const EngineOptions& options_;
  EngineResult result_;
  Stopwatch watch_;
  LimitGuard guard_;
  obs::TraceSession trace_;
  CheckpointEmitter ckpt_;
};

EngineResult runEngine(Fsm& fsm, Method method, const EngineOptions& options,
                       const std::function<void(EngineRun&)>& body);

/// Flattens g0 and the layers into the layered snapshot lists that
/// EngineRun::resumeLayers restores.
[[nodiscard]] std::vector<std::vector<Bdd>> layeredLists(
    const ConjunctList& g0, const std::vector<ConjunctList>& layers);

}  // namespace icb
