// Shared types for the five verification engines the paper compares:
//   Fwd   conventional forward traversal,
//   Bkwd  conventional (monolithic) backward traversal,
//   FD    forward traversal exploiting functional dependencies [16],
//   ICI   backward traversal with the original CAV'93 implicit-conjunction
//         heuristics [17],
//   XICI  ICI extended with this paper's evaluation/simplification policy
//         and exact termination test.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "ici/evaluate_policy.hpp"
#include "ici/termination.hpp"
#include "obs/metrics.hpp"
#include "sym/image.hpp"

namespace icb {

namespace obs {
class TraceSink;
}  // namespace obs

enum class Verdict {
  kHolds,           ///< fixpoint reached, property holds in all reachable states
  kViolated,        ///< counterexample found
  kNodeLimit,       ///< paper's "Exceeded 60MB."
  kTimeLimit,       ///< paper's "Exceeded 40 minutes."
  kIterationLimit,  ///< safety valve (inexact termination tests can miss)
};

[[nodiscard]] const char* verdictName(Verdict v);
[[nodiscard]] bool verdictExceeded(Verdict v);

/// Verdict for a run cut short by a ResourceLimitError: node-capacity kinds
/// (the configured cap and the 27-bit index-space ceiling) report kNodeLimit,
/// everything else kTimeLimit.  Shared by every engine's catch block.
[[nodiscard]] constexpr Verdict verdictForResourceLimit(ResourceKind kind) {
  return kind == ResourceKind::kNodes || kind == ResourceKind::kNodeIndexSpace
             ? Verdict::kNodeLimit
             : Verdict::kTimeLimit;
}

enum class Method { kFwd, kBkwd, kFd, kIci, kXici };

[[nodiscard]] const char* methodName(Method m);

/// Engine state captured at an iteration boundary (the reorder-safe point),
/// sufficient to resume the run as if it had never stopped.  The layout of
/// `lists` / `numbers` is engine-specific:
///   Fwd   lists[0] = {reached}, lists[1] = rings
///   Bkwd  lists[0] = {g0}, lists[1] = per-iteration g's, oldest first
///   ICI   lists[0] = g0 members, lists[1..] = layers G_i, oldest first
///   XICI  lists[0] = g0 members, lists[1..] = layers G_i, oldest first
///   FD    lists[0] = {reduced}, lists[1] = dependency functions h_j;
///         numbers = the matching dependent state-bit indices
/// g0 is stored rather than recomputed because its simplified form depends
/// on the variable order at the time it was built; everything else an engine
/// needs (the ICI signature set, the FD independent-bit set, ...) is rebuilt
/// deterministically from the restored lists, so a resumed run replays the
/// uninterrupted run exactly.
struct EngineSnapshot {
  Method method = Method::kFwd;
  unsigned iteration = 0;
  std::vector<std::vector<Bdd>> lists;
  std::vector<std::uint64_t> numbers;
};

/// Periodic checkpointing, hooked into each engine's iteration boundary
/// (right where autoReorderIfNeeded runs: no edge-level results live).
struct CheckpointOptions {
  /// Snapshot every N completed iterations.  0 disables checkpointing.
  unsigned everyIterations = 0;
  /// Receives each snapshot.  Wall time spent inside the sink is credited
  /// back to the manager's deadline, so checkpoint I/O cannot flip a run
  /// into a spurious time-limit verdict.
  std::function<void(const EngineSnapshot&)> sink;
  /// When non-null, the engine restores this state instead of starting
  /// fresh.  Must have been captured by the same method on the same model
  /// with the same options; `EngineResult::iterations` continues from
  /// `resume->iteration`.
  const EngineSnapshot* resume = nullptr;
};

struct EngineOptions {
  /// Node-count cap (manager-wide).  0 = unlimited.
  std::uint64_t maxNodes = 0;
  /// Wall-clock cap in seconds.  0 = unlimited.
  double timeLimitSeconds = 0.0;
  /// Iteration cap.
  unsigned maxIterations = 100000;
  /// Include the model's user-supplied assisting invariants in G.
  bool withAssists = false;
  /// Produce a counterexample trace on violation.
  bool wantTrace = true;
  /// JSONL observability sink for this run (not the counterexample trace).
  /// Null falls back to the process-wide ICBDD_TRACE sink; see obs/trace.hpp.
  obs::TraceSink* traceSink = nullptr;
  /// Worker attribution for this run's trace spans: >= 0 adds a "worker"
  /// field to every event (set by par::CellContext::apply); -1 omits it.
  int traceWorker = -1;
  /// Job-id attribution: non-empty adds a "job" field to every event, so
  /// one job's spans can be joined across an interleaved batch stream.
  /// Set by par::CellContext::apply from the cell's group name (the job
  /// service submits each job under its request id).
  std::string traceJob;
  /// Cooperative cancellation: installed onto the manager's ResourceLimits
  /// by LimitGuard, polled wherever the deadline is polled.  A run aborted
  /// through it reports the ordinary capped verdict (kTimeLimit), so a
  /// cancelled cell looks exactly like a deadline-expired one downstream.
  /// Set by par::CellContext::apply when the scheduler runs with
  /// SchedulerOptions::cancelRunningCells.
  const std::atomic<bool>* cancelFlag = nullptr;

  EvaluatePolicyOptions policy;     ///< XICI evaluation policy knobs
  /// Knobs of the paper's tautology procedure, which no engine calls.  Kept
  /// only because paperbench/driver.cpp passes them to its checker.
  TerminationOptions termination;
  ImageOptions image;               ///< forward-engine partitioning knobs
  CheckpointOptions checkpoint;     ///< periodic snapshot / resume hooks
};

/// A counterexample: states[0] is an initial state; inputs[t] drives the
/// transition from states[t] to states[t+1]; the last state violates G.
/// Each entry is a full assignment vector indexed by BDD variable.
struct Trace {
  std::vector<std::vector<char>> states;
  std::vector<std::vector<char>> inputs;
};

struct EngineResult {
  Verdict verdict = Verdict::kIterationLimit;
  Method method = Method::kFwd;
  unsigned iterations = 0;          ///< image computations performed
  double seconds = 0.0;
  /// Largest node count used to represent any iterate R_i / G_i
  /// (shared count for implicitly conjoined lists) -- the paper's
  /// implementation-independent "BDD Nodes" column.
  std::uint64_t peakIterateNodes = 0;
  /// Member sizes of the largest iterate when it was a conjunct list,
  /// the paper's parenthesized breakdown like "(1501, 629, 290, 141)".
  std::vector<std::uint64_t> peakIterateMemberSizes;
  /// Manager-wide peak of allocated nodes (live + not-yet-collected):
  /// the "total memory used" analogue.
  std::uint64_t peakAllocatedNodes = 0;
  std::uint64_t memBytesEstimate = 0;
  std::string note;
  std::optional<Trace> trace;
  TerminationStats terminationStats;  ///< XICI only
  /// Counter/gauge snapshot of the run (BDD core always; ICI policy and
  /// termination metrics where the method uses them).
  obs::MetricsRegistry metrics;

  [[nodiscard]] bool holds() const { return verdict == Verdict::kHolds; }
  [[nodiscard]] bool violated() const { return verdict == Verdict::kViolated; }
};

/// Formats the member-size breakdown "(a, b, c)" or "" when not a list.
[[nodiscard]] std::string describeMemberSizes(const EngineResult& r);

}  // namespace icb
