// Source markers consumed by the project lint gate (ci/lint/icbdd_lint.py).
//
// The gate enforces ICBDD-specific invariants no off-the-shelf checker
// knows (rule catalog and rationale in docs/static_analysis.md):
//
//   L1  no raw I/O or sleeping inside an engine iteration -- such work must
//       route through the deadline-credit helpers so it cannot flip a
//       resource-capped verdict;
//   L2  autoReorderIfNeeded() / checkpoint emission only at registered
//       iteration-boundary safe points;
//   L3  no raw interior BddNode pointer escapes a BddManager public API;
//   L4  every MetricsRegistry counter/gauge name matches the dotted-name
//       catalog in docs/observability.md;
//   L5  no naked std::memory_order_relaxed without an adjacent
//       "relaxed:" justification comment.
//
// Both macros compile to nothing; they exist so the discipline is declared
// in the code the rule governs, where reviewers and the lint can see it.
#pragma once

/// Registers the next statement(s) as an engine safe point: the iteration
/// boundary where no edge-level results are live, so reordering and
/// checkpoint emission are legal.  Rule L2 flags autoReorderIfNeeded(),
/// CheckpointEmitter::emit(), and the EngineRun methods that reach them
/// (endStep, emitCheckpoint) when a call site is not under such a marker.
#define ICBDD_SAFE_POINT(what) static_assert(true, "icbdd safe point")

/// Suppresses one lint finding on this line or the next.  `rule` is the
/// bare rule id (L1..L5); `reason` must say why the rule does not apply.
/// The gate counts every suppression and reports the total in its summary,
/// so escapes stay visible instead of accumulating silently.
#define ICBDD_LINT_SUPPRESS(rule, reason) \
  static_assert(true, "icbdd lint suppression")
