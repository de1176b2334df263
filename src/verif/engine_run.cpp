#include "verif/engine_run.hpp"

#include <algorithm>
#include <string>

#include "check/check.hpp"
#include "check/structural_checker.hpp"
#include "util/lint.hpp"
#include "verif/counterexample.hpp"

namespace icb {

EngineRun::EngineRun(Fsm& fsm, Method method, const EngineOptions& options)
    : fsm_(fsm),
      mgr_(fsm.mgr()),
      options_(options),
      guard_(fsm.mgr(), options),
      trace_(options.traceSink, &fsm.mgr(), options.traceWorker,
             options.traceJob),
      ckpt_(fsm.mgr(), options.checkpoint, method) {
  fsm_.validate();
  result_.method = method;
  mgr_.resetStats();
  trace_.runBegin(methodName(method));
}

const EngineSnapshot* EngineRun::resume(
    bool (*layoutOk)(const EngineSnapshot&)) {
  const EngineSnapshot* snap = options_.checkpoint.resume;
  if (snap == nullptr) return nullptr;
  if (snap->method != result_.method || !layoutOk(*snap)) {
    throw BddUsageError(std::string("incompatible resume snapshot for ") +
                        methodName(result_.method));
  }
  result_.iterations = snap->iteration;
  return snap;
}

bool EngineRun::resumeLayers(ConjunctList& g0,
                             std::vector<ConjunctList>& layers) {
  const EngineSnapshot* snap =
      resume([](const EngineSnapshot& s) { return s.lists.size() >= 2; });
  if (snap == nullptr) return false;
  g0 = ConjunctList(&mgr_, snap->lists[0]);
  layers.clear();
  for (std::size_t i = 1; i < snap->lists.size(); ++i) {
    layers.emplace_back(&mgr_, snap->lists[i]);
  }
  return true;
}

void EngineRun::emitCheckpoint(std::vector<std::vector<Bdd>> lists,
                               std::vector<std::uint64_t> numbers) {
  ckpt_.emit(result_.iterations, std::move(lists), std::move(numbers));
}

void EngineRun::trackPeak(const Bdd& iterate) {
  result_.peakIterateNodes = std::max(result_.peakIterateNodes, iterate.size());
}

void EngineRun::trackPeak(const ConjunctList& iterate) {
  const std::uint64_t nodes = iterate.sharedNodeCount();
  if (nodes > result_.peakIterateNodes) {
    result_.peakIterateNodes = nodes;
    result_.peakIterateMemberSizes = iterate.memberSizes();
  }
}

bool EngineRun::violatedAt(const std::vector<ConjunctList>& layers) {
  // A constant FALSE member needs no special case: init & !FALSE == init,
  // which is nonzero exactly when some start state exists to violate.
  for (const Bdd& c : layers.back()) {
    if (!(fsm_.init() & !c).isZero()) {
      result_.verdict = Verdict::kViolated;
      if (options_.wantTrace) result_.trace = buildBackwardTrace(fsm_, layers);
      return true;
    }
  }
  return false;
}

bool EngineRun::beginStep(std::string_view phase) {
  if (result_.iterations >= options_.maxIterations) {
    result_.verdict = Verdict::kIterationLimit;
    return false;
  }
  trace_.phaseBegin(phase, result_.iterations + 1);
  return true;
}

void EngineRun::endStep(
    std::string_view phase,
    const std::function<std::vector<std::uint64_t>()>& sizes) {
  ++result_.iterations;
  // Phase boundary: this step's iterate is complete; at kFull, audit the
  // whole arena before trusting it.
  ICBDD_CHECK(kFull, auditArenaCreditingTime(mgr_));
  if (trace_.enabled()) {
    trace_.phaseEnd(phase, result_.iterations, mgr_.allocatedNodes(),
                    mgr_.stats().peakNodes, sizes());
  }
  ICBDD_SAFE_POINT("endStep is called only under an engine's safe point");
  mgr_.autoReorderIfNeeded();
}

void EngineRun::abandonStep(std::string_view phase) {
  if (trace_.enabled()) {
    trace_.phaseEnd(phase, result_.iterations + 1, mgr_.allocatedNodes(),
                    mgr_.stats().peakNodes, {});
  }
}

EngineResult runEngine(Fsm& fsm, Method method, const EngineOptions& options,
                       const std::function<void(EngineRun&)>& body) {
  EngineRun run(fsm, method, options);
  EngineResult& result = run.result_;
  BddManager& mgr = run.mgr_;
  try {
    body(run);
  } catch (const ResourceLimitError& err) {
    result.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();  // reclaim orphaned intermediates so the manager stays usable
  }

  // The epilogue: the paper's time, peak-node and memory columns.
  result.seconds = run.watch_.elapsedSeconds();
  result.peakAllocatedNodes = mgr.stats().peakNodes;
  result.memBytesEstimate = mgr.bytesForNodes(result.peakAllocatedNodes);
  result.metrics.captureBdd(mgr);
  run.trace_.runEnd(verdictName(result.verdict), result.iterations,
                    result.seconds, result.peakIterateNodes,
                    result.peakAllocatedNodes);
  return std::move(result);
}

std::vector<std::vector<Bdd>> layeredLists(
    const ConjunctList& g0, const std::vector<ConjunctList>& layers) {
  std::vector<std::vector<Bdd>> lists;
  lists.reserve(layers.size() + 1);
  lists.emplace_back(g0.begin(), g0.end());
  for (const ConjunctList& layer : layers) {
    lists.emplace_back(layer.begin(), layer.end());
  }
  return lists;
}

}  // namespace icb
