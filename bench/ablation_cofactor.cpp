// Ablation: the exact termination test's procedures on XICI's own
// implication checks.
//
// Paper, Section III.B: "For simplicity, we are currently selecting the top
// BDD variable of the first BDD in the list"; Section V lists "choosing the
// best variable to use for cofactoring in the termination test" as untried
// future work.  Theorem 3 makes step 3 free when Restrict is the simplifier.
//
// This bench runs XICI on the Table 2 filter (no assists), or with
// --model pipeline on Table 3's (2R, 3B) pipeline, recording its layers
// G_0, G_1, ... through the checkpoint sink, and replays the final step to
// get the list the last convergence test compared against.  Each pair of
// consecutive layers gives the implication checks of the paper's two-sided
// test, G_i => Y_k and G_{i+1} => Y_k for every member Y_k of the other
// list.  It then times the node-free tuple recursion behind
// TerminationChecker::implies and the paper's procedure
// (disjunctionIsTautology) under every (variable choice, Theorem 3
// shortcut) pair on those checks, each in a fresh manager so that no
// procedure inherits another's computed cache, and fails if any answer
// disagrees.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.hpp"
#include "ici/evaluate_policy.hpp"
#include "models/avg_filter.hpp"
#include "models/pipeline_cpu.hpp"

using namespace icb;
using namespace icb::bench;

namespace {

const char* choiceName(CofactorChoice c) {
  switch (c) {
    case CofactorChoice::kTopOfFirst:
      return "top-of-first (paper)";
    case CofactorChoice::kHighestLevel:
      return "globally-topmost";
    case CofactorChoice::kMostCommon:
      return "most-common-top";
  }
  return "?";
}

/// One implication check: does the conjunction of x imply y?
struct Check {
  const ConjunctList* x;
  Bdd y;
};

/// A fresh manager holding the model, XICI's layers and their checks.
struct Replay {
  BddManager mgr;
  std::optional<AvgFilterModel> filter;
  std::optional<PipelineCpuModel> pipeline;
  EngineResult run;
  std::vector<ConjunctList> layers;
  std::vector<Check> checks;

  Fsm& fsm() { return filter ? filter->fsm() : pipeline->fsm(); }
};

std::unique_ptr<Replay> replay(bool pipeline, unsigned depth,
                               const BenchCaps& caps) {
  auto r = std::make_unique<Replay>();
  if (pipeline) {
    r->pipeline.emplace(r->mgr, PipelineCpuConfig{.registers = 2, .width = 3});
  } else {
    r->filter.emplace(r->mgr, AvgFilterConfig{.depth = depth, .sampleWidth = 8});
  }
  EngineOptions options = caps.engineOptions();
  EngineSnapshot last;
  options.checkpoint.everyIterations = 1;
  options.checkpoint.sink = [&](const EngineSnapshot& snap) { last = snap; };
  r->run = runXiciBackward(r->fsm(), options);
  if (r->run.verdict != Verdict::kHolds || last.lists.size() < 2) return r;

  // The layers, plus the list the converging test compared the last one
  // against: the engine's step, replayed.
  for (std::size_t i = 1; i < last.lists.size(); ++i) {
    r->layers.emplace_back(&r->mgr, last.lists[i]);
  }
  ConjunctList next(&r->mgr);
  for (const Bdd& c : last.lists[0]) next.push(c);
  for (const Bdd& c : r->layers.back()) next.push(r->fsm().backImage(c));
  next.normalize();
  (void)evaluateAndSimplify(next, options.policy);
  r->layers.push_back(next);
  for (std::size_t i = 0; i + 1 < r->layers.size(); ++i) {
    for (const Bdd& y : r->layers[i + 1]) r->checks.push_back({&r->layers[i], y});
    for (const Bdd& y : r->layers[i]) r->checks.push_back({&r->layers[i + 1], y});
  }
  return r;
}

/// Runs `decide` on every check under the caps; the answers, or empty when
/// a cap fired.
template <typename Decide>
std::vector<bool> runChecks(Replay& r, const BenchCaps& caps, double* seconds,
                            Decide decide) {
  ResourceLimits limits;
  limits.maxNodes = caps.maxNodes;
  limits.deadline = Deadline::afterSeconds(caps.timeLimitSeconds);
  r.mgr.setLimits(limits);
  std::vector<bool> answers;
  const Stopwatch watch;
  try {
    for (const Check& c : r.checks) answers.push_back(decide(c));
  } catch (const ResourceLimitError&) {
    answers.clear();
  }
  *seconds = watch.elapsedSeconds();
  r.mgr.clearLimits();
  return answers;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "model", "max-nodes", "time-limit"});
  const BenchCaps caps = BenchCaps::fromArgs(args);
  const unsigned depth = static_cast<unsigned>(args.getInt("depth", 8));
  const std::string model = args.getString("model", "filter");
  if (model != "filter" && model != "pipeline") {
    std::fprintf(stderr, "--model must be filter or pipeline\n");
    return 2;
  }
  const bool pipeline = model == "pipeline";
  if (pipeline) {
    std::printf("Ablation / exact termination test on XICI's implication "
                "checks, (2R, 3B) pipeline\n");
  } else {
    std::printf("Ablation / exact termination test on XICI's implication "
                "checks, depth-%u filter, no assists\n", depth);
  }
  std::printf("(node cap %llu, time cap %.0fs per procedure)\n\n",
              static_cast<unsigned long long>(caps.maxNodes),
              caps.timeLimitSeconds);

  const std::unique_ptr<Replay> first = replay(pipeline, depth, caps);
  if (first->checks.empty()) {
    std::printf("XICI did not hold (%s); nothing to replay\n",
                verdictName(first->run.verdict));
    return 1;
  }
  std::printf("XICI: %s in %u iterations; %zu implication checks over %zu "
              "layers\n\n",
              verdictName(first->run.verdict), first->run.iterations,
              first->checks.size(), first->layers.size());

  TextTable table({"Procedure", "Variable choice", "Thm3", "Time (s)",
                   "Agree", "Calls", "Shannon", "MaxDepth"});
  std::vector<bool> reference;
  bool allAgree = true;
  auto addRow = [&](const char* procedure, const char* choice,
                    const char* shortcut, const std::vector<bool>& answers,
                    double seconds, const TerminationStats& s) {
    char time[32];
    std::snprintf(time, sizeof time, "%.4f", seconds);
    const bool agree = answers == reference;
    if (!answers.empty()) allAgree &= agree;
    table.addRow({procedure, choice, shortcut, time,
                  answers.empty() ? "capped" : agree ? "yes" : "NO",
                  std::to_string(s.tautologyCalls),
                  std::to_string(s.shannonExpansions),
                  std::to_string(s.maxDepth)});
  };

  TerminationChecker tuple(first->mgr);
  double seconds = 0.0;
  reference = runChecks(*first, caps, &seconds, [&](const Check& c) {
    return tuple.implies(*c.x, c.y);
  });
  if (reference.empty()) allAgree = false;
  addRow("tuple recursion", "topmost level", "-", reference, seconds,
         tuple.stats());

  for (const CofactorChoice choice :
       {CofactorChoice::kTopOfFirst, CofactorChoice::kHighestLevel,
        CofactorChoice::kMostCommon}) {
    for (const bool shortcut : {true, false}) {
      const std::unique_ptr<Replay> r = replay(pipeline, depth, caps);
      TerminationChecker paper(r->mgr, {.cofactorChoice = choice,
                                        .restrictShortcut = shortcut});
      const std::vector<bool> answers =
          runChecks(*r, caps, &seconds, [&](const Check& c) {
            std::vector<Edge> disjuncts;
            for (const Bdd& xi : *c.x) disjuncts.push_back(edgeNot(xi.edge()));
            disjuncts.push_back(c.y.edge());
            return paper.disjunctionIsTautology(std::move(disjuncts));
          });
      addRow("paper (steps 1-4)", choiceName(choice), shortcut ? "on" : "off",
             answers, seconds, paper.stats());
    }
  }
  table.print(std::cout);
  std::printf(
      "\nExpected shape: every procedure gives the same answers.  The tuple\n"
      "recursion builds no node and stops at the first satisfying path; the\n"
      "paper's procedure Restricts and cofactors at every call, so it is\n"
      "slower, and the Theorem 3 shortcut and the variable choice shift by\n"
      "how much.\n");
  return allAgree ? 0 : 1;
}
