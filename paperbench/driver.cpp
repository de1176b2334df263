// Paper-cell benchmark driver.  Runs the cells of one workload (a cell is one
// model x method run) in repetitions until a time budget is spent, and prints
// one JSON line per cell per repetition plus a closing "process" line.
// run.py builds this program, checks every line against expected.json and
// turns the lines into the benchmark's metrics; README.md explains both.
//
//   paperbench_driver --workload monolithic|xici|ckpt-reorder
//                     --seed N --seconds S --trace 0|1
//
// Every repetition runs the "engine" pass: each cell builds its model in a
// fresh manager (timed as setup) and calls runMethod (timed as time to
// verdict), and a calibration kernel (calibrationSeconds) runs before the
// first cell and after every cell.  With --trace 1 a "traced" pass follows,
// which drives the same cells from outside through the layers' public calls
// -- Fsm, ImageComputer, ConjunctList, simplifyList, greedyEvaluate,
// TerminationChecker, saveSnapshot / loadSnapshot -- mirroring the Fwd, Bkwd
// and XICI engine loops step for step and timing each call as one span.  The
// FD cell is one span around runMethod, because FD's internals are not public.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ici/evaluate_policy.hpp"
#include "ici/simplify.hpp"
#include "ici/termination.hpp"
#include "models/avg_filter.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"
#include "models/typed_fifo.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace.hpp"
#include "sym/image.hpp"
#include "util/rng.hpp"
#include "verif/checkpoint.hpp"
#include "verif/limit_guard.hpp"
#include "verif/run_all.hpp"

namespace {

using namespace icb;

// The table benches' caps (bench/bench_util.hpp): a cell that reaches one
// reports a capped verdict, which the expected values reject.
constexpr std::uint64_t kMaxNodes = 24'000'000;
constexpr double kTimeLimitSeconds = 60.0;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// host speed

/// Times a fixed piece of work that loads the host the way the cells do:
/// it maps and zero-fills a fresh table far larger than the private caches,
/// then follows a chain of hashed probes into it, each depending on the
/// last.  It shares no code with the library under test.  The engine pass
/// runs it between cells, and run.py scales each cell's times by the mean of
/// the two calibrations around it.  On a shared host, neighbours slow the
/// memory system for seconds to minutes at a time, by up to 1.5x; that moves
/// this kernel and the cell together, while a change to the library moves
/// only the cell.  Returns the mean time of `runs` back-to-back runs.
double calibrationSeconds(unsigned runs) {
  constexpr std::size_t kSlots = std::size_t{1} << 21;  // 32 MiB of pairs
  constexpr std::uint64_t kKeys = kSlots / 2;           // load factor <= 1/2
  constexpr unsigned kProbes = 600'000;
  const double t0 = nowSeconds();
  std::uint64_t acc = 0;
  for (unsigned run = 0; run < runs; ++run) {
    std::vector<std::uint64_t> table(2 * kSlots, 0);  // (key, value) pairs
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t chain = 0;  // every run does the same probes
    for (unsigned i = 0; i < kProbes; ++i) {
      x ^= chain;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      x ^= x >> 31;
      const std::uint64_t key = x % kKeys + 1;  // 0 marks an empty slot
      std::size_t slot = (key * 0x9e3779b97f4a7c15ULL >> 43) & (kSlots - 1);
      while (table[2 * slot] != 0 && table[2 * slot] != key) {
        slot = (slot + 1) & (kSlots - 1);
      }
      if (table[2 * slot] == 0) {
        table[2 * slot] = key;
        table[2 * slot + 1] = i;
      }
      chain += table[2 * slot + 1];
    }
    acc += chain;
  }
  const double seconds = nowSeconds() - t0;
  if (acc == 0) throw std::logic_error("calibration: no work done");
  return seconds / runs;
}

// ---------------------------------------------------------------------------
// models and cells

/// A built model and the manager it lives in.  `model` is declared after
/// `mgr`, so it is destroyed first.
struct Model {
  std::unique_ptr<BddManager> mgr;
  std::shared_ptr<void> model;
  Fsm* fsm = nullptr;
  std::vector<unsigned> fdCandidates;
};

template <class M, class Config>
Model buildModel(const BddOptions& bddOptions, const Config& config) {
  Model m;
  m.mgr = std::make_unique<BddManager>(bddOptions);
  auto model = std::make_shared<M>(*m.mgr, config);
  m.fsm = &model->fsm();
  m.fdCandidates = model->fdCandidates();
  m.model = std::move(model);
  return m;
}

/// Walks the order away from the constructed interleaving with a seeded
/// sequence of adjacent swaps, exactly as bench/table_reorder does.
void scrambleOrder(BddManager& mgr, unsigned rounds) {
  Rng rng(0x5eed);
  const unsigned nvars = mgr.varCount();
  for (unsigned k = 0; k < rounds * nvars; ++k) {
    mgr.swapAdjacentLevels(static_cast<unsigned>(rng.below(nvars - 1)));
  }
}

/// What a cell does besides running its engine once.
enum class Step {
  kRun,         ///< one engine run
  kCheckpoint,  ///< one engine run, saving a text snapshot every iteration
  kResume,      ///< load the middle snapshot of the group's checkpoint cell
                ///< into a fresh model and finish the run from there
};

struct Cell {
  std::string name;
  std::function<Model()> build;
  Method method = Method::kFwd;
  Step step = Step::kRun;
  bool autoReorder = false;
};

/// Cells that must run in order: a resume cell follows its checkpoint cell.
using Group = std::vector<Cell>;

std::function<Model()> fifo(unsigned depth) {
  return [depth] {
    return buildModel<TypedFifoModel>(BddOptions{},
                                      TypedFifoConfig{.depth = depth, .width = 8});
  };
}

std::function<Model()> network(unsigned processors) {
  return [processors] {
    return buildModel<NetworkModel>(BddOptions{},
                                    NetworkConfig{.processors = processors});
  };
}

std::function<Model()> filter(unsigned depth) {
  return [depth] {
    return buildModel<AvgFilterModel>(
        BddOptions{}, AvgFilterConfig{.depth = depth, .sampleWidth = 8});
  };
}

std::function<Model()> pipeline(unsigned registers, unsigned width) {
  return [registers, width] {
    return buildModel<PipelineCpuModel>(
        BddOptions{}, PipelineCpuConfig{.registers = registers, .width = width});
  };
}

/// bench/table_reorder's scrambled FIFO with its auto-reorder settings.
std::function<Model()> scrambledFifo(unsigned depth) {
  return [depth] {
    BddOptions options;
    options.autoReorder = true;
    options.reorderTrigger = 1.3;
    options.reorderMinLiveNodes = 256;
    Model m = buildModel<TypedFifoModel>(
        options, TypedFifoConfig{.depth = depth, .width = 8});
    scrambleOrder(*m.mgr, 4);
    return m;
  };
}

std::vector<Group> workloadGroups(std::string_view workload) {
  if (workload == "monolithic") {
    return {{{"fifo10.fwd", fifo(10), Method::kFwd}},
            {{"fifo10.bkwd", fifo(10), Method::kBkwd}},
            {{"network7.bkwd", network(7), Method::kBkwd}},
            {{"network4.fd", network(4), Method::kFd}}};
  }
  if (workload == "xici") {
    return {{{"filter16.noassist.xici", filter(16), Method::kXici}},
            {{"pipeline2r3b.xici", pipeline(2, 3), Method::kXici}}};
  }
  if (workload == "ckpt-reorder") {
    return {{{"fifo10.fwd.ckpt", fifo(10), Method::kFwd, Step::kCheckpoint},
             {"fifo10.fwd.resume", fifo(10), Method::kFwd, Step::kResume}},
            {{"pipeline4r2b.fwd.ckpt", pipeline(4, 2), Method::kFwd,
              Step::kCheckpoint}},
            {{"fifo6.scrambled.fwd.reorder", scrambledFifo(6), Method::kFwd,
              Step::kRun, true}}};
  }
  throw std::invalid_argument("unknown workload: " + std::string(workload));
}

/// No cell supplies assisting invariants: the table benches run these
/// models without them (filter-16 is Table 2's no-assists row).
EngineOptions cappedOptions() {
  EngineOptions options;
  options.maxNodes = kMaxNodes;
  options.timeLimitSeconds = kTimeLimitSeconds;
  options.wantTrace = false;  // the benches measure the decision procedure
  return options;
}

const std::string& middleSnapshot(const std::vector<std::string>& snapshots) {
  if (snapshots.empty()) {
    throw std::runtime_error("resume cell: the checkpoint cell saved nothing");
  }
  return snapshots[snapshots.size() / 2];
}

/// The implementation-independent result of a cell: what expected.json pins
/// and what the traced pass must reproduce.
struct Outcome {
  Verdict verdict = Verdict::kIterationLimit;
  unsigned iterations = 0;
  std::uint64_t peakIterateNodes = 0;
  std::vector<std::uint64_t> memberSizes;
};

Outcome outcomeOf(const EngineResult& r) {
  return {r.verdict, r.iterations, r.peakIterateNodes, r.peakIterateMemberSizes};
}

obs::JsonObject cellLine(unsigned rep, const Cell& cell, std::string_view pass,
                         const Outcome& o) {
  obs::JsonObject line;
  line.put("rep", rep)
      .put("cell", cell.name)
      .put("pass", pass)
      .put("verdict", verdictName(o.verdict))
      .put("iterations", o.iterations)
      .put("peak", o.peakIterateNodes)
      .putRaw("members", obs::jsonArray(o.memberSizes));
  return line;
}

void printLine(obs::JsonObject line) {
  std::cout << std::move(line).str() << '\n' << std::flush;
}

// ---------------------------------------------------------------------------
// engine pass

obs::JsonObject runEngineCell(unsigned rep, const Cell& cell,
                              std::vector<std::string>& snapshots) {
  const double t0 = nowSeconds();
  Model m = cell.build();
  const double t1 = nowSeconds();
  EngineOptions options = cappedOptions();
  EngineSnapshot resume;
  if (cell.step == Step::kCheckpoint) {
    options.checkpoint.everyIterations = 1;
    options.checkpoint.sink = [&](const EngineSnapshot& snap) {
      std::ostringstream os;
      saveSnapshot(os, *m.mgr, snap);
      snapshots.push_back(std::move(os).str());
    };
  } else if (cell.step == Step::kResume) {
    std::istringstream is(middleSnapshot(snapshots));
    resume = loadSnapshot(is, *m.mgr);
    options.checkpoint.resume = &resume;
  }
  const EngineResult r =
      runMethod(*m.fsm, cell.method, m.fdCandidates, options);
  const double t2 = nowSeconds();
  return std::move(cellLine(rep, cell, "engine", outcomeOf(r))
                       .put("setup_s", t1 - t0)
                       .put("verify_s", t2 - t1));
}

// ---------------------------------------------------------------------------
// traced pass

/// Per-call spans over one cell.  Each span reads the manager's GC and
/// reorder pause totals (BddStats::gcPauseUs / reorderPauseUs) on entry and
/// exit; run.py subtracts them from the span to get its exclusive time.  A
/// sift runs collections of its own, which both totals count, so when a
/// process-wide trace sink is attached the span also reports how much GC
/// time fell inside sifts (from the "gc" and "reorder" events' wall times).
/// Spans never nest: nesting would count the inner call twice.
class Ledger {
 public:
  Ledger(BddManager& mgr, const std::ostringstream* events)
      : mgr_(mgr), events_(events) {}

  template <class F>
  auto span(std::string_view key, F&& body) {
    const Scope scope(*this, key);
    return body();
  }

  [[nodiscard]] std::string toJson() const {
    obs::JsonObject out;
    for (const auto& [key, t] : totals_) {
      const double values[] = {t.seconds, t.gcSeconds, t.reorderSeconds,
                               t.gcInReorderSeconds,
                               static_cast<double>(t.calls)};
      out.putRaw(key, obs::jsonArray(values));
    }
    return std::move(out).str();
  }

 private:
  struct Totals {
    double seconds = 0.0;
    double gcSeconds = 0.0;
    double reorderSeconds = 0.0;
    double gcInReorderSeconds = 0.0;
    std::uint64_t calls = 0;
  };

  struct Mark {
    double t = 0.0;
    std::uint64_t gcUs = 0;
    std::uint64_t reorderUs = 0;
    std::size_t eventsPos = 0;
  };

  class Scope {
   public:
    Scope(Ledger& ledger, std::string_view key) : ledger_(ledger), key_(key) {
      if (ledger_.open_) throw std::logic_error("Ledger: nested span");
      ledger_.open_ = true;
      start_ = ledger_.mark();
    }
    ~Scope() {
      const Mark end = ledger_.mark();
      Totals& t = ledger_.totals_[std::string(key_)];
      t.seconds += end.t - start_.t;
      t.gcSeconds += static_cast<double>(end.gcUs - start_.gcUs) * 1e-6;
      t.reorderSeconds +=
          static_cast<double>(end.reorderUs - start_.reorderUs) * 1e-6;
      t.gcInReorderSeconds += ledger_.gcInReorder(start_.eventsPos);
      ++t.calls;
      ledger_.open_ = false;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    std::string_view key_;
    Mark start_;
  };

  [[nodiscard]] Mark mark() const {
    const BddStats& s = mgr_.stats();
    return {nowSeconds(), s.gcPauseUs.sum(), s.reorderPauseUs.sum(),
            events_ != nullptr ? events_->view().size() : 0};
  }

  /// GC pause (truncated to whole microseconds, as gcPauseUs records it)
  /// of the collections that ran inside a sift, over the events written
  /// since `from`.
  [[nodiscard]] double gcInReorder(std::size_t from) const {
    if (events_ == nullptr) return 0.0;
    const std::string_view text = events_->view().substr(from);
    std::vector<std::pair<double, double>> gcs;       // (t, wall_s)
    std::vector<std::pair<double, double>> reorders;  // (t, wall_s)
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      const obs::JsonValue ev = obs::parseJson(text.substr(pos, eol - pos));
      pos = eol + 1;
      const std::string_view name = ev.find("ev")->textOr("");
      if (name != "gc" && name != "reorder") continue;
      const std::pair<double, double> tw{ev.find("t")->numberOr(0.0),
                                         ev.find("wall_s")->numberOr(0.0)};
      (name == "gc" ? gcs : reorders).push_back(tw);
    }
    double inside = 0.0;
    for (const auto& [rt, rwall] : reorders) {
      for (const auto& [gt, gwall] : gcs) {
        if (gt >= rt - rwall && gt <= rt) {
          inside += static_cast<double>(static_cast<std::uint64_t>(gwall * 1e6)) * 1e-6;
        }
      }
    }
    return inside;
  }

  BddManager& mgr_;
  const std::ostringstream* events_;
  std::map<std::string, Totals> totals_;
  bool open_ = false;
};

/// Installs a process-wide trace sink (none when null) for one scope and puts
/// the previous one back on the way out, exceptions included.
class SinkInstall {
 public:
  explicit SinkInstall(obs::TraceSink* sink)
      : previous_(obs::defaultTraceSink()) {
    if (sink != nullptr) obs::setDefaultTraceSink(sink);
  }
  ~SinkInstall() { obs::setDefaultTraceSink(previous_); }
  SinkInstall(const SinkInstall&) = delete;
  SinkInstall& operator=(const SinkInstall&) = delete;

 private:
  obs::TraceSink* previous_;
};

/// Counts the traced pass takes from the ICI and checkpoint calls' results.
struct CallCounts {
  std::uint64_t restrictTried = 0;
  std::uint64_t restrictKept = 0;
  std::uint64_t pairBuilt = 0;
  std::uint64_t pairReused = 0;
  std::uint64_t pairAborted = 0;
  std::uint64_t merges = 0;
  std::uint64_t ckptBytes = 0;
  TerminationStats termination;
};

/// evaluateAndSimplify, call by call (src/ici/evaluate_policy.cpp).
void tracedPolicy(ConjunctList& list, const EvaluatePolicyOptions& options,
                  BddManager& mgr, Ledger& ledger, CallCounts& counts) {
  (void)ledger.span("bdd.apply", [&] { return list.sharedNodeCount(); });
  ledger.span("ici.simplify", [&] { list.normalize(); });
  if (options.simplifyFirst) {
    const std::uint64_t before = mgr.stats().restrictCalls;
    const SimplifyResult s = ledger.span(
        "ici.simplify", [&] { return simplifyList(list, options.simplify); });
    counts.restrictTried += mgr.stats().restrictCalls - before;
    counts.restrictKept += s.applications;
  }
  if (list.isFalse() || list.size() < 2) {
    (void)ledger.span("bdd.apply", [&] { return list.sharedNodeCount(); });
    return;
  }
  const EvaluatePolicyResult r = ledger.span(
      "ici.pair_eval", [&] { return greedyEvaluate(list, options); });
  counts.pairBuilt += r.pairEntriesBuilt;
  counts.pairReused += r.pairEntriesReused;
  counts.pairAborted += r.abortedPairBuilds;
  counts.merges += r.merges;
}

/// runXiciBackward's loop (src/verif/xici_backward.cpp) without the trace,
/// checkpoint and check hooks this benchmark does not turn on.
Outcome tracedXici(Fsm& fsm, const EngineOptions& options, Ledger& ledger,
                   CallCounts& counts) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  Outcome out;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  TerminationChecker checker(mgr, options.termination);
  try {
    ConjunctList g0 = ledger.span(
        "bdd.apply", [&] { return fsm.property(options.withAssists); });
    tracedPolicy(g0, options.policy, mgr, ledger, counts);
    ConjunctList current = g0;
    // The engine keeps every layer for its counterexample; keeping them too
    // gives the collector the same roots, so GC work matches the engine's.
    std::vector<ConjunctList> layers{current};
    while (true) {
      const std::uint64_t nodes = ledger.span(
          "bdd.apply", [&] { return current.sharedNodeCount(); });
      if (nodes > out.peakIterateNodes) {
        out.peakIterateNodes = nodes;
        out.memberSizes =
            ledger.span("bdd.apply", [&] { return current.memberSizes(); });
      }
      const bool violated = ledger.span("bdd.apply", [&] {
        for (const Bdd& c : current) {
          if (!(fsm.init() & !c).isZero()) return true;
        }
        return false;
      });
      if (violated) {
        out.verdict = Verdict::kViolated;
        break;
      }
      if (out.iterations >= options.maxIterations) {
        out.verdict = Verdict::kIterationLimit;
        break;
      }
      ConjunctList next(&mgr);
      for (const Bdd& c : g0) next.push(c);
      for (const Bdd& c : current) {
        next.push(ledger.span("sym.back_image", [&] { return fsm.backImage(c); }));
      }
      ledger.span("ici.simplify", [&] { next.normalize(); });
      tracedPolicy(next, options.policy, mgr, ledger, counts);
      ++out.iterations;
      ledger.span("bdd.apply", [&] { mgr.autoReorderIfNeeded(); });
      const bool converged = ledger.span(
          "ici.term", [&] { return checker.equal(next, current); });
      if (converged) {
        out.verdict = Verdict::kHolds;
        break;
      }
      current = next;
      layers.push_back(current);
    }
  } catch (const ResourceLimitError& err) {
    out.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();
  }
  counts.termination = checker.stats();
  return out;
}

/// runBackward's loop (src/verif/backward.cpp).
Outcome tracedBackward(Fsm& fsm, const EngineOptions& options, Ledger& ledger) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  Outcome out;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  try {
    const ConjunctList property = ledger.span(
        "bdd.apply", [&] { return fsm.property(options.withAssists); });
    const Bdd g0 = ledger.span("bdd.apply", [&] { return property.evaluate(); });
    Bdd g = g0;
    // Kept for the same reason as in tracedXici: the engine's GC roots.
    std::vector<Bdd> layers{g};
    while (true) {
      out.peakIterateNodes = std::max(
          out.peakIterateNodes, ledger.span("bdd.apply", [&] { return g.size(); }));
      const bool violated = ledger.span(
          "bdd.apply", [&] { return !(fsm.init() & !g).isZero(); });
      if (violated) {
        out.verdict = Verdict::kViolated;
        break;
      }
      if (out.iterations >= options.maxIterations) {
        out.verdict = Verdict::kIterationLimit;
        break;
      }
      Bdd next;
      {
        const Bdd pre =
            ledger.span("sym.back_image", [&] { return fsm.backImage(g); });
        next = ledger.span("bdd.apply", [&] { return g0 & pre; });
      }
      ++out.iterations;
      ledger.span("bdd.apply", [&] { mgr.autoReorderIfNeeded(); });
      if (next == g) {
        out.verdict = Verdict::kHolds;
        break;
      }
      g = next;
      layers.push_back(g);
    }
  } catch (const ResourceLimitError& err) {
    out.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();
  }
  return out;
}

/// runForward's loop (src/verif/forward.cpp), with its every-iteration
/// checkpoint when `snapshots` is set and its resume path when `resume` is.
Outcome tracedForward(Fsm& fsm, const EngineOptions& options, Ledger& ledger,
                      CallCounts& counts, std::vector<std::string>* snapshots,
                      const EngineSnapshot* resume) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  Outcome out;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  try {
    const ConjunctList property = ledger.span(
        "bdd.apply", [&] { return fsm.property(options.withAssists); });
    const Bdd notGood =
        ledger.span("bdd.apply", [&] { return !property.evaluate(); });
    std::optional<ImageComputer> imager;
    ledger.span("sym.cluster_build", [&] { imager.emplace(fsm, options.image); });
    Bdd reached = fsm.init();
    std::vector<Bdd> rings{fsm.init()};
    unsigned lastSaved = 0;
    if (resume != nullptr) {
      reached = resume->lists[0][0];
      rings = resume->lists[1];
      out.iterations = lastSaved = resume->iteration;
    }
    while (true) {
      out.peakIterateNodes =
          std::max(out.peakIterateNodes,
                   ledger.span("bdd.apply", [&] { return reached.size(); }));
      if (snapshots != nullptr && out.iterations != 0 &&
          out.iterations > lastSaved) {
        ledger.span("verif.ckpt_save", [&] {
          EngineSnapshot snap;
          snap.method = Method::kFwd;
          snap.iteration = out.iterations;
          snap.lists = {{reached}, rings};
          std::ostringstream os;
          saveSnapshot(os, mgr, snap);
          snapshots->push_back(std::move(os).str());
        });
        counts.ckptBytes += snapshots->back().size();
        lastSaved = out.iterations;
      }
      const Bdd bad = ledger.span("bdd.apply", [&] { return reached & notGood; });
      if (!bad.isZero()) {
        out.verdict = Verdict::kViolated;
        break;
      }
      if (out.iterations >= options.maxIterations) {
        out.verdict = Verdict::kIterationLimit;
        break;
      }
      const Bdd frontier = rings.back();
      const Bdd next =
          ledger.span("sym.image", [&] { return imager->image(frontier); });
      const Bdd fresh = ledger.span("bdd.apply", [&] { return next & !reached; });
      ++out.iterations;
      ledger.span("bdd.apply", [&] { mgr.autoReorderIfNeeded(); });
      if (fresh.isZero()) {
        out.verdict = Verdict::kHolds;
        break;
      }
      rings.push_back(fresh);
      ledger.span("bdd.apply", [&] { reached |= fresh; });
    }
  } catch (const ResourceLimitError& err) {
    out.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();
  }
  return out;
}

void runTracedCell(unsigned rep, const Cell& cell,
                   std::vector<std::string>& snapshots) {
  Model m = cell.build();
  const EngineOptions options = cappedOptions();

  // Sifts only happen in auto-reorder cells; only there is the process-wide
  // event sink needed to split GC time inside sifts from the rest.
  std::ostringstream events;
  std::optional<obs::TraceSink> sink;
  if (cell.autoReorder) sink.emplace(events);
  const SinkInstall install(sink ? &*sink : nullptr);
  Ledger ledger(*m.mgr, cell.autoReorder ? &events : nullptr);
  CallCounts counts;

  const double t0 = nowSeconds();
  Outcome out;
  EngineSnapshot resume;
  if (cell.step == Step::kResume) {
    resume = ledger.span("verif.ckpt_load", [&] {
      std::istringstream is(middleSnapshot(snapshots));
      return loadSnapshot(is, *m.mgr);
    });
  }
  switch (cell.method) {
    case Method::kFwd:
      out = tracedForward(*m.fsm, options, ledger, counts,
                          cell.step == Step::kCheckpoint ? &snapshots : nullptr,
                          cell.step == Step::kResume ? &resume : nullptr);
      break;
    case Method::kBkwd:
      out = tracedBackward(*m.fsm, options, ledger);
      break;
    case Method::kXici:
      out = tracedXici(*m.fsm, options, ledger, counts);
      break;
    case Method::kFd:
      m.mgr->resetStats();  // runMethod resets too; the span starts from 0
      out = outcomeOf(ledger.span("verif.fd", [&] {
        return runMethod(*m.fsm, cell.method, m.fdCandidates, options);
      }));
      break;
    case Method::kIci:
      throw std::logic_error("no traced ICI loop: no cell uses ICI");
  }
  const double wall = nowSeconds() - t0;

  const BddStats& s = m.mgr->stats();
  const std::string countsJson =
      std::move(obs::JsonObject()
                    .put("gc_runs", s.gcRuns)
                    .put("gc_reclaimed", s.gcReclaimed)
                    .put("reorder_swaps", s.reorderSwaps)
                    .put("cache_lookups", s.cacheLookups())
                    .put("cache_hits", s.cacheHits())
                    .put("unique_lookups", s.uniqueLookups)
                    .put("unique_chain_steps", s.uniqueChainSteps)
                    .put("nodes_created", s.nodesCreated)
                    .put("peak_alloc_nodes", s.peakNodes)
                    .put("restrict_tried", counts.restrictTried)
                    .put("restrict_kept", counts.restrictKept)
                    .put("pair_built", counts.pairBuilt)
                    .put("pair_reused", counts.pairReused)
                    .put("pair_aborted", counts.pairAborted)
                    .put("merges", counts.merges)
                    .put("term_taut_calls", counts.termination.tautologyCalls)
                    .put("term_shannon", counts.termination.shannonExpansions)
                    .put("ckpt_bytes", counts.ckptBytes))
          .str();
  printLine(std::move(cellLine(rep, cell, "traced", out)
                          .put("wall_s", wall)
                          .putRaw("spans", ledger.toJson())
                          .putRaw("counts", countsJson)));
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  double seconds = 0.0;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  bool haveSeconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      // Accepted and unused: the cells are the paper's fixed configurations,
      // run in a fixed order (the order moves peak RSS by a few percent).
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      haveSeconds = true;
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else {
      throw std::invalid_argument("unknown flag: " + std::string(flag));
    }
  }
  if (argc % 2 != 1 || !haveWorkload || !haveSeconds) {
    throw std::invalid_argument(
        "usage: paperbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    const std::vector<Group> groups = workloadGroups(args.workload);

    // Repetitions until the budget is spent, never starting one that the
    // last repetition's length says would overrun it.
    const double start = nowSeconds();
    unsigned reps = 0;
    unsigned calibRuns = 1;
    double lastRep = 0.0;
    do {
      const double repStart = nowSeconds();
      double calibBefore = calibrationSeconds(calibRuns);
      for (const Group& group : groups) {
        std::vector<std::string> snapshots;
        for (const Cell& cell : group) {
          const double cellStart = nowSeconds();
          obs::JsonObject line = runEngineCell(reps, cell, snapshots);
          // Hand the cell's heap back, so every cell starts the way it
          // would in a fresh process and no repetition runs on a warmer
          // heap than the first.
          malloc_trim(0);
          // Calibrate for about 5% of the cell's time: a long cell's scale
          // rests on a longer sample of the host's speed.
          calibRuns = std::max(1U, static_cast<unsigned>(
                                       0.05 * (nowSeconds() - cellStart) /
                                       calibBefore));
          const double calibAfter = calibrationSeconds(calibRuns);
          printLine(std::move(
              line.put("calib_s", 0.5 * (calibBefore + calibAfter))));
          calibBefore = calibAfter;
        }
      }
      if (args.trace) {
        for (const Group& group : groups) {
          std::vector<std::string> snapshots;
          for (const Cell& cell : group) {
            runTracedCell(reps, cell, snapshots);
            malloc_trim(0);
          }
        }
      }
      lastRep = nowSeconds() - repStart;
      ++reps;
    } while (nowSeconds() - start + lastRep <= args.seconds);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const std::string process =
        std::move(obs::JsonObject()
                      .put("reps", reps)
                      .put("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss))
                      .put("compiler", PAPERBENCH_COMPILER)
                      .put("build_type", PAPERBENCH_BUILD_TYPE))
            .str();
    printLine(std::move(obs::JsonObject().putRaw("process", process)));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "paperbench_driver: " << e.what() << '\n';
    return 1;
  }
}
