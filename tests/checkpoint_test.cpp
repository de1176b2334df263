// Checkpoint/resume equivalence: for every model and a mix of engine
// methods, a run killed at a checkpoint and resumed from the persisted
// snapshot must reproduce the uninterrupted run exactly -- same verdict,
// same iteration count, and a byte-identical counterexample trace.
//
// The resumed run goes through the full persistence path (saveSnapshot ->
// bytes -> loadSnapshot into a *fresh* manager with a freshly rebuilt model),
// exactly what the service's on-disk journal does across a process restart.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/serialize.hpp"
#include "svc/job.hpp"
#include "verif/checkpoint.hpp"
#include "verif/run_all.hpp"

namespace icb {
namespace {

struct Case {
  const char* model;
  Method method;
  unsigned size;
  unsigned width;
  bool injectBug;
};

svc::JobRequest requestFor(const Case& c) {
  svc::JobRequest req;
  req.id = "ckpt-test";
  req.model = c.model;
  req.method = c.method;
  req.size = c.size;
  req.width = c.width;
  req.injectBug = c.injectBug;
  return req;
}

std::string describe(const Case& c) {
  return std::string(c.model) + "/" + methodName(c.method) +
         (c.injectBug ? "/bug" : "");
}

void expectSameOutcome(const Case& c, const EngineResult& base,
                       const EngineResult& resumed) {
  EXPECT_EQ(base.verdict, resumed.verdict) << describe(c);
  EXPECT_EQ(base.iterations, resumed.iterations) << describe(c);
  ASSERT_EQ(base.trace.has_value(), resumed.trace.has_value()) << describe(c);
  if (base.trace.has_value()) {
    // Byte-identical counterexample: same states, same inputs, in order.
    EXPECT_EQ(base.trace->states, resumed.trace->states) << describe(c);
    EXPECT_EQ(base.trace->inputs, resumed.trace->inputs) << describe(c);
  }
}

/// Runs `c` uninterrupted while snapshotting every iteration, then replays
/// from the snapshot taken at roughly the midpoint on a fresh manager/model.
void runEquivalenceCase(const Case& c) {
  const svc::JobRequest req = requestFor(c);

  // Baseline: uninterrupted, capturing every iteration-boundary snapshot as
  // the serialized text the journal would hold.
  std::vector<std::string> snapshots;
  BddManager baseMgr(svc::bddOptionsFor(req));
  ModelInstance baseModel = svc::buildJobModel(baseMgr, req);
  EngineOptions baseOptions = svc::engineOptionsFor(req);
  baseOptions.checkpoint.everyIterations = 1;
  baseOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, baseMgr, snap);
    snapshots.push_back(os.str());
  };
  const EngineResult base =
      runMethod(*baseModel.fsm, c.method, baseModel.fdCandidates, baseOptions);
  ASSERT_GE(base.iterations, 2u)
      << describe(c) << ": config converged before any checkpoint fired; "
      << "pick a deeper configuration";
  ASSERT_FALSE(snapshots.empty()) << describe(c);

  // "Kill" at the middle checkpoint: rebuild the world from scratch and
  // resume from the persisted text alone.
  const std::string& chosen = snapshots[snapshots.size() / 2];
  BddManager resMgr(svc::bddOptionsFor(req));
  ModelInstance resModel = svc::buildJobModel(resMgr, req);
  std::istringstream in(chosen);
  const EngineSnapshot snapshot = loadSnapshot(in, resMgr);
  EXPECT_EQ(snapshot.method, c.method) << describe(c);
  EngineOptions resOptions = svc::engineOptionsFor(req);
  resOptions.checkpoint.resume = &snapshot;
  const EngineResult resumed =
      runMethod(*resModel.fsm, c.method, resModel.fdCandidates, resOptions);

  EXPECT_GT(snapshot.iteration, 0u) << describe(c);
  expectSameOutcome(c, base, resumed);
}

// Two (or more) methods per model, chosen so every run takes >= 2
// iterations (a checkpoint must actually fire for resume to be exercised);
// the inject_bug cases end in a counterexample, so the byte-identical
// trace comparison is exercised for both traversal directions.
const Case kCases[] = {
    {"fifo", Method::kFwd, 4, 4, false},
    {"fifo", Method::kFd, 4, 4, false},
    {"mutex", Method::kFwd, 4, 0, false},
    {"mutex", Method::kXici, 5, 0, true},
    {"mutex", Method::kBkwd, 5, 0, true},
    {"network", Method::kFwd, 4, 0, false},
    {"network", Method::kIci, 4, 0, true},
    {"filter", Method::kFd, 2, 4, false},
    {"filter", Method::kBkwd, 2, 4, true},
    {"pipeline", Method::kFwd, 2, 2, false},
    {"pipeline", Method::kXici, 2, 2, false},
};

TEST(CheckpointResume, FifoFwd) { runEquivalenceCase(kCases[0]); }
TEST(CheckpointResume, FifoFd) { runEquivalenceCase(kCases[1]); }
TEST(CheckpointResume, MutexFwd) { runEquivalenceCase(kCases[2]); }
TEST(CheckpointResume, MutexXiciBug) { runEquivalenceCase(kCases[3]); }
TEST(CheckpointResume, MutexBkwdBug) { runEquivalenceCase(kCases[4]); }
TEST(CheckpointResume, NetworkFwd) { runEquivalenceCase(kCases[5]); }
TEST(CheckpointResume, NetworkIciBug) { runEquivalenceCase(kCases[6]); }
TEST(CheckpointResume, FilterFd) { runEquivalenceCase(kCases[7]); }
TEST(CheckpointResume, FilterBkwdBug) { runEquivalenceCase(kCases[8]); }
TEST(CheckpointResume, PipelineFwd) { runEquivalenceCase(kCases[9]); }
TEST(CheckpointResume, PipelineXici) { runEquivalenceCase(kCases[10]); }

TEST(CheckpointResume, EveryCheckpointOfOneRunResumesIdentically) {
  // Stronger sweep on one model: resuming from *any* checkpoint, not just
  // the midpoint, reproduces the baseline.
  const Case c{"network", Method::kFwd, 4, 0, false};
  const svc::JobRequest req = requestFor(c);

  std::vector<std::string> snapshots;
  BddManager baseMgr(svc::bddOptionsFor(req));
  ModelInstance baseModel = svc::buildJobModel(baseMgr, req);
  EngineOptions baseOptions = svc::engineOptionsFor(req);
  baseOptions.checkpoint.everyIterations = 1;
  baseOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, baseMgr, snap);
    snapshots.push_back(os.str());
  };
  const EngineResult base =
      runMethod(*baseModel.fsm, c.method, baseModel.fdCandidates, baseOptions);
  ASSERT_GE(snapshots.size(), 3u);

  for (const std::string& text : snapshots) {
    BddManager resMgr(svc::bddOptionsFor(req));
    ModelInstance resModel = svc::buildJobModel(resMgr, req);
    std::istringstream in(text);
    const EngineSnapshot snapshot = loadSnapshot(in, resMgr);
    EngineOptions resOptions = svc::engineOptionsFor(req);
    resOptions.checkpoint.resume = &snapshot;
    const EngineResult resumed = runMethod(*resModel.fsm, c.method,
                                           resModel.fdCandidates, resOptions);
    EXPECT_EQ(base.verdict, resumed.verdict)
        << "from iteration " << snapshot.iteration;
    EXPECT_EQ(base.iterations, resumed.iterations)
        << "from iteration " << snapshot.iteration;
  }
}

TEST(CheckpointResume, ResumedRunSkipsAlreadyJournaledCheckpoint) {
  // A run resumed at iteration k with everyIterations=1 must not re-emit
  // the iteration-k snapshot (it is already journaled); its first emission
  // is k+1.
  const Case c{"fifo", Method::kFwd, 4, 4, false};
  const svc::JobRequest req = requestFor(c);

  std::vector<std::string> snapshots;
  BddManager baseMgr(svc::bddOptionsFor(req));
  ModelInstance baseModel = svc::buildJobModel(baseMgr, req);
  EngineOptions baseOptions = svc::engineOptionsFor(req);
  baseOptions.checkpoint.everyIterations = 1;
  baseOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, baseMgr, snap);
    snapshots.push_back(os.str());
  };
  (void)runMethod(*baseModel.fsm, c.method, baseModel.fdCandidates,
                  baseOptions);
  ASSERT_GE(snapshots.size(), 2u);

  BddManager resMgr(svc::bddOptionsFor(req));
  ModelInstance resModel = svc::buildJobModel(resMgr, req);
  std::istringstream in(snapshots.front());
  const EngineSnapshot snapshot = loadSnapshot(in, resMgr);
  std::vector<unsigned> emitted;
  EngineOptions resOptions = svc::engineOptionsFor(req);
  resOptions.checkpoint.everyIterations = 1;
  resOptions.checkpoint.resume = &snapshot;
  resOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    emitted.push_back(snap.iteration);
  };
  (void)runMethod(*resModel.fsm, c.method, resModel.fdCandidates, resOptions);
  ASSERT_FALSE(emitted.empty());
  EXPECT_GT(emitted.front(), snapshot.iteration);
}

TEST(CheckpointResume, SnapshotTextRoundTripsThroughSaveLoad) {
  const Case c{"mutex", Method::kFwd, 4, 0, false};
  const svc::JobRequest req = requestFor(c);

  std::vector<std::string> snapshots;
  BddManager mgr(svc::bddOptionsFor(req));
  ModelInstance model = svc::buildJobModel(mgr, req);
  EngineOptions options = svc::engineOptionsFor(req);
  options.checkpoint.everyIterations = 2;
  options.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, mgr, snap);
    snapshots.push_back(os.str());
  };
  (void)runMethod(*model.fsm, c.method, model.fdCandidates, options);
  ASSERT_FALSE(snapshots.empty());

  // load -> save on a fresh manager reproduces the same bytes: the dump is
  // canonical under a fixed variable order.
  BddManager mgr2(svc::bddOptionsFor(req));
  ModelInstance model2 = svc::buildJobModel(mgr2, req);
  std::istringstream in(snapshots.front());
  const EngineSnapshot snapshot = loadSnapshot(in, mgr2);
  std::ostringstream os2;
  saveSnapshot(os2, mgr2, snapshot);
  EXPECT_EQ(os2.str(), snapshots.front());
}

TEST(CheckpointResume, LoadSnapshotRejectsGarbage) {
  BddManager mgr;
  {
    std::istringstream in("not-a-checkpoint\n");
    EXPECT_THROW((void)loadSnapshot(in, mgr), BddUsageError);
  }
  {
    std::istringstream in("icbdd-ckpt-v1\nmethod warp\niteration 1\n");
    EXPECT_THROW((void)loadSnapshot(in, mgr), BddUsageError);
  }
  {
    std::istringstream in("icbdd-ckpt-v1\nmethod fwd\n");
    EXPECT_THROW((void)loadSnapshot(in, mgr), BddUsageError);
  }
}

TEST(CheckpointResume, EveryDamagedSnapshotIsATypedErrorAtAStreamOffset) {
  // A small snapshot, cut at every strict prefix and flipped at every byte.
  // Header damage fails on the header lines; damage inside the embedded
  // dump fails in loadBdds, whose offsets must count from the start of the
  // snapshot, not of the dump.
  BddManager src;
  for (unsigned i = 0; i < 4; ++i) src.newVar();
  const Bdd common = src.var(1) ^ src.var(2);
  EngineSnapshot snap;
  snap.method = Method::kXici;
  snap.iteration = 2;
  snap.numbers = {7};
  snap.lists = {{src.var(0) & common, !common}, {src.var(3) | common}};
  std::ostringstream os;
  saveSnapshot(os, src, snap);
  const std::string bytes = os.str();
  const std::size_t dumpStart = bytes.find("icbdd-bdd-v3\n");
  ASSERT_NE(dumpStart, std::string::npos);
  {
    BddManager mgr;
    std::istringstream in(bytes);
    EXPECT_EQ(loadSnapshot(in, mgr).lists.size(), 2u);
  }

  const auto expectTyped = [&](const std::string& bad, std::size_t damageAt,
                               const std::string& what) {
    BddManager mgr;
    std::istringstream in(bad);
    try {
      (void)loadSnapshot(in, mgr);
      ADD_FAILURE() << what << " loaded successfully";
    } catch (const SerializeError& err) {
      EXPECT_LE(err.byteOffset(), bytes.size()) << what << ": " << err.what();
      if (damageAt >= dumpStart) {
        EXPECT_GE(err.byteOffset(), dumpStart) << what << ": " << err.what();
      }
    }
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    expectTyped(bytes.substr(0, cut), cut,
                "prefix of " + std::to_string(cut) + " bytes");
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    expectTyped(bad, i, "flip at byte " + std::to_string(i));
  }
}

TEST(CheckpointResume, SnapshotWithOldTextDumpIsRejectedTyped) {
  // A snapshot written before the dump format became binary embeds a text
  // icbdd-bdd-v2 dump; it is refused by the dump's magic, at its offset.
  const std::string header =
      "icbdd-ckpt-v1\nmethod Fwd\niteration 1\nnumbers 0\nlists 1 1\n";
  const std::string oldDump =
      "icbdd-bdd-v2\nvars 1\nv 0 x\norder 0\nnodes 1\nn 0 0 T F\n"
      "roots 1\nr 0\n";
  BddManager mgr;
  std::istringstream in(header + oldDump);
  try {
    (void)loadSnapshot(in, mgr);
    FAIL() << "old-format snapshot loaded";
  } catch (const SerializeError& err) {
    EXPECT_NE(std::string(err.what()).find("bad magic 'icbdd-bdd-v2'"),
              std::string::npos)
        << err.what();
    EXPECT_EQ(err.byteOffset(), header.size());
  }
}

TEST(CheckpointResume, DeadlineKilledRunResumesToBaselineVerdict) {
  // The service's crash story end-to-end at the engine level: a run killed
  // mid-flight leaves a journaled checkpoint; resuming finishes with the
  // uninterrupted run's verdict and count.  The kill is the cancel flag,
  // raised by the checkpoint sink after the second snapshot, so every build
  // cuts the run at the same iteration however fast it runs; a wall-clock
  // deadline fired before the first snapshot under the sanitizers.
  const Case c{"network", Method::kFwd, 4, 0, false};
  const svc::JobRequest req = requestFor(c);

  BddManager baseMgr(svc::bddOptionsFor(req));
  ModelInstance baseModel = svc::buildJobModel(baseMgr, req);
  const EngineResult base = runMethod(*baseModel.fsm, c.method,
                                      baseModel.fdCandidates,
                                      svc::engineOptionsFor(req));

  std::vector<std::string> snapshots;
  BddManager killMgr(svc::bddOptionsFor(req));
  ModelInstance killModel = svc::buildJobModel(killMgr, req);
  std::atomic<bool> kill{false};
  EngineOptions killOptions = svc::engineOptionsFor(req);
  killOptions.cancelFlag = &kill;
  killOptions.checkpoint.everyIterations = 1;
  killOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, killMgr, snap);
    snapshots.push_back(os.str());
    if (snapshots.size() == 2) kill.store(true);
  };
  const EngineResult killed = runMethod(*killModel.fsm, c.method,
                                        killModel.fdCandidates, killOptions);
  ASSERT_EQ(killed.verdict, Verdict::kTimeLimit);
  ASSERT_EQ(snapshots.size(), 2u);
  ASSERT_GT(base.iterations, killed.iterations);

  BddManager resMgr(svc::bddOptionsFor(req));
  ModelInstance resModel = svc::buildJobModel(resMgr, req);
  std::istringstream in(snapshots.back());
  const EngineSnapshot snapshot = loadSnapshot(in, resMgr);
  EngineOptions resOptions = svc::engineOptionsFor(req);
  resOptions.checkpoint.resume = &snapshot;
  const EngineResult resumed = runMethod(*resModel.fsm, c.method,
                                         resModel.fdCandidates, resOptions);
  EXPECT_EQ(resumed.verdict, base.verdict);
  EXPECT_EQ(resumed.iterations, base.iterations);
}

}  // namespace
}  // namespace icb
