// The five verification engines on small hand-built machines with known
// answers, including cross-engine agreement and resource-limit verdicts.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <ostream>
#include <streambuf>
#include <string>

#include "check/check.hpp"
#include "obs/trace.hpp"
#include "sym/bitvector.hpp"
#include "verif/counterexample.hpp"
#include "verif/run_all.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

/// A width-bit saturating counter: input `go` increments until all ones.
/// Reachable states: everything (eventually); property options below.
struct Counter {
  std::unique_ptr<Fsm> fsm;
  std::vector<unsigned> bits;
};

Counter makeCounter(BddManager& mgr, unsigned width, unsigned cap,
                    bool propertyHolds) {
  Counter c;
  c.fsm = std::make_unique<Fsm>(mgr);
  VarManager& vars = c.fsm->vars();
  const unsigned go = vars.addInputBit("go");
  for (unsigned j = 0; j < width; ++j) {
    c.bits.push_back(vars.addStateBit("c" + std::to_string(j)));
  }
  BitVec v;
  for (unsigned j = 0; j < width; ++j) v.push(vars.cur(c.bits[j]));
  // Saturate at `cap`: stop incrementing once the counter reaches it.
  const Bdd atCap = eqConst(v, cap);
  const BitVec next = mux(vars.input(go) & !atCap, incTrunc(v), v);
  for (unsigned j = 0; j < width; ++j) c.fsm->setNext(c.bits[j], next.bit(j));
  c.fsm->setInit(eqConst(v, 0));
  // Holds: counter <= cap.  Violated: counter < cap (cap itself reachable).
  c.fsm->addInvariant(propertyHolds ? uleConst(v, cap)
                                    : ult(v, BitVec::constant(mgr, width, cap)));
  return c;
}

class EngineAgreement : public ::testing::TestWithParam<Method> {};

TEST_P(EngineAgreement, HoldsOnSafeCounter) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 3, 5, /*propertyHolds=*/true);
  const EngineResult r = runMethod(*c.fsm, GetParam(), {});
  EXPECT_EQ(r.verdict, Verdict::kHolds) << methodName(GetParam());
  EXPECT_GT(r.peakIterateNodes, 0u);
  EXPECT_GT(r.peakAllocatedNodes, 0u);
}

TEST_P(EngineAgreement, ViolatedOnUnsafeCounter) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 3, 5, /*propertyHolds=*/false);
  const EngineResult r = runMethod(*c.fsm, GetParam(), {});
  EXPECT_EQ(r.verdict, Verdict::kViolated) << methodName(GetParam());
}

TEST_P(EngineAgreement, TraceIsValidWhenProduced) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 3, 5, /*propertyHolds=*/false);
  EngineOptions options;
  options.wantTrace = true;
  const EngineResult r = runMethod(*c.fsm, GetParam(), {}, options);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  if (r.trace.has_value()) {
    const std::string err =
        validateTrace(*c.fsm, *r.trace, c.fsm->property(false));
    EXPECT_EQ(err, "") << methodName(GetParam());
    // Reaching 5 from 0 takes exactly 5 increments.
    EXPECT_EQ(r.trace->states.size(), 6u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, EngineAgreement,
                         ::testing::Values(Method::kFwd, Method::kBkwd,
                                           Method::kFd, Method::kIci,
                                           Method::kXici),
                         [](const ::testing::TestParamInfo<Method>& paramInfo) {
                           return methodName(paramInfo.param);
                         });

TEST(Engines, ForwardIterationCountMatchesDiameter) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 3, 5, true);
  const EngineResult r = runForward(*c.fsm);
  // 5 images add states, the 6th finds nothing new.
  EXPECT_EQ(r.iterations, 6u);
}

TEST(Engines, BackwardConvergesInOneIterationOnInductiveInvariant) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 3, 5, true);
  const EngineResult r = runBackward(*c.fsm);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Engines, NodeLimitVerdict) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 8, 200, true);
  EngineOptions options;
  options.maxNodes = 50;  // absurdly small
  const EngineResult r = runForward(*c.fsm, options);
  EXPECT_EQ(r.verdict, Verdict::kNodeLimit);
  // Manager still usable afterwards.
  mgr.gc();
  mgr.checkInvariants();
}

TEST(Engines, TimeLimitVerdict) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 10, 1000, true);
  EngineOptions options;
  options.timeLimitSeconds = 1e-9;
  const EngineResult r = runForward(*c.fsm, options);
  EXPECT_EQ(r.verdict, Verdict::kTimeLimit);
}

TEST(Engines, IterationLimitVerdict) {
  BddManager mgr;
  Counter c = makeCounter(mgr, 6, 50, true);
  EngineOptions options;
  options.maxIterations = 2;
  const EngineResult r = runForward(*c.fsm, options);
  EXPECT_EQ(r.verdict, Verdict::kIterationLimit);
}

TEST(Engines, MethodNamesAndParsing) {
  EXPECT_EQ(parseMethod("fwd"), Method::kFwd);
  EXPECT_EQ(parseMethod("XICI"), Method::kXici);
  EXPECT_EQ(parseMethod("Bkwd"), Method::kBkwd);
  EXPECT_THROW(parseMethod("nonsense"), std::invalid_argument);
  EXPECT_EQ(allMethods().size(), 5u);
  for (const Method m : allMethods()) {
    EXPECT_NE(std::string(methodName(m)), "?");
  }
}

TEST(Engines, VerdictHelpers) {
  EXPECT_FALSE(verdictExceeded(Verdict::kHolds));
  EXPECT_FALSE(verdictExceeded(Verdict::kViolated));
  EXPECT_TRUE(verdictExceeded(Verdict::kNodeLimit));
  EXPECT_TRUE(verdictExceeded(Verdict::kTimeLimit));
  EXPECT_TRUE(verdictExceeded(Verdict::kIterationLimit));
}

TEST(Engines, XiciTerminationStatsPopulated) {
  // The violated counter never converges syntactically, so every iteration
  // exercises the exact equality test before the violation is found.
  BddManager mgr;
  Counter c = makeCounter(mgr, 4, 9, false);
  const EngineResult r = runXiciBackward(*c.fsm);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_GT(r.terminationStats.tautologyCalls, 0u);
  EXPECT_GT(r.terminationStats.implicationChecks, 0u);
}

TEST(Engines, XiciMonotoneCheckAtFullLevel) {
  // XICI's convergence test checks only G_i => G_{i+1}; at kFull it also
  // checks G_{i+1} => G_i, which a real chain always passes...
  unsigned offIterations = 0;
  for (const CheckLevel level : {CheckLevel::kOff, CheckLevel::kFull}) {
    const test::ScopedCheckLevel scope(level);
    BddManager mgr;
    Counter c = makeCounter(mgr, 4, 9, true);
    const EngineResult r = runXiciBackward(*c.fsm);
    EXPECT_EQ(r.verdict, Verdict::kHolds);
    if (level == CheckLevel::kOff) offIterations = r.iterations;
    EXPECT_EQ(r.iterations, offIterations);
  }

  // ...and a chain resumed from forged layers fails.  With a toggling bit a
  // and a constant bit b, G_0 = !b and the forged layer !b & !a give
  // G_2 = !b & a, which does not imply !b & !a.
  const test::ScopedCheckLevel scope(CheckLevel::kFull);
  BddManager mgr;
  Fsm fsm(mgr);
  VarManager& vars = fsm.vars();
  const unsigned a = vars.addStateBit("a");
  const unsigned b = vars.addStateBit("b");
  fsm.setNext(a, !vars.cur(a));
  fsm.setNext(b, vars.cur(b));
  fsm.setInit((!vars.cur(a)) & (!vars.cur(b)));
  fsm.addInvariant(!vars.cur(b));
  EngineSnapshot forged;
  forged.method = Method::kXici;
  forged.iteration = 1;
  forged.lists = {{!vars.cur(b)}, {!vars.cur(b)}, {(!vars.cur(b)) & (!vars.cur(a))}};
  EngineOptions options;
  options.checkpoint.resume = &forged;
  EXPECT_THROW((void)runXiciBackward(fsm, options), CheckFailure);
}

/// Runs `onLine` on every trace line written through it.
class TraceLineHook : public std::streambuf {
 public:
  explicit TraceLineHook(std::function<void(const std::string&)> onLine)
      : onLine_(std::move(onLine)) {}

 protected:
  int overflow(int ch) override {
    if (ch == '\n') {
      onLine_(line_);
      line_.clear();
    } else if (ch != traits_type::eof()) {
      line_.push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  std::function<void(const std::string&)> onLine_;
  std::string line_;
};

TEST(Engines, XiciCapsFireInsideTerminationTest) {
  // The termination test builds no node, so mk() never polls the caps for
  // it; it polls them once per expansion itself.  Cancel (or expire the
  // deadline) as the first iteration closes: the next poll is the first
  // expansion of that iteration's termination test.
  const test::ScopedCheckLevel scope(CheckLevel::kOff);
  for (const bool cancel : {true, false}) {
    BddManager mgr;
    Counter c = makeCounter(mgr, 4, 9, false);  // never converges syntactically
    std::atomic<bool> cancelFlag{false};
    bool terminationEvent = false;
    TraceLineHook hook([&](const std::string& line) {
      if (line.find("\"ev\":\"termination\"") != std::string::npos) {
        terminationEvent = true;
      }
      if (line.find("\"ev\":\"phase_end\"") == std::string::npos) return;
      if (cancel) {
        cancelFlag.store(true);
      } else {
        ResourceLimits limits = mgr.limits();
        limits.deadline = Deadline::afterSeconds(-1.0);
        mgr.setLimits(limits);
      }
    });
    std::ostream out(&hook);
    obs::TraceSink sink(out);
    EngineOptions options;
    options.traceSink = &sink;
    options.cancelFlag = &cancelFlag;
    options.timeLimitSeconds = 600;
    const EngineResult r = runXiciBackward(*c.fsm, options);
    EXPECT_EQ(r.verdict, Verdict::kTimeLimit) << cancel;
    EXPECT_EQ(r.iterations, 1u) << cancel;
    EXPECT_FALSE(terminationEvent) << cancel;
    EXPECT_EQ(r.terminationStats.shannonExpansions, 1u) << cancel;
  }
}

TEST(Engines, MultiConjunctPropertyAllEnginesAgree) {
  // Two independent counters; property = both stay in range (2 conjuncts).
  BddManager mgr;
  Fsm fsm(mgr);
  VarManager& vars = fsm.vars();
  const unsigned go = vars.addInputBit("go");
  std::vector<unsigned> a;
  std::vector<unsigned> b;
  for (unsigned j = 0; j < 3; ++j) a.push_back(vars.addStateBit("a" + std::to_string(j)));
  for (unsigned j = 0; j < 3; ++j) b.push_back(vars.addStateBit("b" + std::to_string(j)));
  BitVec va;
  BitVec vb;
  for (unsigned j = 0; j < 3; ++j) va.push(vars.cur(a[j]));
  for (unsigned j = 0; j < 3; ++j) vb.push(vars.cur(b[j]));
  const BitVec na = mux(vars.input(go) & !eqConst(va, 6), incTrunc(va), va);
  const BitVec nb = mux((!vars.input(go)) & !eqConst(vb, 3), incTrunc(vb), vb);
  for (unsigned j = 0; j < 3; ++j) {
    fsm.setNext(a[j], na.bit(j));
    fsm.setNext(b[j], nb.bit(j));
  }
  fsm.setInit(eqConst(va, 0) & eqConst(vb, 0));
  fsm.addInvariant(uleConst(va, 6));
  fsm.addInvariant(uleConst(vb, 3));

  for (const Method m : allMethods()) {
    const EngineResult r = runMethod(fsm, m, {});
    EXPECT_EQ(r.verdict, Verdict::kHolds) << methodName(m);
  }
}

}  // namespace
}  // namespace icb
