// Regression pins for the headline paper reproductions (see EXPERIMENTS.md).
// These are the cells of Tables 1-3 that this implementation reproduces
// EXACTLY, plus Table 3's small XICI cells pinned to our own numbers; if a
// change to the policies, the simplifier or the variable ordering moves any
// of them, this file fails loudly.
#include <gtest/gtest.h>

#include <algorithm>

#include "models/avg_filter.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"
#include "models/typed_fifo.hpp"
#include "verif/run_all.hpp"

namespace icb {
namespace {

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(PaperNumbers, Table1FifoMonolithicConjunction) {
  // Paper Table 1: Fwd/Bkwd "BDD Nodes" = 543 at depth 5, 32767 at depth 10.
  {
    BddManager mgr;
    TypedFifoModel model(mgr, {.depth = 5, .width = 8});
    EXPECT_EQ(model.fsm().property(false).evaluate().size(), 543u);
  }
  {
    BddManager mgr;
    TypedFifoModel model(mgr, {.depth = 10, .width = 8});
    EXPECT_EQ(model.fsm().property(false).evaluate().size(), 32767u);
  }
}

TEST(PaperNumbers, Table1FifoImplicitLists) {
  // Paper: ICI/XICI 41 nodes "(5 x 9 nodes)" and 81 "(10 x 9 nodes)",
  // converging in one iteration.
  for (const unsigned depth : {5u, 10u}) {
    for (const Method m : {Method::kIci, Method::kXici}) {
      BddManager mgr;
      TypedFifoModel model(mgr, {.depth = depth, .width = 8});
      const EngineResult r = runMethod(model.fsm(), m, {});
      ASSERT_EQ(r.verdict, Verdict::kHolds);
      EXPECT_EQ(r.iterations, 1u);
      EXPECT_EQ(r.peakIterateNodes, depth == 5 ? 41u : 81u);
      ASSERT_EQ(r.peakIterateMemberSizes.size(), depth);
      for (const auto s : r.peakIterateMemberSizes) EXPECT_EQ(s, 9u);
    }
  }
}

TEST(PaperNumbers, Table1FifoForwardIterations) {
  // Paper: 6 iterations at depth 5, 11 at depth 10.
  for (const unsigned depth : {5u, 10u}) {
    BddManager mgr;
    TypedFifoModel model(mgr, {.depth = depth, .width = 8});
    const EngineResult r = runForward(model.fsm());
    ASSERT_EQ(r.verdict, Verdict::kHolds);
    EXPECT_EQ(r.iterations, depth + 1);
    EXPECT_EQ(r.peakIterateNodes, depth == 5 ? 543u : 32767u);
  }
}

TEST(PaperNumbers, Table1FilterWithAssists) {
  // Paper: ICI/XICI converge in 1 iteration at 146 (45+102) for depth 4 and
  // 638 (81+169+390... the paper prints 390,169,81 plus sharing) for 8.
  struct Expect {
    unsigned depth;
    std::uint64_t total;
    std::vector<std::uint64_t> members;
  };
  for (const Expect& e :
       {Expect{4, 146, {45, 102}}, Expect{8, 638, {81, 169, 390}}}) {
    for (const Method m : {Method::kIci, Method::kXici}) {
      BddManager mgr;
      AvgFilterModel model(mgr, {.depth = e.depth, .sampleWidth = 8});
      EngineOptions options;
      options.withAssists = true;
      options.maxNodes = 24'000'000;
      options.timeLimitSeconds = 120;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      options.timeLimitSeconds *= 10;  // sanitizer slowdown headroom
#endif
      const EngineResult r = runMethod(model.fsm(), m, {}, options);
      ASSERT_EQ(r.verdict, Verdict::kHolds) << methodName(m);
      EXPECT_EQ(r.iterations, 1u) << methodName(m);
      EXPECT_EQ(r.peakIterateNodes, e.total) << methodName(m);
      EXPECT_EQ(sorted(r.peakIterateMemberSizes), e.members) << methodName(m);
    }
  }
}

TEST(PaperNumbers, Table2XiciDerivesTheLemmasAutomatically) {
  // Paper Table 2 (the headline): without assists, XICI reaches the same
  // 146/638 lists in 2/3 iterations.
  struct Expect {
    unsigned depth;
    unsigned iters;
    std::uint64_t total;
    std::vector<std::uint64_t> members;
  };
  for (const Expect& e :
       {Expect{4, 2, 146, {45, 102}}, Expect{8, 3, 638, {81, 169, 390}}}) {
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = e.depth, .sampleWidth = 8});
    EngineOptions options;
    options.withAssists = false;
    options.maxNodes = 24'000'000;
    options.timeLimitSeconds = 120;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    options.timeLimitSeconds *= 10;  // sanitizer slowdown headroom
#endif
    const EngineResult r = runXiciBackward(model.fsm(), options);
    ASSERT_EQ(r.verdict, Verdict::kHolds);
    EXPECT_EQ(r.iterations, e.iters);
    EXPECT_EQ(r.peakIterateNodes, e.total);
    EXPECT_EQ(sorted(r.peakIterateMemberSizes), e.members);
  }
}

TEST(PaperNumbers, Table2IciDegeneratesToBackward) {
  // Paper Table 2 at depth 4: the ICI row equals the Bkwd row when no user
  // partition exists.
  BddManager m1;
  AvgFilterModel a(m1, {.depth = 4, .sampleWidth = 8});
  const EngineResult bkwd = runBackward(a.fsm());
  BddManager m2;
  AvgFilterModel b(m2, {.depth = 4, .sampleWidth = 8});
  const EngineResult ici = runIciBackward(b.fsm());
  ASSERT_EQ(bkwd.verdict, Verdict::kHolds);
  ASSERT_EQ(ici.verdict, Verdict::kHolds);
  EXPECT_EQ(bkwd.peakIterateNodes, 490u);  // the paper's exact cell
  EXPECT_EQ(ici.peakIterateNodes, bkwd.peakIterateNodes);
}

TEST(PaperNumbers, Table3PipelineXiciSmallCells) {
  // Table 3's (2R, 1B..3B) XICI cells: 3 iterations each.  The paper prints
  // 10745, 8485 and 57510 nodes in 4 iterations under Ever's encoding
  // (EXPERIMENTS.md); ours are pinned so drift is visible.
  struct Expect {
    unsigned width;
    std::uint64_t total;
    std::vector<std::uint64_t> members;
  };
  for (const Expect& e : {Expect{1, 1185, {1185}}, Expect{2, 5739, {179, 5562}},
                          Expect{3, 11294, {296, 11000}}}) {
    BddManager mgr;
    PipelineCpuModel model(mgr, {.registers = 2, .width = e.width});
    EngineOptions options;
    options.maxNodes = 24'000'000;
    options.timeLimitSeconds = 120;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    options.timeLimitSeconds *= 10;  // sanitizer slowdown headroom
#endif
    const EngineResult r = runXiciBackward(model.fsm(), options);
    ASSERT_EQ(r.verdict, Verdict::kHolds) << e.width << "B";
    EXPECT_EQ(r.iterations, 3u) << e.width << "B";
    EXPECT_EQ(r.peakIterateNodes, e.total) << e.width << "B";
    EXPECT_EQ(sorted(r.peakIterateMemberSizes), e.members) << e.width << "B";
  }
}

TEST(PaperNumbers, NetworkPerProcessorConjunctSizes) {
  // Paper: 4 conjuncts of 62 nodes at n=4, 7 of 156 at n=7; ours measure
  // 60/154 under our slot-field ordering -- pinned so drift is visible.
  for (const unsigned n : {4u, 7u}) {
    BddManager mgr;
    NetworkModel model(mgr, {.processors = n});
    const ConjunctList prop = model.fsm().property(false);
    ASSERT_EQ(prop.size(), n);
    for (const auto s : prop.memberSizes()) {
      EXPECT_EQ(s, n == 4 ? 60u : 154u);
    }
  }
}

}  // namespace
}  // namespace icb
