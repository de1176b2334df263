// icbdd-trace: run one model/method with JSONL tracing and summarize.
//
// The tool demonstrates the full obs/ round trip: it installs a TraceSink
// on a file (or keeps the one ICBDD_TRACE configured), runs the chosen
// engine, then parses its own JSONL back and prints a digest -- slowest
// phases, conjunct-size growth across the backward-image iterations, and
// the cache hit rates from the run's metrics.
//
//   icbdd_trace [--model fifo|mutex|network|filter|pipeline]
//               [--method fwd|bkwd|fd|ici|xici] [--out run.jsonl] [--keep]
//
// The trace file is left on disk (default trace.jsonl, or --out) so it can
// be inspected or fed to jq; docs/observability.md documents the schema.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "models/avg_filter.hpp"
#include "models/mutex_ring.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"
#include "models/typed_fifo.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "verif/run_all.hpp"

using namespace icb;

namespace {

struct ModelUnderTest {
  std::shared_ptr<void> holder;  // keeps the model (and its Fsm) alive
  Fsm* fsm = nullptr;
  std::vector<unsigned> fdCandidates;
};

/// Small, fast configurations -- the point is the trace, not the table.
ModelUnderTest buildModel(BddManager& mgr, const std::string& name) {
  ModelUnderTest out;
  if (name == "fifo") {
    auto m = std::make_shared<TypedFifoModel>(mgr, TypedFifoConfig{3, 4, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (name == "mutex") {
    auto m = std::make_shared<MutexRingModel>(mgr, MutexRingConfig{3, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (name == "network") {
    auto m = std::make_shared<NetworkModel>(mgr, NetworkConfig{3, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (name == "filter") {
    auto m = std::make_shared<AvgFilterModel>(mgr, AvgFilterConfig{2, 4, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (name == "pipeline") {
    auto m = std::make_shared<PipelineCpuModel>(mgr, PipelineCpuConfig{2, 1, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  }
  return out;
}

void summarize(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot reopen trace '%s'\n", path.c_str());
    return;
  }
  const std::vector<obs::JsonValue> events = obs::parseJsonLines(in);

  struct Span {
    std::string phase;
    std::uint64_t iter = 0;
    double wallSeconds = 0.0;
  };
  std::vector<Span> spans;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> conjunctSizes;

  for (const obs::JsonValue& ev : events) {
    if (ev.find("ev") == nullptr) continue;
    if (ev.find("ev")->textOr("") != "phase_end") continue;
    Span s;
    s.phase = ev.find("phase") != nullptr ? ev.find("phase")->textOr("?") : "?";
    s.iter = static_cast<std::uint64_t>(
        ev.find("iter") != nullptr ? ev.find("iter")->numberOr(0.0) : 0.0);
    s.wallSeconds =
        ev.find("wall_s") != nullptr ? ev.find("wall_s")->numberOr(0.0) : 0.0;
    spans.push_back(s);
    if (const obs::JsonValue* sizes = ev.find("conjunct_sizes");
        sizes != nullptr && !sizes->items.empty()) {
      std::vector<double> members;
      members.reserve(sizes->items.size());
      for (const obs::JsonValue& m : sizes->items) members.push_back(m.numberOr(0.0));
      conjunctSizes.emplace_back(s.iter, std::move(members));
    }
  }

  std::printf("\ntrace summary (%zu events, %zu phase spans)\n", events.size(),
              spans.size());

  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.wallSeconds > b.wallSeconds;
  });
  std::printf("  slowest phases:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, spans.size()); ++i) {
    std::printf("    %-12s iter %-4llu %.6fs\n", spans[i].phase.c_str(),
                static_cast<unsigned long long>(spans[i].iter),
                spans[i].wallSeconds);
  }

  if (!conjunctSizes.empty()) {
    std::printf("  conjunct sizes per iteration:\n");
    for (const auto& [iter, members] : conjunctSizes) {
      std::printf("    iter %-4llu [", static_cast<unsigned long long>(iter));
      for (std::size_t i = 0; i < members.size(); ++i) {
        std::printf("%s%.0f", i == 0 ? "" : ", ", members[i]);
      }
      std::printf("]\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"model", "method", "out"});
  const std::string modelName = args.getString("model", "mutex");
  const std::string path = args.getString("out", "trace.jsonl");

  BddManager mgr;
  ModelUnderTest model = buildModel(mgr, modelName);
  if (model.fsm == nullptr) {
    std::fprintf(stderr,
                 "unknown model '%s' (fifo|mutex|network|filter|pipeline)\n",
                 modelName.c_str());
    return 2;
  }

  Method method = Method::kXici;
  try {
    method = parseMethod(args.getString("method", "xici"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  obs::TraceSink sink(path);
  EngineOptions options;
  options.traceSink = &sink;
  const EngineResult run =
      runMethod(*model.fsm, method, model.fdCandidates, options);

  std::printf("model %s via %s: %s after %u iterations (%llu peak nodes)\n",
              modelName.c_str(), methodName(method), verdictName(run.verdict),
              run.iterations,
              static_cast<unsigned long long>(run.peakIterateNodes));
  std::printf("trace: %s (%llu lines, %.6fs writing)\n", path.c_str(),
              static_cast<unsigned long long>(sink.linesWritten()),
              sink.writeSeconds());
  std::printf("run metrics:\n");
  run.metrics.print(std::cout);

  summarize(path);
  return run.holds() || run.violated() ? 0 : 1;
}
