// icbdd-doctor: full invariant audit of the BDD core and the ICI layer.
//
// Exercises a model (or loads a saved BDD dump), then turns every checker
// in src/check/ loose on the resulting manager:
//
//   * StructuralChecker -- arena walk, canonical form, unique-table
//     completeness, free-list and GC-root consistency;
//   * CacheAuditor      -- computed-cache validity scan plus sampled
//     re-execution of cached operator results;
//   * IciChecker        -- the property list must denote the same set after
//     Restrict-based simplification (paper Section III.A), and a pairwise
//     conjunction table must match freshly computed P_ij (Figure 1).
//
// Exit status: 0 when every audit is clean, 1 when any violation is found,
// 2 on usage errors.  Run it when the package misbehaves and you need to
// know whether the core's invariants still stand.
//
//   icbdd_doctor --model fifo|mutex|network|filter|pipeline|all
//                [--method xici] [--jobs N] [--metrics-prom]
//                [--auto-reorder true] [--reorder-trigger K]
//   icbdd_doctor --bdd dump.bdd
//   icbdd_doctor --dump-store dump.bdd
//   icbdd_doctor --job spec.json       (one icbdd-svc-v1 request object)
//
// --dump-store is the human view of a saved icbdd-bdd-v3 dump: its header,
// one `n <id> <var> <hi> <lo>` line per node record and one `r <ref>` line
// per root (references are T, F, or [!]<id> of an earlier node), then,
// after loading it, the store's occupancy: arena bytes and refcount
// side-table size.
//
// --model all audits every machine; --jobs N runs the model cells on the
// parallel verification scheduler (each with a private manager), with the
// reports printed in model order regardless of completion order.
// --metrics-prom additionally prints the run's metrics registry in
// Prometheus text exposition -- the same rendering `icbdd_serve
// --metrics-port` serves at /metrics, so the format can be eyeballed (or
// grammar-checked in CI) without starting the service.
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/serialize.hpp"
#include "check/cache_auditor.hpp"
#include "check/check.hpp"
#include "check/ici_checker.hpp"
#include "check/structural_checker.hpp"
#include "ici/simplify.hpp"
#include "models/avg_filter.hpp"
#include "models/mutex_ring.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"
#include "models/typed_fifo.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "svc/job.hpp"
#include "util/cli.hpp"
#include "verif/run_all.hpp"

using namespace icb;

namespace {

/// Writes one audit's outcome into `os` and returns its violation count.
/// The audits render into a stream (not straight to stdout) so parallel
/// --model all cells can aggregate their reports in model order.
std::size_t reportAudit(std::ostream& os, const char* what,
                        const CheckReport& report) {
  os << "  " << std::left << std::setw(22) << what << ' ' << report.summary()
     << '\n';
  return report.violations.size();
}

std::size_t auditCore(BddManager& mgr, std::ostream& os) {
  std::size_t bad = 0;
  bad += reportAudit(os, "structural",
                     StructuralChecker(mgr).run(CheckLevel::kFull));
  bad += reportAudit(os, "computed cache", CacheAuditor(mgr).audit());
  return bad;
}

/// The ICI-layer audit: simplification must preserve the denoted set, and a
/// pairwise table over the list must agree with fresh conjunctions.
std::size_t auditIciLayer(BddManager& mgr, const ConjunctList& property,
                          std::ostream& os) {
  std::size_t bad = 0;
  const IciChecker checker(mgr);

  ConjunctList simplified = property;
  simplifyList(simplified);
  bad += reportAudit(os, "simplify denotation",
                     checker.checkDenotationPreserved(property, simplified));

  if (simplified.size() >= 2) {
    const PairTable table(mgr, simplified.items());
    bad += reportAudit(os, "pair table", checker.checkPairTable(table));
  }
  return bad;
}

struct ModelUnderTest {
  std::shared_ptr<void> holder;  // keeps the model (and its Fsm) alive
  Fsm* fsm = nullptr;
  std::vector<unsigned> fdCandidates;
};

/// Builds one of the five example machines at a small, fast configuration:
/// the doctor's job is to exercise every code path, not to reproduce the
/// paper's table sizes.
ModelUnderTest buildModel(BddManager& mgr, const std::string& name) {
  ModelUnderTest out;
  if (name == "fifo") {
    auto m = std::make_shared<TypedFifoModel>(mgr,
                                              TypedFifoConfig{3, 4, false});
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
    auto m = std::make_shared<AvgFilterModel>(mgr,
                                              AvgFilterConfig{2, 4, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  } else if (name == "pipeline") {
    auto m = std::make_shared<PipelineCpuModel>(mgr,
                                                PipelineCpuConfig{2, 1, false});
    out.fsm = &m->fsm();
    out.fdCandidates = m->fdCandidates();
    out.holder = std::move(m);
  }
  return out;
}

/// One model's full report text plus its violation count.
struct ModelAudit {
  std::string text;
  std::size_t violations = 0;
};

/// Runs one model end-to-end in a private manager, audits it, and renders
/// the report into `audit`.  Safe to call concurrently for different models.
EngineResult doctorOneModel(const std::string& name, Method method,
                            const EngineOptions& engineOptions,
                            const BddOptions& bddOptions, ModelAudit& audit) {
  std::ostringstream os;
  BddManager mgr(bddOptions);
  ModelUnderTest model = buildModel(mgr, name);
  if (model.fsm == nullptr) {
    throw std::invalid_argument("unknown model '" + name + "'");
  }

  // Exercise the full pipeline first so the audits see a manager that has
  // actually worked: images, caches, GC, and the ICI machinery.
  const EngineResult run =
      runMethod(*model.fsm, method, model.fdCandidates, engineOptions);
  os << "model " << name << " via " << icb::methodName(method) << ": "
     << (run.holds() ? "property holds" : "property NOT proven") << " after "
     << run.iterations << " iterations (" << run.peakIterateNodes
     << " peak nodes)\n";

  std::size_t bad = auditCore(mgr, os);
  bad += auditIciLayer(mgr, model.fsm->property(true), os);

  // The run's counter snapshot: when the diagnosis is CORRUPT, the metrics
  // often localize the misbehaving layer before any debugger is attached.
  os << "run metrics:\n";
  run.metrics.print(os);

  audit.text = os.str();
  audit.violations = bad;
  return run;
}

int doctorModel(const std::string& name, Method method,
                const BddOptions& bddOptions, bool metricsProm) {
  {
    BddManager probe;
    if (buildModel(probe, name).fsm == nullptr) {
      std::fprintf(stderr,
                   "unknown model '%s' (fifo|mutex|network|filter|pipeline|all)\n",
                   name.c_str());
      return 2;
    }
  }

  ModelAudit audit;
  const EngineResult run =
      doctorOneModel(name, method, EngineOptions{}, bddOptions, audit);
  std::cout << audit.text;
  if (metricsProm) {
    // The exact bytes icbdd_serve's /metrics endpoint would expose for this
    // registry -- CI grammar-checks this output.
    std::cout << obs::prometheusRender(run.metrics);
  }
  std::printf("diagnosis: %s\n", audit.violations == 0 ? "CLEAN" : "CORRUPT");
  return audit.violations == 0 ? 0 : 1;
}

/// --model all: every machine as one scheduler cell, each with its own
/// manager.  Reports print in model order whatever the completion order.
int doctorAllModels(Method method, unsigned jobs,
                    const BddOptions& bddOptions) {
  const std::vector<std::string> names{"fifo", "mutex", "network", "filter",
                                       "pipeline"};
  std::vector<ModelAudit> audits(names.size());

  par::SchedulerOptions schedOptions;
  schedOptions.jobs = jobs;
  par::VerifyScheduler scheduler(schedOptions);
  for (std::size_t i = 0; i < names.size(); ++i) {
    scheduler.submit(names[i], method,
                     [i, method, &names, &audits,
                      &bddOptions](const par::CellContext& ctx) {
                       EngineOptions options;
                       ctx.apply(options);
                       // Each cell writes only audits[i]; aggregation below
                       // reads after run() returns, so no synchronization is
                       // needed beyond the scheduler's own join.
                       return doctorOneModel(names[i], method, options,
                                             bddOptions, audits[i]);
                     });
  }

  std::size_t bad = 0;
  bool skippedAny = false;
  for (const par::CellResult& cell : scheduler.run()) {
    if (cell.skipped) {
      std::printf("model %s: skipped (%s)\n", cell.group.c_str(),
                  cell.skipReason.c_str());
      skippedAny = true;
      continue;
    }
    std::cout << audits[cell.index].text;
    bad += audits[cell.index].violations;
  }
  std::printf("diagnosis: %s\n",
              bad == 0 && !skippedAny ? "CLEAN"
              : bad == 0              ? "INCOMPLETE"
                                      : "CORRUPT");
  return bad == 0 && !skippedAny ? 0 : 1;
}

/// --job spec.json: an icbdd-svc-v1 request object drives the audit through
/// the service's own parser and model builder, so the request schema has a
/// second consumer and cannot drift from what icbdd_serve accepts.
int doctorJob(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  svc::JobRequest request;
  try {
    request = svc::parseJobRequest(obs::parseJson(text.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad job spec '%s': %s\n", path.c_str(), e.what());
    return 2;
  }

  std::ostringstream os;
  std::size_t bad = 0;
  try {
    BddManager mgr(svc::bddOptionsFor(request));
    ModelInstance model = svc::buildJobModel(mgr, request);
    const EngineResult run = runMethod(*model.fsm, request.method,
                                       model.fdCandidates,
                                       svc::engineOptionsFor(request));
    os << "job " << request.id << ": model " << request.model << " via "
       << icb::methodName(request.method) << ": "
       << (run.holds() ? "property holds" : "property NOT proven") << " after "
       << run.iterations << " iterations (" << run.peakIterateNodes
       << " peak nodes)\n";
    bad = auditCore(mgr, os);
    bad += auditIciLayer(mgr, model.fsm->property(true), os);
    os << "run metrics:\n";
    run.metrics.print(os);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "job '%s' failed: %s\n", request.id.c_str(),
                 e.what());
    return 2;
  }
  std::cout << os.str();
  std::printf("diagnosis: %s\n", bad == 0 ? "CLEAN" : "CORRUPT");
  return bad == 0 ? 0 : 1;
}

/// A dump reference in the T / F / [!]<id> notation of --dump-store.
std::string dumpRef(std::uint32_t ref) {
  if (ref == 0) return "T";
  if (ref == 1) return "F";
  const std::string id = std::to_string((ref >> 1) - 1u);
  return (ref & 1u) != 0 ? "!" + id : id;
}

/// --dump-store: header, node and root listing, and occupancy report for a
/// saved dump.  Prints the header without building nodes (inspectDump), so
/// a dump with a corrupt body still shows it; lists the decoded records
/// (readDump); then loads the dump and reports the live store's footprint
/// -- arena and refcount side table.
int doctorDumpStore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  const auto rewind = [&in] {
    in.clear();
    in.seekg(0);
  };
  BddManager mgr;
  std::vector<Bdd> loaded;
  try {
    const DumpInfo info = inspectDump(in);
    std::printf("dump %s\n", path.c_str());
    std::printf("  format          icbdd-bdd-v3 (binary, little-endian)\n");
    std::printf("  vars            %llu\n",
                static_cast<unsigned long long>(info.varCount));
    std::printf("  nodes           %llu\n",
                static_cast<unsigned long long>(info.nodeCount));
    std::printf("  roots           %llu\n",
                static_cast<unsigned long long>(info.rootCount));
    std::printf("  node payload    %llu bytes\n",
                static_cast<unsigned long long>(info.nodeBytes));

    rewind();
    const DumpRecords records = readDump(in);
    for (std::size_t i = 0; i < records.nodes.size(); ++i) {
      const DumpRecords::Node& node = records.nodes[i];
      std::printf("n %zu %u %s %s\n", i, node.var, dumpRef(node.hi).c_str(),
                  dumpRef(node.lo).c_str());
    }
    for (const std::uint32_t ref : records.roots) {
      std::printf("r %s\n", dumpRef(ref).c_str());
    }

    rewind();
    loaded = loadBdds(in, mgr);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "failed to read '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  const std::uint64_t allocated = mgr.allocatedNodes();
  std::printf("store after load\n");
  std::printf("  allocated nodes %llu (%llu arena bytes)\n",
              static_cast<unsigned long long>(allocated),
              static_cast<unsigned long long>(allocated * 16));
  std::printf("  root set        %zu externally referenced node(s)\n",
              mgr.rootSetSize());
  std::printf("  true footprint  %llu bytes (arena + side table)\n",
              static_cast<unsigned long long>(mgr.bytesForNodes(allocated)));
  return 0;
}

int doctorDump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  BddManager mgr;
  std::vector<Bdd> loaded;
  try {
    loaded = loadBdds(in, mgr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  std::printf("loaded %zu function(s) over %u variable(s) from %s\n",
              loaded.size(), mgr.varCount(), path.c_str());

  std::size_t bad = auditCore(mgr, std::cout);
  if (!loaded.empty()) {
    bad += auditIciLayer(mgr, ConjunctList(&mgr, loaded), std::cout);
  }

  obs::MetricsRegistry metrics;
  metrics.captureBdd(mgr);
  std::printf("manager metrics:\n");
  metrics.print(std::cout);

  std::printf("diagnosis: %s\n", bad == 0 ? "CLEAN" : "CORRUPT");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"model", "method", "jobs", "auto-reorder",
                                  "reorder-trigger", "metrics-prom", "bdd",
                                  "job", "dump-store"});
  if (args.has("dump-store")) {
    return doctorDumpStore(args.getString("dump-store", ""));
  }
  if (args.has("bdd")) {
    return doctorDump(args.getString("bdd", ""));
  }
  if (args.has("job")) {
    return doctorJob(args.getString("job", ""));
  }

  Method method = Method::kXici;
  try {
    method = parseMethod(args.getString("method", "xici"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // The doctor doubles as the harness for auditing reordering under load:
  // --auto-reorder turns on growth-triggered grouped sifting for every
  // audited manager, --reorder-trigger tunes how eagerly it fires.
  BddOptions bddOptions;
  bddOptions.autoReorder = args.getBool("auto-reorder", false);
  bddOptions.reorderTrigger =
      args.getDouble("reorder-trigger", bddOptions.reorderTrigger);

  const std::string model = args.getString("model", "fifo");
  if (model == "all") {
    return doctorAllModels(method,
                           static_cast<unsigned>(args.getInt("jobs", 0)),
                           bddOptions);
  }
  return doctorModel(model, method, bddOptions,
                     args.getBool("metrics-prom", false));
}
