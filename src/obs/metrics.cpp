#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "bdd/manager.hpp"
#include "ici/evaluate_policy.hpp"
#include "ici/termination.hpp"
#include "obs/jsonl.hpp"

namespace icb::obs {

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  if (delta == 0) return;
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::setGauge(std::string_view name, double value) {
  gauges_[std::string(name)] = value;
}

void MetricsRegistry::setGaugeMax(std::string_view name, double value) {
  double& slot = gauges_[std::string(name)];
  slot = std::max(slot, value);
}

void MetricsRegistry::recordHistogram(std::string_view name,
                                      std::uint64_t value) {
  histograms_[std::string(name)].record(value);
}

void MetricsRegistry::mergeHistogram(std::string_view name,
                                     const Histogram& h) {
  if (h.empty()) return;
  histograms_[std::string(name)].merge(h);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it != counters_.end() ? it->second : 0;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(std::string(name));
  return it != gauges_.end() ? it->second : 0.0;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(std::string(name));
  return it != histograms_.end() ? &it->second : nullptr;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

void MetricsRegistry::captureBdd(const BddManager& mgr) {
  const BddStats& s = mgr.stats();
  add("bdd.nodes_created", s.nodesCreated);
  setGaugeMax("bdd.peak_nodes", static_cast<double>(s.peakNodes));
  add("bdd.gc.runs", s.gcRuns);
  add("bdd.gc.reclaimed", s.gcReclaimed);
  add("bdd.unique.lookups", s.uniqueLookups);
  add("bdd.unique.chain_steps", s.uniqueChainSteps);
  add("bdd.reorder.swaps", s.reorderSwaps);
  add("bdd.reorder.runs", s.reorderRuns);
  add("bdd.reorder.saved_nodes", s.reorderSavedNodes);
  add("bdd.reorder.interrupted", s.reorderInterrupted);
  add("bdd.restrict.calls", s.restrictCalls);
  add("bdd.constrain.calls", s.constrainCalls);
  add("bdd.multi_restrict.calls", s.multiRestrictCalls);

  for (std::size_t op = 1; op < kBddOpCount; ++op) {
    const BddOpCacheStats& c = s.opCache[op];
    if (c.lookups == 0) continue;
    const std::string base =
        std::string("bdd.cache.") + bddOpName(static_cast<BddOp>(op));
    add(base + ".lookups", c.lookups);
    add(base + ".hits", c.hits);
  }
  add("bdd.cache.lookups", s.cacheLookups());
  add("bdd.cache.hits", s.cacheHits());
  add("bdd.cache.resizes", s.cacheResizes);
  // The cache never shrinks, so its size at capture is the run's peak.
  setGaugeMax("bdd.cache.bytes",
              static_cast<double>(mgr.computedCacheEntries() *
                                  ComputedCache::kSlotBytes));
  add("bdd.ref.underflow", s.refUnderflows);
  if (s.cacheLookups() > 0) {
    setGauge("bdd.cache.hit_rate", static_cast<double>(s.cacheHits()) /
                                       static_cast<double>(s.cacheLookups()));
  }

  mergeHistogram("bdd.gc.pause_us", s.gcPauseUs);
  mergeHistogram("bdd.reorder.pause_us", s.reorderPauseUs);
}

void MetricsRegistry::captureTermination(const TerminationStats& stats) {
  add("ici.term.calls", stats.tautologyCalls);
  add("ici.term.implications", stats.implicationChecks);
  add("ici.term.step1_constant", stats.step1Hits);
  add("ici.term.step2_complement", stats.step2Hits);
  add("ici.term.step3_restrict", stats.step3Hits);
  add("ici.term.step4_shannon", stats.shannonExpansions);
  setGaugeMax("ici.term.max_depth", static_cast<double>(stats.maxDepth));
}

void MetricsRegistry::capturePolicy(const EvaluatePolicyResult& result) {
  add("ici.policy.merges_accepted", result.merges);
  add("ici.policy.merges_rejected", result.rejections);
  add("ici.policy.simplify_applications", result.simplifyApplications);
  add("ici.pair_table.entries_built", result.pairEntriesBuilt);
  add("ici.pair_table.entries_reused", result.pairEntriesReused);
  add("ici.pair_table.aborted_builds", result.abortedPairBuilds);
  if (!result.acceptedRatios.empty()) {
    const auto [minIt, maxIt] = std::minmax_element(
        result.acceptedRatios.begin(), result.acceptedRatios.end());
    setGauge("ici.policy.best_accepted_ratio", *minIt);
    setGaugeMax("ici.policy.worst_accepted_ratio", *maxIt);
  }
  if (result.rejectedRatio > 0.0) {
    setGauge("ici.policy.last_rejected_ratio", result.rejectedRatio);
  }
}

std::string MetricsRegistry::toJson() const {
  JsonObject countersObj;
  for (const auto& [name, value] : counters_) countersObj.put(name, value);
  JsonObject gaugesObj;
  for (const auto& [name, value] : gauges_) gaugesObj.put(name, value);
  JsonObject out;
  out.putRaw("counters", std::move(countersObj).str());
  out.putRaw("gauges", std::move(gaugesObj).str());
  if (!histograms_.empty()) {
    JsonObject histObj;
    for (const auto& [name, h] : histograms_) {
      histObj.putRaw(name, h.summaryJson());
    }
    out.putRaw("histograms", std::move(histObj).str());
  }
  return std::move(out).str();
}

void MetricsRegistry::print(std::ostream& os, std::string_view indent) const {
  std::size_t width = 0;
  for (const auto& [name, value] : counters_) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, value] : counters_) {
    os << indent << name << std::string(width - name.size(), ' ') << " = "
       << value << '\n';
  }
  for (const auto& [name, value] : gauges_) {
    os << indent << name << std::string(width - name.size(), ' ') << " = "
       << jsonNumber(value) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << indent << name << " = " << h.summaryJson() << '\n';
  }
}

}  // namespace icb::obs
