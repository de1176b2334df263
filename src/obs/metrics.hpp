// Cold-path metrics aggregation.
//
// The hot paths keep their statistics in plain per-object structs (BddStats,
// TerminationStats, EvaluatePolicyResult, ...) -- no maps, no atomics, no
// string keys anywhere near an inner loop.  A MetricsRegistry is the
// *snapshot* side: engines and tools fold those native structs into one
// flat, dotted-name catalog (bdd.cache.ite.hits, ici.term.step4_shannon,
// ...) that prints uniformly and serializes to JSON for the bench --json
// output.  docs/observability.md lists every name the capture helpers emit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace icb {
class BddManager;
struct TerminationStats;
struct EvaluatePolicyResult;
}  // namespace icb

namespace icb::obs {

/// A named bag of monotonic counters (uint64, merged by addition), gauges
/// (double, merged by last-writer-wins unless noted), and histograms
/// (merged bucket-wise).  Ordered maps keep the output deterministic.
class MetricsRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta = 1);
  void setGauge(std::string_view name, double value);
  /// Keeps the larger of the existing gauge and `value` (for high-water
  /// marks like recursion depth, where merging runs must not lose the peak).
  void setGaugeMax(std::string_view name, double value);
  /// Records one sample into the named histogram (created on first use).
  void recordHistogram(std::string_view name, std::uint64_t value);
  /// Folds a whole native Histogram in (bucket-wise add); no-op when empty.
  void mergeHistogram(std::string_view name, const Histogram& h);

  /// Reads a counter; absent names read as 0.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Reads a gauge; absent names read as 0.0.
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Reads a histogram; nullptr when the name was never recorded.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// Folds `other` in: counters add, gauges overwrite (latest wins).
  void merge(const MetricsRegistry& other);

  // -- capture helpers: native stat structs -> catalog names --------------
  void captureBdd(const BddManager& mgr);
  void captureTermination(const TerminationStats& stats);
  void capturePolicy(const EvaluatePolicyResult& result);

  /// One JSON object: {"counters": {...}, "gauges": {...}} plus a
  /// "histograms" object of per-name summaries when any were recorded.
  [[nodiscard]] std::string toJson() const;

  /// Aligned name = value lines, one metric per line.
  void print(std::ostream& os, std::string_view indent = "  ") const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Mutex-protected MetricsRegistry for registries shared across threads
/// (the job service's counters, a future Prometheus scrape endpoint).
/// MetricsRegistry itself stays lock-free-by-confinement -- engines own
/// theirs exclusively -- so the cost of synchronization is paid only where
/// sharing is real.  All methods are safe to call from any thread.
class SharedMetrics {
 public:
  void add(std::string_view name, std::uint64_t delta = 1)
      ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.add(name, delta);
  }
  void setGauge(std::string_view name, double value) ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.setGauge(name, value);
  }
  void setGaugeMax(std::string_view name, double value)
      ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.setGaugeMax(name, value);
  }
  void recordHistogram(std::string_view name, std::uint64_t value)
      ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.recordHistogram(name, value);
  }
  void mergeHistogram(std::string_view name, const Histogram& h)
      ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.mergeHistogram(name, h);
  }
  void merge(const MetricsRegistry& other) ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    registry_.merge(other);
  }

  /// Point-in-time copy; the caller's snapshot is immune to later updates.
  [[nodiscard]] MetricsRegistry snapshot() const ICBDD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return registry_;
  }

 private:
  mutable Mutex mutex_;
  MetricsRegistry registry_ ICBDD_GUARDED_BY(mutex_);
};

}  // namespace icb::obs
