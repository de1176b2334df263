#include "obs/prometheus.hpp"

#include <array>
#include <sstream>

#include "obs/histogram.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"

namespace icb::obs {

namespace {

constexpr MetricCatalogEntry kCatalog[] = {
#include "obs/metric_catalog.inc"
};

/// True when wildcard segment-list `entry` ("bdd.cache.<op>.hits")
/// matches concrete `name`: segment counts agree, `<op>` segments match one
/// nonempty lowercase identifier, everything else matches literally.
bool wildcardMatches(std::string_view entry, std::string_view name) {
  while (true) {
    const std::size_t entryDot = entry.find('.');
    const std::size_t nameDot = name.find('.');
    const std::string_view entrySeg = entry.substr(0, entryDot);
    const std::string_view nameSeg = name.substr(0, nameDot);
    if (entrySeg == "<op>") {
      if (nameSeg.empty()) return false;
      for (const char c : nameSeg) {
        if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') {
          return false;
        }
      }
    } else if (entrySeg != nameSeg) {
      return false;
    }
    const bool entryDone = entryDot == std::string_view::npos;
    const bool nameDone = nameDot == std::string_view::npos;
    if (entryDone || nameDone) return entryDone && nameDone;
    entry.remove_prefix(entryDot + 1);
    name.remove_prefix(nameDot + 1);
  }
}

/// HELP text escaping per the exposition format: backslash and newline.
std::string escapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void renderHeader(std::ostringstream& os, const std::string& promName,
                  std::string_view dottedName, MetricKind kind) {
  static constexpr std::array<std::string_view, 3> kKindNames = {
      "counter", "gauge", "histogram"};
  const MetricCatalogEntry* entry = findCatalogEntry(dottedName);
  if (entry != nullptr) {
    os << "# HELP " << promName << ' ' << escapeHelp(entry->help) << '\n';
  }
  os << "# TYPE " << promName << ' '
     << kKindNames[static_cast<std::size_t>(kind)] << '\n';
}

}  // namespace

std::span<const MetricCatalogEntry> metricCatalog() { return kCatalog; }

const MetricCatalogEntry* findCatalogEntry(std::string_view name) {
  for (const MetricCatalogEntry& entry : kCatalog) {
    if (entry.name.find('<') != std::string_view::npos
            ? wildcardMatches(entry.name, name)
            : entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

std::string prometheusName(std::string_view name) {
  std::string out = "icbdd_";
  out.reserve(out.size() + name.size());
  for (const char c : name) out += c == '.' ? '_' : c;
  return out;
}

std::string prometheusRender(const MetricsRegistry& registry) {
  std::ostringstream os;
  for (const auto& [name, value] : registry.counters()) {
    const std::string prom = prometheusName(name);
    renderHeader(os, prom, name, MetricKind::kCounter);
    os << prom << ' ' << value << '\n';
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string prom = prometheusName(name);
    renderHeader(os, prom, name, MetricKind::kGauge);
    os << prom << ' ' << jsonNumber(value) << '\n';
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string prom = prometheusName(name);
    renderHeader(os, prom, name, MetricKind::kHistogram);
    // Cumulative buckets: only occupied bounds are emitted (plus the
    // mandatory +Inf, which must equal _count) -- legal exposition, and it
    // keeps a 64-slot histogram from printing 64 mostly-zero lines.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
      const std::uint64_t inBucket = h.bucketCount(b);
      if (inBucket == 0) continue;
      cumulative += inBucket;
      os << prom << "_bucket{le=\"" << Histogram::bucketUpperBound(b)
         << "\"} " << cumulative << '\n';
    }
    os << prom << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
    os << prom << "_sum " << h.sum() << '\n';
    os << prom << "_count " << h.count() << '\n';
  }
  return os.str();
}

}  // namespace icb::obs
