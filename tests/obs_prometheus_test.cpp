// Prometheus text exposition (obs/prometheus.hpp): grammar of every emitted
// line, catalog-driven HELP/TYPE headers, cumulative histogram families,
// and counter monotonicity across successive renders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace icb {
namespace {

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// The exposition grammar the renderer must follow, checked by hand (the
// <regex> engine trips -Werror=maybe-uninitialized under g++ 12 sanitizer
// builds):
//   comment  # (HELP|TYPE) icbdd_[A-Za-z0-9_]+( .*)?
//   sample   icbdd_[A-Za-z0-9_]+({le="(\d+|\+Inf)"})? <number>
//   number   -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?

bool isDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Length of the metric name at the start of `s`, 0 when there is none.
std::size_t nameLength(std::string_view s) {
  constexpr std::string_view kPrefix = "icbdd_";
  if (s.substr(0, kPrefix.size()) != kPrefix) return 0;
  std::size_t n = kPrefix.size();
  while (n < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[n])) != 0 || s[n] == '_')) {
    ++n;
  }
  return n > kPrefix.size() ? n : 0;
}

bool isNumber(std::string_view v) {
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t start = i;
    while (i < v.size() && isDigit(v[i])) ++i;
    return i > start;
  };
  if (i < v.size() && v[i] == '-') ++i;
  if (!digits()) return false;
  if (i < v.size() && v[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < v.size() && (v[i] == 'e' || v[i] == 'E')) {
    ++i;
    if (i < v.size() && (v[i] == '-' || v[i] == '+')) ++i;
    if (!digits()) return false;
  }
  return i == v.size();
}

bool isComment(std::string_view line) {
  for (const std::string_view kind : {"# HELP ", "# TYPE "}) {
    if (line.substr(0, kind.size()) != kind) continue;
    const std::string_view rest = line.substr(kind.size());
    const std::size_t name = nameLength(rest);
    return name != 0 && (name == rest.size() || rest[name] == ' ');
  }
  return false;
}

/// Splits a sample line into its series (name plus optional le label) and
/// its value; false when the line is not a sample.
bool splitSample(std::string_view line, std::string_view& series,
                 std::string_view& value) {
  std::size_t at = nameLength(line);
  if (at == 0) return false;
  constexpr std::string_view kOpen = "{le=\"";
  if (line.substr(at, 1) == "{") {
    if (line.substr(at, kOpen.size()) != kOpen) return false;
    const std::size_t from = at + kOpen.size();
    const std::size_t close = line.find("\"}", from);
    if (close == std::string_view::npos) return false;
    const std::string_view le = line.substr(from, close - from);
    if (le != "+Inf" && (le.empty() || !std::all_of(le.begin(), le.end(), isDigit))) {
      return false;
    }
    at = close + 2;
  }
  if (line.substr(at, 1) != " ") return false;
  series = line.substr(0, at);
  value = line.substr(at + 1);
  return isNumber(value);
}

/// name or name{le="..."} -> numeric value, for reconciliation checks.
std::map<std::string, double> samples(const std::string& text) {
  std::map<std::string, double> out;
  std::string_view series;
  std::string_view value;
  for (const std::string& line : lines(text)) {
    if (splitSample(line, series, value)) {
      out[std::string(series)] = std::stod(std::string(value));
    }
  }
  return out;
}

obs::MetricsRegistry populated() {
  obs::MetricsRegistry reg;
  reg.add("bdd.gc.runs", 3);
  reg.setGauge("svc.queue.depth", 2.0);
  for (const std::uint64_t v : {0u, 1u, 5u, 1000u})
    reg.recordHistogram("svc.job.run_us", v);
  return reg;
}

TEST(Prometheus, NameMangling) {
  EXPECT_EQ(obs::prometheusName("svc.job.run_us"), "icbdd_svc_job_run_us");
  EXPECT_EQ(obs::prometheusName("bdd.cache.and.hits"),
            "icbdd_bdd_cache_and_hits");
}

TEST(Prometheus, CatalogLookupResolvesWildcards) {
  ASSERT_FALSE(obs::metricCatalog().empty());
  const obs::MetricCatalogEntry* exact =
      obs::findCatalogEntry("svc.job.run_us");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->kind, obs::MetricKind::kHistogram);
  EXPECT_FALSE(exact->help.empty());

  // <op> matches exactly one segment.
  const obs::MetricCatalogEntry* wild =
      obs::findCatalogEntry("bdd.cache.and.hits");
  ASSERT_NE(wild, nullptr);
  EXPECT_EQ(wild->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(obs::findCatalogEntry("bdd.cache.and.ite.hits"), nullptr);
  EXPECT_EQ(obs::findCatalogEntry("no.such.metric"), nullptr);
}

TEST(Prometheus, EveryLineMatchesTheExpositionGrammar) {
  const std::string text = obs::prometheusRender(populated());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::string_view series;
  std::string_view value;
  for (const std::string& line : lines(text)) {
    const bool ok = line.rfind("#", 0) == 0 ? isComment(line)
                                            : splitSample(line, series, value);
    EXPECT_TRUE(ok) << "bad exposition line: " << line;
  }
  // The checker itself rejects what the grammar rejects.
  EXPECT_FALSE(isComment("# HELP other_name help"));
  EXPECT_FALSE(isComment("# UNIT icbdd_x seconds"));
  EXPECT_FALSE(splitSample("icbdd_x{le=\"1.5\"} 1", series, value));
  EXPECT_FALSE(splitSample("icbdd_x{job=\"a\"} 1", series, value));
  EXPECT_FALSE(splitSample("icbdd_x  1", series, value));
  EXPECT_FALSE(isNumber("1."));
  EXPECT_FALSE(isNumber("1e"));
  EXPECT_FALSE(isNumber("NaN"));
  EXPECT_TRUE(isNumber("-12.5e+3"));
}

TEST(Prometheus, TypesAndHelpComeFromTheCatalog) {
  const std::string text = obs::prometheusRender(populated());
  EXPECT_NE(text.find("# TYPE icbdd_bdd_gc_runs counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE icbdd_svc_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE icbdd_svc_job_run_us histogram"),
            std::string::npos);
  // HELP text is the catalog's (docs/observability.md) wording.
  EXPECT_NE(text.find("# HELP icbdd_svc_job_run_us "), std::string::npos);
}

TEST(Prometheus, HistogramFamiliesAreCumulativeWithInfEqualToCount) {
  const std::string text = obs::prometheusRender(populated());
  const std::map<std::string, double> s = samples(text);

  // 0, 1, 5, 1000 -> inclusive power-of-two bounds 0, 1, 7, 1023.
  ASSERT_TRUE(s.count("icbdd_svc_job_run_us_bucket{le=\"0\"}"));
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_bucket{le=\"0\"}"), 1.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_bucket{le=\"1\"}"), 2.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_bucket{le=\"7\"}"), 3.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_bucket{le=\"1023\"}"), 4.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_bucket{le=\"+Inf\"}"), 4.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_count"), 4.0);
  EXPECT_DOUBLE_EQ(s.at("icbdd_svc_job_run_us_sum"), 1006.0);

  // Buckets are cumulative: values never decrease as (numeric) le grows.
  std::vector<std::pair<double, double>> buckets;
  const std::string prefix = "icbdd_svc_job_run_us_bucket{le=\"";
  for (const auto& [key, value] : s) {
    if (key.rfind(prefix, 0) != 0) continue;
    const std::string le = key.substr(prefix.size());
    buckets.emplace_back(le.rfind("+Inf", 0) == 0
                             ? std::numeric_limits<double>::infinity()
                             : std::stod(le),
                         value);
  }
  std::sort(buckets.begin(), buckets.end());
  ASSERT_GE(buckets.size(), 2u);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].second, buckets[i - 1].second)
        << "le=" << buckets[i].first;
  }
}

TEST(Prometheus, CountersAreMonotoneAcrossRenders) {
  obs::MetricsRegistry reg = populated();
  const std::map<std::string, double> before =
      samples(obs::prometheusRender(reg));
  reg.add("bdd.gc.runs", 2);
  reg.recordHistogram("svc.job.run_us", 9);
  const std::map<std::string, double> after =
      samples(obs::prometheusRender(reg));
  for (const auto& [key, value] : before) {
    if (key.rfind("icbdd_svc_queue_depth", 0) == 0) continue;  // gauge
    ASSERT_TRUE(after.count(key)) << key;
    EXPECT_GE(after.at(key), value) << key;
  }
  EXPECT_DOUBLE_EQ(after.at("icbdd_bdd_gc_runs"), 5.0);
}

TEST(Prometheus, EmptyRegistryRendersNothing) {
  EXPECT_TRUE(obs::prometheusRender(obs::MetricsRegistry{}).empty());
}

}  // namespace
}  // namespace icb
