// Shared harness for the paper-table benchmarks: runs one (model, method)
// cell under the paper-style resource caps and renders rows in the layout of
// Tables 1-3 (Meth. / Time / Iter / Mem / BDD Nodes with the parenthesized
// per-conjunct breakdown).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bdd/options.hpp"
#include "obs/jsonl.hpp"
#include "par/scheduler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "verif/run_all.hpp"

namespace icb::bench {

/// The flags a paper-table binary accepts: its own plus the ones read by
/// schedulerOptions, bddOptions, BenchCaps::fromArgs and BenchReport below.
inline std::vector<std::string> tableFlags(std::vector<std::string> own) {
  own.insert(own.end(), {"jobs", "deadline", "auto-reorder", "reorder-trigger",
                         "max-nodes", "time-limit", "json"});
  return own;
}

/// Reads the scheduler knobs shared by every table binary:
///   --jobs N       worker threads (default 0 = hardware concurrency;
///                  --jobs 1 reproduces the historical serial sweep
///                  byte-for-byte)
///   --deadline S   global wall-clock budget for the whole table (0 = none)
inline par::SchedulerOptions schedulerOptions(const CliArgs& args) {
  par::SchedulerOptions options;
  options.jobs = static_cast<unsigned>(args.getInt("jobs", 0));
  options.globalDeadlineSeconds = args.getDouble("deadline", 0.0);
  return options;
}

/// Reads the BDD-manager knobs shared by every table binary:
///   --auto-reorder B      growth-triggered grouped sifting (default false:
///                         the paper keeps its fixed interleaved order, and
///                         paper-table reproduction depends on that)
///   --reorder-trigger K   live-node growth factor arming a sift (default 2.0)
inline BddOptions bddOptions(const CliArgs& args) {
  BddOptions options;
  options.autoReorder = args.getBool("auto-reorder", options.autoReorder);
  options.reorderTrigger =
      args.getDouble("reorder-trigger", options.reorderTrigger);
  return options;
}

/// Resource caps standing in for the paper's "Exceeded 60MB." (Sun 4/75
/// memory) and "Exceeded 40 minutes." rows.  Overridable per binary via
/// --max-nodes / --time-limit.
///
/// The time cap excludes observability costs by construction: trace-sink
/// writes (obs::TraceSession) and kFull audits both credit their own wall
/// time back to the manager's deadline, so enabling ICBDD_TRACE or
/// ICBDD_CHECK_LEVEL on a capped bench cannot flip a verdict to a spurious
/// "Exceeded time cap."
struct BenchCaps {
  std::uint64_t maxNodes = 24'000'000;  // ~0.6 GB of node storage
  double timeLimitSeconds = 60.0;

  static BenchCaps fromArgs(const CliArgs& args) {
    BenchCaps caps;
    caps.maxNodes = static_cast<std::uint64_t>(
        args.getInt("max-nodes", static_cast<std::int64_t>(caps.maxNodes)));
    caps.timeLimitSeconds = args.getDouble("time-limit", caps.timeLimitSeconds);
    return caps;
  }

  [[nodiscard]] EngineOptions engineOptions() const {
    EngineOptions options;
    options.maxNodes = maxNodes;
    options.timeLimitSeconds = timeLimitSeconds;
    options.wantTrace = false;  // benches measure the decision procedure
    return options;
  }
};

/// Renders one engine result as a table row.
inline void addResultRow(TextTable& table, const EngineResult& r) {
  std::string nodes;
  std::string time;
  std::string iters;
  std::string mem;
  switch (r.verdict) {
    case Verdict::kNodeLimit:
      time = "Exceeded node cap.";
      break;
    case Verdict::kTimeLimit:
      time = "Exceeded time cap.";
      break;
    case Verdict::kIterationLimit:
      time = "Exceeded iteration cap.";
      break;
    default: {
      time = formatMinSec(r.seconds);
      iters = std::to_string(r.iterations);
      mem = formatKb(r.memBytesEstimate);
      nodes = std::to_string(r.peakIterateNodes);
      const std::string breakdown = describeMemberSizes(r);
      if (!breakdown.empty()) nodes += " " + breakdown;
      if (r.verdict == Verdict::kViolated) nodes += " [VIOLATED]";
      break;
    }
  }
  table.addRow({methodName(r.method), time, iters, mem, nodes});
}

/// Standard header used by every table binary.
inline TextTable paperTable() {
  return TextTable({"Meth.", "Time", "Iter", "Mem", "BDD Nodes"});
}

/// Collects a table binary's cells and renders them either as the classic
/// paper-style text table (default) or, under --json, as "icbdd-bench-v1"
/// JSONL: one header line followed by one line per (group, method) cell
/// with the run's MetricsRegistry inlined.  docs/observability.md documents
/// the schema.
class BenchReport {
 public:
  BenchReport(std::string tableName, const CliArgs& args, const BenchCaps& caps)
      : tableName_(std::move(tableName)),
        caps_(caps),
        json_(args.getBool("json", false)) {}

  /// True when --json was passed; callers skip their printf banners then.
  [[nodiscard]] bool jsonMode() const { return json_; }

  /// Starts a new row group (one span line of the text table, the "group"
  /// field of every following JSONL cell).
  void beginGroup(std::string title) { groups_.push_back({std::move(title), {}}); }

  void add(const EngineResult& r) {
    if (groups_.empty()) beginGroup("");
    groups_.back().second.push_back(Row{r.method, r, -1, false, {}});
  }

  /// Adds one scheduler cell, opening a new row group whenever the cell's
  /// group label changes.  Feeding scheduler results (already in submission
  /// order) straight through this renders the same table a serial sweep
  /// renders, plus per-cell worker attribution in the JSON output.
  void addCell(const par::CellResult& cell) {
    if (groups_.empty() || groups_.back().first != cell.group) {
      beginGroup(cell.group);
    }
    groups_.back().second.push_back(Row{cell.method, cell.result,
                                        static_cast<int>(cell.worker),
                                        cell.skipped, cell.skipReason});
  }

  void print(std::ostream& os) const {
    if (json_) {
      printJson(os);
      return;
    }
    TextTable table = paperTable();
    for (const auto& [title, cells] : groups_) {
      if (!title.empty()) table.addSpan(title);
      for (const Row& row : cells) {
        if (row.skipped) {
          table.addRow({methodName(row.method), "Cancelled.", "", "", ""});
        } else {
          addResultRow(table, row.result);
        }
      }
    }
    table.print(os);
  }

 private:
  struct Row {
    Method method = Method::kFwd;
    EngineResult result;
    int worker = -1;  ///< executing worker; -1 = serial add(), no attribution
    bool skipped = false;
    std::string skipReason;
  };

  void printJson(std::ostream& os) const {
    std::size_t count = 0;
    for (const auto& [title, cells] : groups_) count += cells.size();
    os << std::move(obs::JsonObject()
                        .put("schema", "icbdd-bench-v1")
                        .put("table", tableName_)
                        .put("max_nodes", caps_.maxNodes)
                        .put("time_limit_s", caps_.timeLimitSeconds)
                        .put("cells", static_cast<std::uint64_t>(count)))
              .str()
       << '\n';
    for (const auto& [title, cells] : groups_) {
      for (const Row& row : cells) {
        const EngineResult& r = row.result;
        obs::JsonObject cell;
        cell.put("group", title).put("method", methodName(row.method));
        if (row.skipped) {
          cell.put("skipped", true).put("skip_reason", row.skipReason);
        } else {
          cell.put("verdict", verdictName(r.verdict))
              .put("time_s", r.seconds)
              .put("iterations", r.iterations)
              .put("mem_bytes", r.memBytesEstimate)
              .put("peak_iterate_nodes", r.peakIterateNodes)
              .putRaw("member_sizes", obs::jsonArray(r.peakIterateMemberSizes))
              .put("peak_allocated_nodes", r.peakAllocatedNodes)
              .putRaw("metrics", r.metrics.toJson());
        }
        if (row.worker >= 0) cell.put("worker", row.worker);
        if (!r.note.empty()) cell.put("note", r.note);
        os << std::move(cell).str() << '\n';
      }
    }
  }

  std::string tableName_;
  BenchCaps caps_;
  bool json_;
  std::vector<std::pair<std::string, std::vector<Row>>> groups_;
};

}  // namespace icb::bench
