// VerifyService behavior: admission control (bounded queue, structured
// rejections), the on-disk job journal, cross-instance recovery (the
// process-restart story), and the svc.* metrics the service maintains.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "verif/checkpoint.hpp"

namespace icb::svc {
namespace {

namespace fs = std::filesystem;

/// Collects every emitted response line, parsed.
struct Capture {
  std::mutex m;
  std::vector<obs::JsonValue> lines;

  VerifyService::Emit emit() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(m);
      lines.push_back(obs::parseJson(line));
    };
  }

  std::vector<const obs::JsonValue*> ofType(std::string_view type) {
    std::lock_guard<std::mutex> lock(m);
    std::vector<const obs::JsonValue*> out;
    for (const obs::JsonValue& v : lines) {
      if (const obs::JsonValue* t = v.find("type");
          t != nullptr && t->textOr("") == type) {
        out.push_back(&v);
      }
    }
    return out;
  }

  const obs::JsonValue* resultFor(std::string_view id) {
    for (const obs::JsonValue* r : ofType("job_result")) {
      if (const obs::JsonValue* i = r->find("id");
          i != nullptr && i->textOr("") == id) {
        return r;
      }
    }
    return nullptr;
  }
};

std::string uniqueDir(const char* stem) {
  static int counter = 0;
  fs::path dir = fs::path(::testing::TempDir()) / "icbdd_svc_tests" /
                 (std::string(stem) + "_" + std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

TEST(SvcAdmission, DrainModeRejectsBeyondQueueBound) {
  ServiceOptions options;
  options.queueBound = 2;
  options.drain = true;  // nothing runs until shutdown: deterministic depth
  options.checkpointEvery = 0;
  Capture cap;
  VerifyService service(options, cap.emit());

  EXPECT_TRUE(service.submitLine(
      R"({"id":"j1","model":"mutex","method":"xici","size":3})"));
  EXPECT_TRUE(service.submitLine(
      R"({"id":"j2","model":"mutex","method":"xici","size":3})"));
  EXPECT_EQ(service.queueDepth(), 2u);
  EXPECT_FALSE(service.submitLine(
      R"({"id":"j3","model":"mutex","method":"xici","size":3})"));

  const auto rejected = cap.ofType("job_rejected");
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0]->find("id")->textOr(""), "j3");
  EXPECT_EQ(rejected[0]->find("reason")->textOr(""), "queue_full");
  EXPECT_DOUBLE_EQ(rejected[0]->find("queue_bound")->numberOr(-1), 2.0);

  service.shutdown();
  EXPECT_EQ(cap.ofType("job_accepted").size(), 2u);
  EXPECT_EQ(cap.ofType("job_result").size(), 2u);
  EXPECT_NE(cap.resultFor("j1"), nullptr);
  EXPECT_NE(cap.resultFor("j2"), nullptr);

  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.accepted"), 2u);
  EXPECT_EQ(metrics.counter("svc.jobs.rejected"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 2u);
  EXPECT_EQ(metrics.counter("svc.jobs.failed"), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("svc.queue.peak_depth"), 2.0);
  EXPECT_EQ(service.queueDepth(), 0u);
}

TEST(SvcAdmission, StructuredRejectReasons) {
  ServiceOptions options;
  options.drain = true;
  Capture cap;
  VerifyService service(options, cap.emit());

  // Not JSON at all.
  EXPECT_FALSE(service.submitLine("{not json"));
  // Parses, but violates the request schema (bad id characters).
  EXPECT_FALSE(service.submitLine(R"({"id":"has spaces","model":"fifo"})"));
  // Missing required field.
  EXPECT_FALSE(service.submitLine(R"({"id":"j1"})"));
  // Duplicate of an already queued id.
  EXPECT_TRUE(service.submitLine(R"({"id":"dup","model":"mutex","size":3})"));
  EXPECT_FALSE(service.submitLine(R"({"id":"dup","model":"mutex","size":3})"));

  const auto rejected = cap.ofType("job_rejected");
  ASSERT_EQ(rejected.size(), 4u);
  EXPECT_EQ(rejected[0]->find("reason")->textOr(""), "parse_error");
  EXPECT_EQ(rejected[1]->find("reason")->textOr(""), "invalid_request");
  EXPECT_EQ(rejected[1]->find("id")->textOr(""), "has spaces");
  EXPECT_EQ(rejected[2]->find("reason")->textOr(""), "invalid_request");
  EXPECT_EQ(rejected[3]->find("reason")->textOr(""), "duplicate_id");
  service.shutdown();
}

TEST(SvcAdmission, UnknownModelFailsAtRunNotAdmission) {
  ServiceOptions options;
  options.drain = true;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_TRUE(service.submitLine(R"({"id":"bad","model":"warpdrive"})"));
  service.shutdown();

  const auto failed = cap.ofType("job_failed");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->find("id")->textOr(""), "bad");
  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.failed"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 0u);
}

TEST(SvcJournal, CompletedJobsLeaveNoJournalEntries) {
  const std::string dir = uniqueDir("clean");
  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  options.checkpointEvery = 1;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_TRUE(service.submitLine(
      R"({"id":"c1","model":"fifo","method":"fwd","size":4,"width":4})"));
  service.shutdown();

  ASSERT_NE(cap.resultFor("c1"), nullptr);
  // Progress lines streamed as checkpoints landed (5 iterations, every=1).
  EXPECT_FALSE(cap.ofType("job_progress").empty());
  // ...and the journal is clean: nothing to recover.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST(SvcJournal, RecoverResumesFromCheckpointAcrossInstances) {
  // Simulates a killed process: the journal holds an accepted request plus
  // its last checkpoint, with no live service.  A fresh instance must pick
  // the job up with resume=true and finish with the uninterrupted verdict.
  const std::string dir = uniqueDir("recover");
  const std::string line =
      R"({"id":"r1","model":"fifo","method":"fwd","size":4,"width":4})";

  // Baseline (uninterrupted) and a mid-run checkpoint, via the engine.
  const JobRequest req = parseJobRequest(obs::parseJson(line));
  std::vector<std::pair<unsigned, std::string>> snapshots;
  BddManager mgr(bddOptionsFor(req));
  ModelInstance model = buildJobModel(mgr, req);
  EngineOptions engineOptions = engineOptionsFor(req);
  engineOptions.checkpoint.everyIterations = 1;
  engineOptions.checkpoint.sink = [&](const EngineSnapshot& snap) {
    std::ostringstream os;
    saveSnapshot(os, mgr, snap);
    snapshots.emplace_back(snap.iteration, os.str());
  };
  const EngineResult base =
      runMethod(*model.fsm, req.method, model.fdCandidates, engineOptions);
  ASSERT_GE(snapshots.size(), 2u);
  const auto& [ckptIteration, ckptText] = snapshots[snapshots.size() / 2];

  {
    // The "killed" instance's journal state, written directly.
    JobJournal journal(dir);
    journal.recordAccepted("r1", line);
    journal.recordCheckpoint("r1", ckptText);
  }

  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_EQ(service.recoverJournal(), 1u);
  EXPECT_EQ(service.queueDepth(), 1u);
  service.shutdown();

  const obs::JsonValue* result = cap.resultFor("r1");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("resumed")->boolean);
  EXPECT_DOUBLE_EQ(result->find("resumed_from")->numberOr(0),
                   static_cast<double>(ckptIteration));
  EXPECT_EQ(result->find("verdict")->textOr(""), verdictName(base.verdict));
  EXPECT_DOUBLE_EQ(result->find("iterations")->numberOr(0),
                   static_cast<double>(base.iterations));

  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.recovered"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.resumed"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 1u);

  // Finished: journal clean again, nothing to recover a second time.
  JobJournal after(dir);
  EXPECT_TRUE(after.recoverableRequests().empty());
}

TEST(SvcJournal, OldFormatCheckpointFailsTheResumedJobTyped) {
  // A checkpoint journaled before the dump format became binary embeds a
  // text icbdd-bdd-v2 dump.  Recovering it ends the job in a typed
  // job_failed naming the bad magic -- no crash, no result, clean journal.
  const std::string dir = uniqueDir("oldckpt");
  {
    JobJournal journal(dir);
    journal.recordAccepted(
        "old", R"({"id":"old","model":"fifo","method":"fwd","size":4,"width":4})");
    journal.recordCheckpoint(
        "old",
        "icbdd-ckpt-v1\nmethod Fwd\niteration 1\nnumbers 0\nlists 1 1\n"
        "icbdd-bdd-v2\nvars 1\nv 0 in_sel\norder 0\nnodes 0\nroots 1\nr T\n");
  }

  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_EQ(service.recoverJournal(), 1u);
  service.shutdown();

  EXPECT_EQ(cap.resultFor("old"), nullptr);
  const auto failed = cap.ofType("job_failed");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->find("id")->textOr(""), "old");
  EXPECT_NE(failed[0]->find("error")->textOr("").find(
                "bad magic 'icbdd-bdd-v2'"),
            std::string::npos);
  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.failed"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 0u);
  EXPECT_TRUE(JobJournal(dir).recoverableRequests().empty());
}

TEST(SvcJournal, AtomicWritesAndRemove) {
  const std::string dir = uniqueDir("atomic");
  JobJournal journal(dir);
  journal.recordAccepted("a", R"({"id":"a","model":"fifo"})");
  journal.recordAccepted("b", R"({"id":"b","model":"mutex"})");
  journal.recordCheckpoint("a", "ckpt-text");

  const auto requests = journal.recoverableRequests();
  ASSERT_EQ(requests.size(), 2u);  // sorted by path: a then b
  EXPECT_NE(requests[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(requests[1].find("\"id\":\"b\""), std::string::npos);

  ASSERT_TRUE(journal.checkpointBytes("a").has_value());
  EXPECT_EQ(*journal.checkpointBytes("a"), "ckpt-text");
  EXPECT_FALSE(journal.checkpointBytes("b").has_value());

  journal.remove("a");
  EXPECT_FALSE(journal.checkpointBytes("a").has_value());
  EXPECT_EQ(journal.recoverableRequests().size(), 1u);
  journal.remove("b");
  EXPECT_TRUE(journal.recoverableRequests().empty());
}

TEST(SvcJournal, WriteCounterSurfacesInMetricsSnapshot) {
  {
    const std::string dir = uniqueDir("writes_raw");
    JobJournal journal(dir);
    EXPECT_EQ(journal.writesRecorded(), 0u);
    journal.recordAccepted("a", R"({"id":"a","model":"fifo"})");
    journal.recordCheckpoint("a", "one");
    journal.recordCheckpoint("a", "two");  // replacement still counts
    EXPECT_EQ(journal.writesRecorded(), 3u);
  }

  const std::string dir = uniqueDir("writes_svc");
  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  options.checkpointEvery = 1;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_TRUE(service.submitLine(
      R"({"id":"w1","model":"fifo","method":"fwd","size":4,"width":4})"));
  service.shutdown();

  ASSERT_NE(cap.resultFor("w1"), nullptr);
  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  // One journaled request line plus one checkpoint per cadence hit.
  EXPECT_GE(metrics.counter("svc.journal.writes"),
            1u + metrics.counter("svc.checkpoints.saved"));
  EXPECT_GE(metrics.counter("svc.checkpoints.saved"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 1u);
}

TEST(SvcJournal, WriteFailuresDegradeInsteadOfThrowing) {
  const std::string dir = uniqueDir("degraded");
  JobJournal journal(dir);
  EXPECT_TRUE(journal.healthy());
  EXPECT_EQ(journal.writeFailures(), 0u);
  EXPECT_LT(journal.secondsSinceLastWrite(), 0.0);  // nothing written yet

  journal.recordAccepted("ok1", R"({"id":"ok1","model":"fifo"})");
  EXPECT_TRUE(journal.healthy());
  EXPECT_GE(journal.secondsSinceLastWrite(), 0.0);

  // Yank the directory out from under the journal: every write must fail
  // *silently* (counted + remembered), never throw.  Replacing the dir with
  // a regular file breaks writes even for a root test runner, which
  // chmod-based sabotage would not.
  fs::remove_all(dir);
  std::ofstream(dir) << "not a directory";
  EXPECT_NO_THROW(journal.recordAccepted("x", R"({"id":"x","model":"fifo"})"));
  EXPECT_NO_THROW(journal.recordCheckpoint("x", "snapshot"));
  EXPECT_FALSE(journal.healthy());
  EXPECT_EQ(journal.writeFailures(), 2u);
  EXPECT_FALSE(journal.lastError().empty());

  // Restoring the directory heals the journal on the next good write.
  fs::remove(dir);
  fs::create_directories(dir);
  journal.recordAccepted("y", R"({"id":"y","model":"fifo"})");
  EXPECT_TRUE(journal.healthy());
  EXPECT_TRUE(journal.lastError().empty());
  EXPECT_EQ(journal.writeFailures(), 2u);  // history is kept
}

TEST(SvcService, HealthFlipsWhenJournalDegrades) {
  const std::string dir = uniqueDir("health");
  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  Capture cap;
  VerifyService service(options, cap.emit());

  EXPECT_TRUE(service.submitLine(R"({"id":"h1","model":"mutex","size":3})"));
  ServiceHealth healthy = service.health();
  EXPECT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.journalOk);
  EXPECT_EQ(healthy.queueDepth, 1u);
  EXPECT_GE(healthy.secondsSinceJournalWrite, 0.0);
  EXPECT_TRUE(healthy.journalError.empty());

  // Sabotage the journal directory; the next accepted job's journal write
  // fails, the service keeps serving, and /healthz's view degrades.
  fs::remove_all(dir);
  std::ofstream(dir) << "not a directory";
  EXPECT_TRUE(service.submitLine(R"({"id":"h2","model":"mutex","size":3})"));
  const ServiceHealth degraded = service.health();
  EXPECT_FALSE(degraded.ok());
  EXPECT_FALSE(degraded.journalOk);
  EXPECT_FALSE(degraded.journalError.empty());

  service.shutdown();
  EXPECT_EQ(cap.ofType("job_result").size(), 2u);  // both jobs still ran
  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_GE(metrics.counter("svc.journal.write_failures"), 1u);
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 2u);
}

TEST(SvcService, JobHistogramsBillEveryCompletedJob) {
  const std::string dir = uniqueDir("histos");
  ServiceOptions options;
  options.drain = true;
  options.journalDir = dir;
  options.checkpointEvery = 1;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_TRUE(service.submitLine(
      R"({"id":"b1","model":"fifo","method":"fwd","size":4,"width":4})"));
  EXPECT_TRUE(service.submitLine(
      R"({"id":"b2","model":"mutex","method":"xici","size":3})"));
  EXPECT_TRUE(service.submitLine(R"({"id":"b3","model":"warpdrive"})"));
  service.shutdown();

  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 2u);
  EXPECT_EQ(metrics.counter("svc.jobs.failed"), 1u);

  // One sample per *completed* job in every attribution histogram; the
  // failed job never reached the engine and is billed nowhere.
  for (const char* name : {"svc.job.queue_wait_us", "svc.job.run_us",
                           "svc.job.nodes_created", "svc.job.peak_nodes"}) {
    const obs::Histogram* h = metrics.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 2u) << name;
  }
  EXPECT_GT(metrics.histogram("svc.job.nodes_created")->sum(), 0u);
  EXPECT_GT(metrics.histogram("svc.job.peak_nodes")->min(), 0u);

  // Checkpoint snapshots billed by size, one sample per saved checkpoint.
  const obs::Histogram* bytes = metrics.histogram("svc.checkpoint.write_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->count(), metrics.counter("svc.checkpoints.saved"));
  EXPECT_GT(bytes->sum(), 0u);
}

TEST(SvcService, TraceSpansCarryJobIdAndResourceBill) {
  std::ostringstream traceOut;
  obs::TraceSink sink(traceOut);
  obs::setDefaultTraceSink(&sink);

  ServiceOptions options;
  options.drain = true;
  options.checkpointEvery = 0;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_TRUE(service.submitLine(
      R"({"id":"span1","model":"mutex","method":"xici","size":3})"));
  service.shutdown();
  obs::setDefaultTraceSink(nullptr);

  std::istringstream in(traceOut.str());
  const obs::JsonValue* jobEnd = nullptr;
  std::size_t tagged = 0;
  const std::vector<obs::JsonValue> events = obs::parseJsonLines(in);
  for (const obs::JsonValue& ev : events) {
    // Every event of this run -- engine spans included -- carries the
    // request id in the "job" correlation field.
    if (const obs::JsonValue* job = ev.find("job")) {
      EXPECT_EQ(job->textOr(""), "span1");
      ++tagged;
    }
    if (ev.find("ev")->textOr("") == "job_end") jobEnd = &ev;
  }
  EXPECT_GT(tagged, 2u);  // job_begin/job_end plus the engine's own spans
  ASSERT_NE(jobEnd, nullptr);
  EXPECT_EQ(jobEnd->find("verdict")->textOr(""), "holds");
  EXPECT_GE(jobEnd->find("seconds")->numberOr(-1), 0.0);
  EXPECT_GE(jobEnd->find("queue_wait_s")->numberOr(-1), 0.0);
  EXPECT_GT(jobEnd->find("nodes_created")->numberOr(0), 0.0);
  EXPECT_GT(jobEnd->find("peak_nodes")->numberOr(0), 0.0);
}

TEST(SvcRequest, ParseAndValidation) {
  const obs::JsonValue v = obs::parseJson(
      R"({"id":"x.1","model":"filter","method":"fd","size":2,"width":4,)"
      R"("inject_bug":true,"deadline_seconds":2.5,"max_nodes":100000,)"
      R"("max_iterations":50,"checkpoint_every":3,"auto_reorder":true})");
  const JobRequest req = parseJobRequest(v);
  EXPECT_EQ(req.id, "x.1");
  EXPECT_EQ(req.model, "filter");
  EXPECT_EQ(req.method, Method::kFd);
  EXPECT_EQ(req.size, 2u);
  EXPECT_EQ(req.width, 4u);
  EXPECT_TRUE(req.injectBug);
  EXPECT_DOUBLE_EQ(req.deadlineSeconds, 2.5);
  EXPECT_EQ(req.maxNodes, 100000u);
  EXPECT_EQ(req.maxIterations, 50u);
  EXPECT_EQ(req.checkpointEvery, 3u);
  EXPECT_TRUE(req.autoReorder);
  EXPECT_TRUE(engineOptionsFor(req).wantTrace);
  EXPECT_EQ(engineOptionsFor(req).maxNodes, 100000u);
  EXPECT_TRUE(bddOptionsFor(req).autoReorder);

  EXPECT_TRUE(validJobId("a"));
  EXPECT_TRUE(validJobId("Job_1.retry-2"));
  EXPECT_FALSE(validJobId(""));
  EXPECT_FALSE(validJobId(".hidden"));
  EXPECT_FALSE(validJobId("has space"));
  EXPECT_FALSE(validJobId("sl/ash"));
  EXPECT_FALSE(validJobId(std::string(65, 'a')));

  // Schema violations the parser must throw on.
  EXPECT_THROW((void)parseJobRequest(obs::parseJson(R"({"model":"fifo"})")),
               std::invalid_argument);
  EXPECT_THROW((void)parseJobRequest(obs::parseJson(
                   R"({"id":"a","model":"fifo","size":-1})")),
               std::invalid_argument);
  EXPECT_THROW((void)parseJobRequest(obs::parseJson(
                   R"({"id":"a","model":"fifo","size":1.5})")),
               std::invalid_argument);
  EXPECT_THROW((void)parseJobRequest(obs::parseJson(
                   R"({"id":"a","model":"fifo","method":"warp"})")),
               std::invalid_argument);
  EXPECT_THROW((void)parseJobRequest(obs::parseJson(R"(["not","object"])")),
               std::invalid_argument);
}

/// Parses `line` expecting a rejection; returns the exception message.
std::string rejectionMessage(const std::string& line) {
  try {
    (void)parseJobRequest(obs::parseJson(line));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << line;
  return {};
}

// Fields of removed features must fail loudly: dropping them like other
// unknown fields would run a different job than the one asked for (a job
// relying on "spill": true would quietly end in node-limit).
TEST(SvcRequest, RemovedApplyWorkersFieldIsRejectedByName) {
  EXPECT_NE(rejectionMessage(
                R"({"id":"a","model":"fifo","apply_workers":4})")
                .find("'apply_workers'"),
            std::string::npos);
  // Even the value that used to mean "serial" is rejected.
  EXPECT_NE(rejectionMessage(
                R"({"id":"a","model":"fifo","apply_workers":1})")
                .find("'apply_workers'"),
            std::string::npos);
}

TEST(SvcRequest, RemovedSpillFieldIsRejectedByName) {
  EXPECT_NE(rejectionMessage(R"({"id":"a","model":"fifo","spill":true})")
                .find("'spill'"),
            std::string::npos);
  EXPECT_NE(rejectionMessage(R"({"id":"a","model":"fifo","spill":false})")
                .find("'spill'"),
            std::string::npos);

  // Through the service: a typed job_rejected that names the field, and
  // nothing runs.
  ServiceOptions options;
  options.drain = true;
  Capture cap;
  VerifyService service(options, cap.emit());
  EXPECT_FALSE(service.submitLine(
      R"({"id":"s1","model":"mutex","size":3,"spill":true})"));
  service.shutdown();
  const auto rejected = cap.ofType("job_rejected");
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0]->find("id")->textOr(""), "s1");
  EXPECT_EQ(rejected[0]->find("reason")->textOr(""), "invalid_request");
  EXPECT_NE(rejected[0]->find("detail")->textOr("").find("'spill'"),
            std::string::npos);
  EXPECT_TRUE(cap.ofType("job_result").empty());
}

TEST(SvcService, ParallelBatchCompletesEveryJob) {
  ServiceOptions options;
  options.workers = 4;
  options.queueBound = 16;
  options.drain = true;
  options.checkpointEvery = 0;
  Capture cap;
  VerifyService service(options, cap.emit());
  for (int i = 0; i < 6; ++i) {
    const std::string id = "p" + std::to_string(i);
    EXPECT_TRUE(service.submitLine(
        R"({"id":")" + id +
        R"(","model":"mutex","method":"fwd","size":3})"));
  }
  service.shutdown();
  EXPECT_EQ(cap.ofType("job_result").size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const obs::JsonValue* r = cap.resultFor("p" + std::to_string(i));
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->find("verdict")->textOr(""), "holds");
  }
  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  EXPECT_EQ(metrics.counter("svc.jobs.completed"), 6u);
}

}  // namespace
}  // namespace icb::svc
