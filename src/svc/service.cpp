#include "svc/service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "verif/checkpoint.hpp"

namespace icb::svc {

namespace {

constexpr const char* kSchema = "icbdd-svc-v1";

/// Starts a response object: {"schema":"icbdd-svc-v1","type":<type>,...}.
obs::JsonObject response(const char* type) {
  obs::JsonObject o;
  o.put("schema", kSchema).put("type", type);
  return o;
}

/// Renders counterexample rows (assignment vectors of 0/1) as a JSON array
/// of bitstrings, one character per BDD variable.
std::string bitstringArray(const std::vector<std::vector<char>>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    for (const char b : rows[i]) out += b != 0 ? '1' : '0';
    out += '"';
  }
  out += ']';
  return out;
}

/// Histogram samples are integer microseconds (docs/observability.md).
std::uint64_t micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

}  // namespace

VerifyService::VerifyService(ServiceOptions options, Emit emit)
    : options_(std::move(options)), emit_(std::move(emit)) {
  if (!options_.journalDir.empty()) {
    journal_ = std::make_unique<JobJournal>(options_.journalDir);
  }
  dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

VerifyService::~VerifyService() { shutdown(); }

void VerifyService::emitLine(const std::string& line) {
  const MutexLock lock(emitMutex_);
  if (emit_) emit_(line);
}

bool VerifyService::submitLine(const std::string& line) {
  std::string id;
  auto reject = [&](const char* reason, const std::string& detail) {
    metrics_.add("svc.jobs.rejected");
    std::size_t depth = 0;
    {
      const MutexLock lock(mutex_);
      depth = pending_.size() + running_;
    }
    obs::JsonObject o = response("job_rejected");
    if (!id.empty()) o.put("id", id);
    o.put("reason", reason);
    if (!detail.empty()) o.put("detail", detail);
    o.put("queue_depth", static_cast<std::uint64_t>(depth))
        .put("queue_bound", static_cast<std::uint64_t>(options_.queueBound));
    emitLine(std::move(o).str());
    return false;
  };

  try {
    const obs::JsonValue parsed = obs::parseJson(line);
    if (const obs::JsonValue* idField = parsed.find("id")) {
      if (idField->kind == obs::JsonValue::Kind::kString) id = idField->text;
    }
    return submit(parseJobRequest(parsed), line);
  } catch (const obs::JsonParseError& e) {
    return reject("parse_error", e.what());
  } catch (const std::invalid_argument& e) {
    return reject("invalid_request", e.what());
  }
}

bool VerifyService::submit(const JobRequest& request, const std::string& line) {
  {
    const MutexLock lock(mutex_);
    const char* reason = nullptr;
    if (std::find(activeIds_.begin(), activeIds_.end(), request.id) !=
        activeIds_.end()) {
      reason = "duplicate_id";
    } else if (pending_.size() + running_ >= options_.queueBound) {
      reason = "queue_full";
    }
    if (reason != nullptr) {
      metrics_.add("svc.jobs.rejected");
      emitLine(std::move(response("job_rejected")
                             .put("id", request.id)
                             .put("reason", reason)
                             .put("queue_depth", static_cast<std::uint64_t>(
                                                    pending_.size() + running_))
                             .put("queue_bound", static_cast<std::uint64_t>(
                                                     options_.queueBound)))
                   .str());
      return false;
    }
    if (journal_) journal_->recordAccepted(request.id, line);
    pending_.push_back(QueuedJob{request, line, obs::traceClockSeconds()});
    activeIds_.push_back(request.id);
    metrics_.add("svc.jobs.accepted");
    const double depth = static_cast<double>(pending_.size() + running_);
    metrics_.setGauge("svc.queue.depth", depth);
    metrics_.setGaugeMax("svc.queue.peak_depth", depth);
    emitLine(std::move(response("job_accepted")
                           .put("id", request.id)
                           .put("queue_depth", static_cast<std::uint64_t>(depth)))
                 .str());
  }
  cv_.notify_all();
  return true;
}

std::size_t VerifyService::recoverJournal() {
  if (!journal_) return 0;
  std::size_t count = 0;
  for (const std::string& line : journal_->recoverableRequests()) {
    try {
      JobRequest request = parseJobRequest(obs::parseJson(line));
      request.resume = true;  // pick up the journaled checkpoint, if any
      if (submit(request, line)) {
        metrics_.add("svc.jobs.recovered");
        ++count;
      }
    } catch (const std::exception&) {
      continue;  // a torn request line is dropped, not fatal to recovery
    }
  }
  return count;
}

void VerifyService::shutdown() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t VerifyService::queueDepth() const {
  const MutexLock lock(mutex_);
  return pending_.size() + running_;
}

obs::MetricsRegistry VerifyService::metricsSnapshot() const {
  obs::MetricsRegistry snap = metrics_.snapshot();
  if (journal_) {
    snap.add("svc.journal.writes", journal_->writesRecorded());
    snap.add("svc.journal.write_failures", journal_->writeFailures());
  }
  return snap;
}

ServiceHealth VerifyService::health() const {
  ServiceHealth h;
  h.queueDepth = queueDepth();
  if (journal_) {
    h.journalOk = journal_->healthy();
    h.secondsSinceJournalWrite = journal_->secondsSinceLastWrite();
    h.journalError = journal_->lastError();
  }
  return h;
}

void VerifyService::dispatcherLoop() {
  MutexLock lock(mutex_);
  while (true) {
    // Manual wait loop (not the predicate overload) so the thread-safety
    // analysis sees every read of stop_/pending_ happen with mutex_ held.
    while (!stop_ && (options_.drain || pending_.empty())) {
      cv_.wait(mutex_);
    }
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<QueuedJob> batch;
    batch.swap(pending_);
    running_ = batch.size();
    lock.unlock();
    runBatch(batch);
    lock.lock();
  }
}

void VerifyService::runBatch(std::vector<QueuedJob>& batch) {
  par::SchedulerOptions schedOptions;
  schedOptions.jobs = options_.workers;
  par::VerifyScheduler scheduler(schedOptions);
  for (const QueuedJob& job : batch) {
    scheduler.submit(job.request.id, job.request.method,
                     [this, &job](const par::CellContext& ctx) {
                       runOneJob(job, ctx);  // never throws
                       return EngineResult{};
                     });
  }
  scheduler.run();
}

void VerifyService::finishJob(const std::string& id, const char* counterName) {
  if (journal_) journal_->remove(id);
  std::size_t depth = 0;
  {
    const MutexLock lock(mutex_);
    activeIds_.erase(std::remove(activeIds_.begin(), activeIds_.end(), id),
                     activeIds_.end());
    if (running_ > 0) --running_;
    depth = pending_.size() + running_;
  }
  metrics_.add(counterName);
  metrics_.setGauge("svc.queue.depth", static_cast<double>(depth));
}

void VerifyService::runOneJob(const QueuedJob& job,
                              const par::CellContext& ctx) {
  const JobRequest& req = job.request;
  try {
    BddManager mgr(bddOptionsFor(req));
    ModelInstance model = buildJobModel(mgr, req);
    EngineOptions engineOptions = engineOptionsFor(req);

    // Admission-control half of the deadline story: the per-job deadline is
    // the request's, defaulted and then clamped to the service ceiling.
    double deadline = engineOptions.timeLimitSeconds > 0.0
                          ? engineOptions.timeLimitSeconds
                          : options_.defaultJobSeconds;
    if (options_.maxJobSeconds > 0.0) {
      deadline = deadline > 0.0 ? std::min(deadline, options_.maxJobSeconds)
                                : options_.maxJobSeconds;
    }
    engineOptions.timeLimitSeconds = deadline;
    ctx.apply(engineOptions);  // worker attribution for the run's trace spans

    // Resume from the journaled checkpoint when the request asks for it.
    EngineSnapshot snapshot;
    bool resumed = false;
    unsigned resumedFrom = 0;
    if (req.resume && journal_) {
      if (const auto bytes = journal_->checkpointBytes(req.id)) {
        std::istringstream in(*bytes);
        snapshot = loadSnapshot(in, mgr);
        engineOptions.checkpoint.resume = &snapshot;
        resumed = true;
        resumedFrom = snapshot.iteration;
        metrics_.add("svc.jobs.resumed");
      }
    }

    const unsigned every = req.checkpointEvery != 0 ? req.checkpointEvery
                                                    : options_.checkpointEvery;
    if (every != 0) {
      engineOptions.checkpoint.everyIterations = every;
      engineOptions.checkpoint.sink = [this, &req, &mgr,
                                       &ctx](const EngineSnapshot& snap) {
        std::ostringstream os;
        saveSnapshot(os, mgr, snap);
        metrics_.recordHistogram("svc.checkpoint.write_bytes",
                                 static_cast<std::uint64_t>(os.str().size()));
        if (journal_) journal_->recordCheckpoint(req.id, os.str());
        metrics_.add("svc.checkpoints.saved");
        emitLine(std::move(response("job_progress")
                               .put("id", req.id)
                               .put("iteration", snap.iteration)
                               .put("checkpoint", true)
                               .put("worker", ctx.worker))
                     .str());
      };
    }

    obs::TraceSession span(engineOptions.traceSink, &mgr,
                           engineOptions.traceWorker, req.id);
    if (span.enabled()) {
      span.emit("job_begin", obs::JsonObject()
                                 .put("id", req.id)
                                 .put("model", req.model)
                                 .put("method", methodName(req.method))
                                 .put("resumed", resumed));
    }

    // Admission-to-dispatch wait: how long the job sat in pending_ plus the
    // scheduler queue before its body started.
    const double queueWaitSeconds =
        std::max(0.0, obs::traceClockSeconds() - job.enqueueSeconds);
    const Stopwatch runWatch;
    const EngineResult result =
        runMethod(*model.fsm, req.method, model.fdCandidates, engineOptions);
    const double runSeconds = runWatch.elapsedSeconds();

    // Per-job resource bill: the manager is private to this job, so its
    // counter deltas over the run *are* the job's attribution.
    const std::uint64_t nodesCreated =
        result.metrics.counter("bdd.nodes_created");
    const double peakNodes = result.metrics.gauge("bdd.peak_nodes");
    metrics_.recordHistogram("svc.job.queue_wait_us", micros(queueWaitSeconds));
    metrics_.recordHistogram("svc.job.run_us", micros(runSeconds));
    metrics_.recordHistogram("svc.job.nodes_created", nodesCreated);
    metrics_.recordHistogram(
        "svc.job.peak_nodes",
        peakNodes <= 0.0 ? 0 : static_cast<std::uint64_t>(peakNodes));

    if (span.enabled()) {
      span.emit("job_end",
                obs::JsonObject()
                    .put("id", req.id)
                    .put("verdict", verdictName(result.verdict))
                    .put("iterations", result.iterations)
                    .put("seconds", runSeconds)
                    .put("queue_wait_s", queueWaitSeconds)
                    .put("nodes_created", nodesCreated)
                    .put("peak_nodes",
                         peakNodes <= 0.0
                             ? std::uint64_t{0}
                             : static_cast<std::uint64_t>(peakNodes)));
    }

    obs::JsonObject o = response("job_result");
    o.put("id", req.id)
        .put("model", req.model)
        .put("method", methodName(req.method))
        .put("verdict", verdictName(result.verdict))
        .put("iterations", result.iterations)
        .put("seconds", result.seconds)
        .put("peak_iterate_nodes", result.peakIterateNodes)
        .put("peak_allocated_nodes", result.peakAllocatedNodes)
        .put("resumed", resumed)
        .put("worker", ctx.worker);
    if (resumed) o.put("resumed_from", resumedFrom);
    if (result.trace.has_value()) {
      o.putRaw("trace_states", bitstringArray(result.trace->states));
      o.putRaw("trace_inputs", bitstringArray(result.trace->inputs));
    }
    emitLine(std::move(o).str());
    finishJob(req.id, "svc.jobs.completed");
  } catch (const std::exception& e) {
    emitLine(std::move(response("job_failed")
                           .put("id", req.id)
                           .put("error", e.what())
                           .put("worker", ctx.worker))
                 .str());
    finishJob(req.id, "svc.jobs.failed");
  }
}

}  // namespace icb::svc
