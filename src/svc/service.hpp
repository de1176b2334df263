// VerifyService: the verification job service (icbdd-svc-v1).
//
// Wraps the batch scheduler (src/par/) in what a long-lived service needs
// and a bench does not:
//
//   * admission control -- a bounded queue.  submitLine parses one request
//     (obs/jsonl), answers job_accepted or a structured job_rejected
//     (queue_full / parse_error / invalid_request / duplicate_id), and never
//     queues past the bound;
//   * deadline clamping -- per-job deadlines are clamped to the service's
//     maxJobSeconds and fall back to defaultJobSeconds, then flow into the
//     engines through the existing EngineOptions/ResourceLimits machinery;
//   * checkpoint/resume -- every job runs with CheckpointOptions wired to
//     the on-disk JobJournal: every N iterations the engine's state is
//     snapshotted (verif/checkpoint) and journaled, a job_progress line is
//     streamed, and a killed process picks its jobs back up at startup via
//     recoverJournal();
//   * metrics -- svc.jobs.{accepted,rejected,completed,failed,resumed},
//     svc.checkpoints.saved, svc.journal.{writes,write_failures} counters,
//     svc.queue.{depth,peak_depth} gauges, and the svc.job.* /
//     svc.checkpoint.* latency and attribution histograms in a
//     SharedMetrics (docs/observability.md);
//   * per-job attribution -- each job's trace spans carry its request id
//     (the "job" envelope field), its job_end span reports wall/queue-wait
//     seconds and the private manager's node bill, and the same quantities
//     feed the svc.job.* histograms for the /metrics endpoint.
//
// Every emitted line is one JSON object carrying "schema":"icbdd-svc-v1";
// docs/service.md documents the protocol.  Jobs execute on a VerifyScheduler
// batch per queue drain, each in a private BddManager, with worker
// attribution flowing into the job's trace spans via CellContext::apply.
//
// Concurrency contract (checked by -Wthread-safety under clang):
// mutex_ guards the queue state (pending_, activeIds_, running_, stop_);
// emitMutex_ serializes the caller's emit callback and is always acquired
// *after* mutex_ when both are held; metrics_ and journal_ synchronize
// internally and may be touched from any thread without either lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace icb::svc {

struct ServiceOptions {
  /// Worker threads per queue drain.  0 = hardware concurrency.
  unsigned workers = 1;
  /// Admission bound: pending + running jobs may not exceed this.
  std::size_t queueBound = 16;
  /// Hard ceiling clamped onto every job's deadline (0 = no ceiling).
  double maxJobSeconds = 0.0;
  /// Deadline for jobs that request none (0 = unlimited).
  double defaultJobSeconds = 0.0;
  /// Default checkpoint cadence in iterations (0 disables checkpointing
  /// for jobs that do not ask for it).
  unsigned checkpointEvery = 4;
  /// Journal directory; empty runs without persistence (no cross-process
  /// resume, but in-request "resume" of a prior snapshot still works when
  /// a journal exists).
  std::string journalDir;
  /// Hold every accepted job until shutdown(), then run the whole queue as
  /// one batch.  Makes admission decisions independent of worker timing --
  /// the CI smoke test uses this to force a deterministic rejection.
  bool drain = false;
};

/// Point-in-time liveness snapshot for the /healthz endpoint.
struct ServiceHealth {
  std::size_t queueDepth = 0;
  /// False when the journal has entered degraded mode (last write failed).
  /// Always true for a journal-less service.
  bool journalOk = true;
  /// Seconds since the last successful journal write; negative when none
  /// has happened yet (or no journal is configured).
  double secondsSinceJournalWrite = -1.0;
  /// The journal's most recent write error ("" when journalOk).
  std::string journalError;

  [[nodiscard]] bool ok() const { return journalOk; }
};

class VerifyService {
 public:
  /// `emit` receives every response line (one JSON object, no newline); it
  /// is called under an internal mutex, from submit callers and from worker
  /// threads, and must be fast and non-reentrant.
  using Emit = std::function<void(const std::string& line)>;

  VerifyService(ServiceOptions options, Emit emit);
  ~VerifyService();

  VerifyService(const VerifyService&) = delete;
  VerifyService& operator=(const VerifyService&) = delete;

  /// Parses and admits one request line.  Always answers with exactly one
  /// job_accepted or job_rejected line; returns whether it was accepted.
  bool submitLine(const std::string& line) ICBDD_EXCLUDES(mutex_);

  /// Admits an already parsed request (`line` is what the journal stores).
  bool submit(const JobRequest& request, const std::string& line)
      ICBDD_EXCLUDES(mutex_);

  /// Re-submits every unfinished journaled job with resume=true.  Call
  /// before accepting new work.  Returns how many jobs were re-admitted.
  std::size_t recoverJournal() ICBDD_EXCLUDES(mutex_);

  /// Runs the queue dry and joins the dispatcher.  Idempotent.
  void shutdown() ICBDD_EXCLUDES(mutex_);

  /// Pending + running jobs right now.
  [[nodiscard]] std::size_t queueDepth() const ICBDD_EXCLUDES(mutex_);

  /// Point-in-time copy of the service counters/gauges/histograms (plus the
  /// journal's svc.journal.{writes,write_failures}, folded in at snapshot
  /// time).  This is what /metrics renders.
  [[nodiscard]] obs::MetricsRegistry metricsSnapshot() const;

  /// Liveness snapshot for /healthz: queue depth plus journal degradation.
  [[nodiscard]] ServiceHealth health() const ICBDD_EXCLUDES(mutex_);

 private:
  struct QueuedJob {
    JobRequest request;
    std::string line;             ///< journaled request line
    double enqueueSeconds = 0.0;  ///< traceClockSeconds() at admission
  };

  void dispatcherLoop() ICBDD_EXCLUDES(mutex_);
  void runBatch(std::vector<QueuedJob>& batch);
  void runOneJob(const QueuedJob& job, const par::CellContext& ctx);
  void emitLine(const std::string& line) ICBDD_EXCLUDES(emitMutex_);
  void finishJob(const std::string& id, const char* counterName)
      ICBDD_EXCLUDES(mutex_);

  ServiceOptions options_;
  Emit emit_;
  std::unique_ptr<JobJournal> journal_;  ///< internally synchronized

  mutable Mutex mutex_;
  // _any because icb::Mutex is a BasicLockable, not std::mutex; the wait
  // sites re-check their predicate in a loop, so spurious wakeups are safe.
  std::condition_variable_any cv_;
  std::vector<QueuedJob> pending_ ICBDD_GUARDED_BY(mutex_);
  /// Pending + running job ids (duplicate-admission check).
  std::vector<std::string> activeIds_ ICBDD_GUARDED_BY(mutex_);
  std::size_t running_ ICBDD_GUARDED_BY(mutex_) = 0;
  bool stop_ ICBDD_GUARDED_BY(mutex_) = false;
  obs::SharedMetrics metrics_;  ///< internally synchronized

  Mutex emitMutex_ ICBDD_ACQUIRED_AFTER(mutex_);
  std::thread dispatcher_;
};

}  // namespace icb::svc
