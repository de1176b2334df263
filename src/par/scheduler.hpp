// Cell-level parallel verification scheduler.
//
// Every (model, method) cell of a paper-table sweep is an independent
// workload: it builds its own model inside a private BddManager, runs one
// engine, and returns an EngineResult.  Nothing is shared between cells
// except the (mutex-protected) JSONL trace sink, so cells parallelize
// trivially -- the same observation that drives partitioned/levelized BDD
// systems (Adiar, distbdd): scale comes from structuring independent BDD
// workloads, not from locking one node table.
//
// VerifyScheduler is a fixed thread pool over a batch of submitted cells:
//
//   * work stealing -- each worker owns a deque seeded round-robin; it pops
//     its own queue from the front and steals from the back of its peers, so
//     one slow cell (a monolithic Fwd run at depth 10) never strands the
//     cells queued behind it;
//   * deterministic aggregation -- results come back indexed by submission
//     order regardless of completion order, so a parallel sweep renders the
//     exact table a serial sweep renders;
//   * cooperative cancellation -- a thrown cell (and, when
//     cancelOnFirstViolation is set, the first violated verdict) stops every
//     cell that has not yet started; a global deadline is propagated into
//     each cell through the existing EngineOptions/ResourceLimits deadline
//     machinery, so running cells abort themselves the way a capped bench
//     row does;
//   * per-cell attribution -- every result records the worker that ran it,
//     and CellContext::apply tags the cell's trace spans with the same
//     worker id (the "worker" field of docs/observability.md).
//
// jobs == 1 runs every cell inline on the calling thread in submission
// order: no threads are spawned and the behavior is byte-identical to the
// historical serial sweep.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"
#include "verif/engine.hpp"

namespace icb::par {

/// Worker threads used when SchedulerOptions::jobs is 0: the hardware
/// concurrency, never less than 1.
[[nodiscard]] unsigned hardwareJobs();

/// Handed to a cell body when it starts executing.
struct CellContext {
  unsigned worker = 0;     ///< executing worker, 0-based
  std::size_t index = 0;   ///< submission index of this cell
  std::string group;       ///< the cell's group label (job id for svc cells)
  /// Seconds this cell sat queued between run() starting and its body
  /// being dispatched -- the scheduler-side wait the svc.job.queue_wait_us
  /// histogram and the cell_end "queued_s" field report.
  double queueWaitSeconds = 0.0;
  /// Seconds left on the scheduler's global deadline at dispatch time
  /// (0 when no global deadline is installed).
  double remainingGlobalSeconds = 0.0;
  /// The scheduler's cancellation flag, when SchedulerOptions::
  /// cancelRunningCells asked for running cells to observe it (else null).
  /// apply() threads it into EngineOptions so the cell's BDD operations
  /// poll it alongside the deadline.
  const std::atomic<bool>* cancelFlag = nullptr;

  /// Applies the scheduler context to one cell's engine options: tags the
  /// run's trace spans with the worker id and the group name (the "job"
  /// correlation field), clamps the cell's time limit to the remaining
  /// global budget, and installs the batch cancellation flag.  Cell bodies
  /// call this on the options they are about to run with.
  void apply(EngineOptions& options) const;
};

/// One cell's workload.  The body builds its model in a private BddManager,
/// applies the context to its options, and runs one engine.
using CellBody = std::function<EngineResult(const CellContext&)>;

/// One cell's outcome, in submission order.
struct CellResult {
  std::size_t index = 0;
  std::string group;              ///< row-group label (model + config)
  Method method = Method::kFwd;
  EngineResult result;
  unsigned worker = 0;            ///< worker that ran (or skipped) the cell
  bool skipped = false;           ///< cancelled before the body started
  std::string skipReason;         ///< why, when skipped
  double wallSeconds = 0.0;       ///< body wall time (0 when skipped)
  double queueWaitSeconds = 0.0;  ///< run()-to-dispatch wait for this cell
};

struct SchedulerOptions {
  /// Worker threads.  0 = hardwareJobs(); 1 = run inline, no threads.
  unsigned jobs = 0;
  /// Cancel all not-yet-started cells after the first kViolated verdict.
  /// (A cell body throwing always cancels the remainder -- fail fast.)
  bool cancelOnFirstViolation = false;
  /// Also abort cells that are already *running* when the batch is
  /// cancelled: the scheduler's flag is threaded into each cell's
  /// EngineOptions (CellContext::cancelFlag) and the BDD manager polls it
  /// with the deadline, so a monolithic cell stops within a few thousand
  /// node allocations instead of running to completion.  An aborted cell
  /// reports the ordinary capped verdict (kTimeLimit).  Off by default:
  /// the historical contract only skips cells that have not started.
  bool cancelRunningCells = false;
  /// Wall-clock budget for the whole batch (0 = none).  Propagated into
  /// each cell's EngineOptions deadline at dispatch; cells that would start
  /// after expiry are skipped.
  double globalDeadlineSeconds = 0.0;
};

class VerifyScheduler {
 public:
  explicit VerifyScheduler(SchedulerOptions options = {});

  VerifyScheduler(const VerifyScheduler&) = delete;
  VerifyScheduler& operator=(const VerifyScheduler&) = delete;

  /// Queues one cell; returns its submission index.
  std::size_t submit(std::string group, Method method, CellBody body);

  /// Runs every submitted cell and returns the results in submission order.
  /// May be called once per scheduler.
  std::vector<CellResult> run();

  /// The worker count run() will use (options resolved against hardware).
  [[nodiscard]] unsigned jobs() const { return jobs_; }

 private:
  struct Cell {
    std::string group;
    Method method = Method::kFwd;
    CellBody body;
  };

  /// One worker's deque; own pops from the front, thieves from the back.
  struct WorkerQueue {
    Mutex mutex;
    std::deque<std::size_t> cells ICBDD_GUARDED_BY(mutex);
  };

  void cancel(const std::string& reason) ICBDD_EXCLUDES(reasonMutex_);
  [[nodiscard]] std::string cancelReason() ICBDD_EXCLUDES(reasonMutex_);
  std::optional<std::size_t> take(unsigned self);
  void runCell(std::size_t index, unsigned worker,
               std::vector<CellResult>& results);
  void workerLoop(unsigned self, std::vector<CellResult>& results);

  SchedulerOptions options_;
  unsigned jobs_;
  // cells_ and queues_ (the vector itself) are shaped before the worker
  // threads spawn and only read afterwards; per-queue deques are the
  // mutable shared state and live behind their own WorkerQueue::mutex.
  std::vector<Cell> cells_;
  std::vector<WorkerQueue> queues_;
  Stopwatch batchWatch_;
  // Set-once batch kill switch.  Written by cancel() (seq_cst CAS), read
  // with acquire so a skipping worker also observes the reason_ write that
  // the CAS winner made before it (release ordering via the mutex).
  std::atomic<bool> cancelled_{false};
  Mutex reasonMutex_;
  std::string reason_ ICBDD_GUARDED_BY(reasonMutex_);
};

}  // namespace icb::par
