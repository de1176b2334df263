// On-disk job journal: what lets a killed service process resume its jobs.
//
// One directory, two files per live job (the id is validated by validJobId
// before it ever reaches a filename):
//
//   <id>.req    the original request line, verbatim
//   <id>.ckpt   the latest icbdd-ckpt-v1 snapshot (absent until the first
//               checkpoint fires)
//
// Both are written atomically (temp file + rename), so a SIGKILL mid-write
// leaves either the previous snapshot or the new one -- never a torn file.
// Completed jobs have their files removed; whatever .req files remain at
// startup are exactly the jobs that were accepted but never finished, and
// VerifyService::recoverJournal re-submits them with resume=true.
//
// Write failures degrade, they do not kill: a journal whose directory turns
// unwritable mid-flight (disk full, permissions yanked) records the failure
// (svc.journal.write_failures, healthy() == false, lastError()) and keeps
// serving -- jobs lose crash-resume durability, not their results.  The
// /healthz endpoint surfaces the degradation (docs/observability.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace icb::svc {

/// Thread-safe: the journal handle is shared by the service's accept path
/// and every worker thread (checkpoint sinks write concurrently).  Distinct
/// jobs touch distinct files and each write is temp-then-rename atomic, so
/// file-level operations need no lock; the write statistics below are the
/// only cross-thread mutable state and live behind statsMutex_.
class JobJournal {
 public:
  /// Creates `dir` (and parents) if needed; throws std::runtime_error when
  /// the directory cannot be created or is not writable.
  explicit JobJournal(std::string dir);

  /// Journals an accepted job's request line.  A failed write is counted
  /// and remembered (degraded mode), never thrown.
  void recordAccepted(const std::string& id, const std::string& requestLine);

  /// Atomically replaces the job's checkpoint snapshot.  A failed write is
  /// counted and remembered (degraded mode), never thrown.
  void recordCheckpoint(const std::string& id, const std::string& snapshot);

  /// The job's latest snapshot bytes, or nullopt when none was written.
  [[nodiscard]] std::optional<std::string> checkpointBytes(
      const std::string& id) const;

  /// Removes the job's files (called when a job completes or fails).
  void remove(const std::string& id);

  /// Request lines of every journaled job that never completed, in
  /// lexicographic id order (deterministic recovery).
  [[nodiscard]] std::vector<std::string> recoverableRequests() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Atomic journal writes performed so far (request lines + checkpoints);
  /// exported as the `svc.journal.writes` counter.
  [[nodiscard]] std::uint64_t writesRecorded() const
      ICBDD_EXCLUDES(statsMutex_);

  /// Failed journal writes so far; exported as `svc.journal.write_failures`.
  [[nodiscard]] std::uint64_t writeFailures() const ICBDD_EXCLUDES(statsMutex_);

  /// False after a write failure until the next successful write -- the
  /// /healthz degradation signal.
  [[nodiscard]] bool healthy() const ICBDD_EXCLUDES(statsMutex_);

  /// Seconds since the last *successful* journal write, or a negative value
  /// when nothing has been written yet (the /healthz journal-age field).
  [[nodiscard]] double secondsSinceLastWrite() const
      ICBDD_EXCLUDES(statsMutex_);

  /// The most recent write failure's message ("" when healthy()).
  [[nodiscard]] std::string lastError() const ICBDD_EXCLUDES(statsMutex_);

 private:
  [[nodiscard]] std::string pathFor(const std::string& id,
                                    const char* suffix) const;
  void countWrite() ICBDD_EXCLUDES(statsMutex_);
  void countFailure(const std::string& what) ICBDD_EXCLUDES(statsMutex_);

  std::string dir_;  ///< immutable after construction
  mutable Mutex statsMutex_;
  std::uint64_t writes_ ICBDD_GUARDED_BY(statsMutex_) = 0;
  std::uint64_t writeFailures_ ICBDD_GUARDED_BY(statsMutex_) = 0;
  bool healthy_ ICBDD_GUARDED_BY(statsMutex_) = true;
  bool hasWritten_ ICBDD_GUARDED_BY(statsMutex_) = false;
  Stopwatch lastWriteWatch_ ICBDD_GUARDED_BY(statsMutex_);
  std::string lastError_ ICBDD_GUARDED_BY(statsMutex_);
};

}  // namespace icb::svc
