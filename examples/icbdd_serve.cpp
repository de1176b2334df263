// icbdd-serve: the verification job service over stdin/stdout.
//
// Reads one icbdd-svc-v1 request per line from stdin, answers with
// job_accepted / job_rejected immediately, streams job_progress lines as
// checkpoints land, and emits one job_result (or job_failed) per job.  EOF
// on stdin drains the queue and exits.  docs/service.md documents the
// protocol and the recovery guarantees.
//
//   icbdd_serve [--workers N] [--queue-bound N] [--journal DIR]
//               [--checkpoint-every N] [--max-job-seconds S]
//               [--default-job-seconds S] [--drain] [--no-recover]
//               [--metrics-port N]
//
// With --journal DIR, jobs accepted by a previous (killed) process are
// re-submitted with resume=true at startup, picking up from their last
// journaled checkpoint.  --drain holds every job until EOF and then runs
// the whole queue as one batch (deterministic admission decisions -- the CI
// smoke test's rejection path).  Per-job engine trace spans still follow
// ICBDD_TRACE, with worker attribution, independent of this protocol stream.
//
// --metrics-port N serves /metrics (Prometheus text exposition), /healthz
// (200 ok / 503 degraded on journal write failure), and /statusz (JSON) on
// an embedded HTTP thread; N = 0 picks an ephemeral port, reported as
// "metrics_port" in the service_start line.  Without the flag no socket is
// opened and the NDJSON stream is byte-identical to previous releases.
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "obs/httpd.hpp"
#include "obs/jsonl.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"

using namespace icb;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"workers", "queue-bound", "max-job-seconds",
                                  "default-job-seconds", "checkpoint-every",
                                  "journal", "drain", "no-recover",
                                  "metrics-port"});

  svc::ServiceOptions options;
  options.workers = static_cast<unsigned>(args.getInt("workers", 1));
  options.queueBound =
      static_cast<std::size_t>(args.getInt("queue-bound", 16));
  options.maxJobSeconds = args.getDouble("max-job-seconds", 0.0);
  options.defaultJobSeconds = args.getDouble("default-job-seconds", 0.0);
  options.checkpointEvery =
      static_cast<unsigned>(args.getInt("checkpoint-every", 4));
  options.journalDir = args.getString("journal", "");
  options.drain = args.getBool("drain", false);

  std::mutex outMutex;
  auto emit = [&outMutex](const std::string& line) {
    // One line per response, flushed immediately: callers drive the
    // protocol by reading lines, so buffering would deadlock them.
    std::lock_guard<std::mutex> lock(outMutex);
    std::cout << line << '\n' << std::flush;
  };

  svc::VerifyService service(options, emit);

  // The scrape endpoints.  Everything the handler touches is internally
  // synchronized (SharedMetrics snapshot, journal stats), so serving from
  // the HTTP thread needs no extra locking.
  const std::int64_t metricsPort = args.getInt("metrics-port", -1);
  std::unique_ptr<obs::HttpServer> httpd;
  if (metricsPort >= 0) {
    httpd = std::make_unique<obs::HttpServer>(
        static_cast<std::uint16_t>(metricsPort),
        [&service](const std::string& path) {
          obs::HttpResponse resp;
          if (path == "/metrics") {
            resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
            resp.body = obs::prometheusRender(service.metricsSnapshot());
          } else if (path == "/healthz") {
            const svc::ServiceHealth h = service.health();
            std::ostringstream body;
            body << (h.ok() ? "ok" : "degraded: " + h.journalError) << "\n"
                 << "queue_depth " << h.queueDepth << "\n"
                 << "journal_age_s " << h.secondsSinceJournalWrite << "\n";
            resp.status = h.ok() ? 200 : 503;
            resp.body = body.str();
          } else if (path == "/statusz") {
            const svc::ServiceHealth h = service.health();
            resp.contentType = "application/json";
            resp.body = std::move(obs::JsonObject()
                                      .put("schema", "icbdd-svc-v1")
                                      .put("uptime_s", obs::traceClockSeconds())
                                      .put("queue_depth",
                                           static_cast<std::uint64_t>(
                                               h.queueDepth))
                                      .put("journal_ok", h.journalOk)
                                      .put("journal_age_s",
                                           h.secondsSinceJournalWrite)
                                      .putRaw("metrics",
                                              service.metricsSnapshot()
                                                  .toJson()))
                            .str() +
                        "\n";
          } else {
            resp.status = 404;
            resp.body = "not found\n";
          }
          return resp;
        });
  }

  obs::JsonObject start;
  start.put("schema", "icbdd-svc-v1")
      .put("type", "service_start")
      .put("workers", static_cast<std::uint64_t>(options.workers))
      .put("queue_bound", static_cast<std::uint64_t>(options.queueBound))
      .put("journal", options.journalDir);
  // Only present when the endpoint is enabled, so the default stream stays
  // byte-identical to releases without the flag.
  if (httpd) start.put("metrics_port", static_cast<std::uint64_t>(httpd->port()));
  emit(std::move(start).str());

  if (!options.journalDir.empty() && !args.getBool("no-recover", false)) {
    service.recoverJournal();
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    service.submitLine(line);
  }
  service.shutdown();

  const obs::MetricsRegistry metrics = service.metricsSnapshot();
  emit(std::move(obs::JsonObject()
                     .put("schema", "icbdd-svc-v1")
                     .put("type", "service_stop")
                     .put("jobs_accepted", metrics.counter("svc.jobs.accepted"))
                     .put("jobs_rejected", metrics.counter("svc.jobs.rejected"))
                     .put("jobs_completed",
                          metrics.counter("svc.jobs.completed"))
                     .put("jobs_failed", metrics.counter("svc.jobs.failed"))
                     .put("jobs_resumed", metrics.counter("svc.jobs.resumed"))
                     .put("checkpoints_saved",
                          metrics.counter("svc.checkpoints.saved")))
           .str());
  return 0;
}
