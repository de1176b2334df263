#!/usr/bin/env python3
"""Load harness for icbdd_serve: soak the service and reconcile /metrics.

Drives one icbdd_serve process with hundreds of concurrent small jobs over
the icbdd-svc-v1 stdin/stdout protocol while scraping its Prometheus
endpoint, then cross-checks the two views of the same run:

  * every scrape must parse under the text-exposition grammar (HELP/TYPE
    comments, sample lines, histogram bucket/sum/count families);
  * counters must be monotone across scrapes, histogram buckets cumulative
    with +Inf == _count;
  * the NDJSON stream and the final scrape must agree: accepted ==
    completed + failed, and the svc.job.run_us histogram must have exactly
    one sample per completed job.

Prints a latency-percentile summary (p50/p90/p99 from the per-job NDJSON
seconds) and optionally writes it as JSON for the CI artifact.  Pure
stdlib -- no third-party packages.

Usage:
  ci/loadgen.py --serve ./build/examples/icbdd_serve [--jobs 240]
                [--workers 4] [--failures 8] [--timeout 300]
                [--summary-json out.json]
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

# Prometheus text exposition 0.0.4, restricted to what icbdd emits: no
# timestamps, only the "le" label, metric names icbdd_*.
COMMENT_RE = re.compile(r"^# (HELP|TYPE) icbdd_[a-zA-Z0-9_]+(?: .*)?$")
SAMPLE_RE = re.compile(
    r'^(icbdd_[a-zA-Z0-9_]+)(\{le="(?:\d+|\+Inf)"\})? '
    r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$"
)
TYPE_RE = re.compile(r"^# TYPE (icbdd_[a-zA-Z0-9_]+) (counter|gauge|histogram)$")


def check_grammar(text: str) -> list[str]:
    """Returns grammar violations ([] means the exposition is well-formed)."""
    errors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            errors.append(f"line {lineno}: empty line")
        elif line.startswith("#"):
            if not COMMENT_RE.match(line):
                errors.append(f"line {lineno}: bad comment {line!r}")
        elif not SAMPLE_RE.match(line):
            errors.append(f"line {lineno}: bad sample {line!r}")
    return errors


def parse_samples(text: str) -> dict[str, float]:
    """Maps 'name' or 'name{le=\"...\"}' to its value."""
    out = {}
    for line in text.splitlines():
        m = SAMPLE_RE.match(line)
        if m:
            out[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return out


def parse_types(text: str) -> dict[str, str]:
    return {m.group(1): m.group(2) for m in map(TYPE_RE.match, text.splitlines()) if m}


def check_histograms(samples: dict[str, float], types: dict[str, str]) -> list[str]:
    """Cumulative buckets, +Inf == _count, for every histogram family."""
    errors = []
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []
        for key, value in samples.items():
            m = re.match(re.escape(name) + r'_bucket\{le="(\d+|\+Inf)"\}$', key)
            if m:
                le = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
                buckets.append((le, value))
        buckets.sort()
        if not buckets or buckets[-1][0] != float("inf"):
            errors.append(f"{name}: missing +Inf bucket")
            continue
        for (_, lo), (_, hi) in zip(buckets, buckets[1:]):
            if hi < lo:
                errors.append(f"{name}: non-cumulative buckets")
        if buckets[-1][1] != samples.get(f"{name}_count"):
            errors.append(f"{name}: +Inf bucket != _count")
        if f"{name}_sum" not in samples:
            errors.append(f"{name}: missing _sum")
    return errors


def check_monotone(prev: dict[str, float], cur: dict[str, float],
                   types: dict[str, str]) -> list[str]:
    errors = []
    for key, value in prev.items():
        base = key.split("{")[0]
        kind = types.get(base)
        if kind == "counter" or (kind == "histogram" and base != key):
            if cur.get(key, 0.0) < value:
                errors.append(f"{key}: went backwards {value} -> {cur.get(key)}")
    return errors


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


def job_line(i: int, fail: bool) -> str:
    if fail:
        # An unknown model passes admission and fails in the worker: the
        # job_failed path must reconcile exactly like the completed one.
        return json.dumps({"id": f"load-{i}", "model": "no-such-model"})
    req = {
        "id": f"load-{i}",
        "model": ["fifo", "mutex", "network"][i % 3],
        "method": "xici",
        "size": 3,
        "width": 4,
        "want_trace": False,
    }
    return json.dumps(req)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--serve", default="./build/examples/icbdd_serve")
    ap.add_argument("--jobs", type=int, default=240)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--failures", type=int, default=8,
                    help="jobs submitted with an unknown model (job_failed path)")
    ap.add_argument("--timeout", type=float, default=300.0)
    ap.add_argument("--summary-json", default="")
    args = ap.parse_args()

    counts = {"job_accepted": 0, "job_rejected": 0, "job_result": 0,
              "job_failed": 0}
    seconds = []
    stop_line = {}
    lock = threading.Lock()

    def reader(stream):
        for raw in stream:
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                continue
            with lock:
                kind = obj.get("type")
                if kind in counts:
                    counts[kind] += 1
                if kind == "job_result":
                    seconds.append(float(obj.get("seconds", 0.0)))
                if kind == "service_stop":
                    stop_line.update(obj)

    with tempfile.TemporaryDirectory(prefix="icbdd-loadgen-") as journal:
        cmd = [args.serve, "--workers", str(args.workers),
               "--queue-bound", str(args.jobs + 8),
               "--journal", journal, "--metrics-port", "0"]
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        start = json.loads(proc.stdout.readline())
        port = start.get("metrics_port")
        if not isinstance(port, int):
            print("FAIL: service_start carries no metrics_port", file=sys.stderr)
            proc.kill()
            return 1
        threading.Thread(target=reader, args=(proc.stdout,), daemon=True).start()

        for i in range(args.jobs):
            fail = i % max(1, args.jobs // max(1, args.failures)) == 1 \
                if args.failures else False
            proc.stdin.write(job_line(i, fail) + "\n")
        proc.stdin.flush()

        def scrape(path="/metrics"):
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
                return resp.status, resp.read().decode()

        errors = []
        prev_samples = {}
        scrapes = 0
        deadline = time.monotonic() + args.timeout
        while True:
            status, text = scrape()
            scrapes += 1
            if status != 200:
                errors.append(f"/metrics returned {status}")
            errors += check_grammar(text)
            samples, types = parse_samples(text), parse_types(text)
            errors += check_histograms(samples, types)
            errors += check_monotone(prev_samples, samples, types)
            prev_samples = samples
            with lock:
                done = counts["job_result"] + counts["job_failed"]
                accepted = counts["job_accepted"]
            if accepted == args.jobs and done == accepted:
                break
            if time.monotonic() > deadline:
                errors.append(
                    f"timeout: {done}/{accepted} jobs finished of {args.jobs}")
                break
            time.sleep(0.2)

        hstatus, htext = scrape("/healthz")
        if hstatus != 200 or not htext.startswith("ok"):
            errors.append(f"/healthz not ok: {hstatus} {htext!r}")

        proc.stdin.close()
        proc.wait(timeout=60)

    # Reconciliation: the NDJSON stream, the final scrape, and the
    # service_stop trailer must all describe the same run.
    with lock:
        accepted, completed = counts["job_accepted"], counts["job_result"]
        failed, rejected = counts["job_failed"], counts["job_rejected"]
    if accepted != completed + failed:
        errors.append(f"accepted {accepted} != completed {completed} + failed {failed}")
    if accepted + rejected != args.jobs:
        errors.append(f"accepted {accepted} + rejected {rejected} != submitted {args.jobs}")
    for key, want in [("icbdd_svc_jobs_accepted", accepted),
                      ("icbdd_svc_jobs_completed", completed),
                      ("icbdd_svc_jobs_failed", failed),
                      ("icbdd_svc_job_run_us_count", completed)]:
        got = prev_samples.get(key, 0.0)
        if got != want:
            errors.append(f"{key}: prometheus says {got}, NDJSON says {want}")
    if stop_line.get("jobs_completed") != completed:
        errors.append(f"service_stop jobs_completed {stop_line.get('jobs_completed')}"
                      f" != {completed}")

    seconds.sort()
    summary = {
        "jobs": args.jobs,
        "workers": args.workers,
        "accepted": accepted,
        "completed": completed,
        "failed": failed,
        "rejected": rejected,
        "scrapes": scrapes,
        "run_seconds_p50": percentile(seconds, 0.50),
        "run_seconds_p90": percentile(seconds, 0.90),
        "run_seconds_p99": percentile(seconds, 0.99),
        "errors": errors,
    }
    print(f"loadgen: {accepted} accepted = {completed} completed + {failed} failed"
          f" ({rejected} rejected), {scrapes} scrapes")
    print(f"loadgen: job run seconds p50={summary['run_seconds_p50']:.6f}"
          f" p90={summary['run_seconds_p90']:.6f}"
          f" p99={summary['run_seconds_p99']:.6f}")
    if args.summary_json:
        with open(args.summary_json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    if errors:
        for e in errors[:20]:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("loadgen: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
