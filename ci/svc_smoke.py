#!/usr/bin/env python3
"""End-to-end smoke test for icbdd_serve and the icbdd-svc-v1 protocol.

Three phases, every emitted line schema-validated:

  admission -- --drain with a tiny queue bound: a batch whose last valid
               request must be rejected with reason=queue_full and whose
               malformed line must be rejected with reason=parse_error,
               while the accepted jobs all complete;
  kill      -- a long job with checkpoint_every=1 is started, the process
               is SIGKILLed right after its first job_progress line (the
               checkpoint is journaled before the line is emitted, so the
               journal is guaranteed non-empty); the journaled snapshot must
               be an icbdd-ckpt-v1 envelope around an icbdd-bdd-v3 dump;
  resume    -- a fresh process on the same --journal recovers the job and
               must finish it with resumed=true and resumed_from >= 1.

Usage: ci/svc_smoke.py [path/to/icbdd_serve]
"""
import json
import os
import signal
import subprocess
import sys
import tempfile

SERVE = sys.argv[1] if len(sys.argv) > 1 else "./build-werror/examples/icbdd_serve"
SCHEMA = "icbdd-svc-v1"

REQUIRED = {
    "service_start": {"workers", "queue_bound", "journal"},
    "job_accepted": {"id", "queue_depth"},
    "job_rejected": {"reason", "queue_depth", "queue_bound"},
    "job_progress": {"id", "iteration", "checkpoint", "worker"},
    "job_result": {"id", "model", "method", "verdict", "iterations",
                   "seconds", "resumed", "worker"},
    "job_failed": {"id", "error", "worker"},
    "service_stop": {"jobs_accepted", "jobs_rejected", "jobs_completed",
                     "jobs_failed", "jobs_resumed", "checkpoints_saved"},
}
REJECT_REASONS = {"queue_full", "parse_error", "invalid_request", "duplicate_id"}


def validate(raw):
    line = json.loads(raw)
    assert line.get("schema") == SCHEMA, f"bad schema: {raw}"
    kind = line.get("type")
    assert kind in REQUIRED, f"unknown type: {raw}"
    missing = REQUIRED[kind] - line.keys()
    assert not missing, f"{kind} missing {missing}: {raw}"
    if kind == "job_rejected":
        assert line["reason"] in REJECT_REASONS, raw
    return line


def run_batch(args, requests):
    proc = subprocess.run([SERVE] + args, input="\n".join(requests) + "\n",
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [validate(l) for l in proc.stdout.splitlines() if l.strip()]


def of_type(lines, kind):
    return [l for l in lines if l["type"] == kind]


def phase_admission():
    lines = run_batch(
        ["--drain", "--queue-bound", "2", "--checkpoint-every", "0"],
        [
            '{"id":"ok1","model":"mutex","method":"xici","size":3}',
            '{"id":"ok2","model":"fifo","method":"fwd","size":3,"width":4}',
            '{"id":"over","model":"mutex","method":"xici","size":3}',
            '{"id":"torn","model":',
            '{"id":"ok1","model":"mutex","method":"xici","size":3}',
        ])
    rejected = of_type(lines, "job_rejected")
    reasons = sorted(r["reason"] for r in rejected)
    assert reasons == ["duplicate_id", "parse_error", "queue_full"], reasons
    queue_full = next(r for r in rejected if r["reason"] == "queue_full")
    assert queue_full["id"] == "over" and queue_full["queue_bound"] == 2
    results = of_type(lines, "job_result")
    assert sorted(r["id"] for r in results) == ["ok1", "ok2"], results
    assert all(r["verdict"] == "holds" for r in results), results
    stop = of_type(lines, "service_stop")[0]
    assert stop["jobs_accepted"] == 2 and stop["jobs_rejected"] == 3
    assert stop["jobs_completed"] == 2 and stop["jobs_failed"] == 0
    print(f"ok: admission phase, {len(lines)} lines validated")
    return len(lines)


def phase_kill_and_resume(journal):
    # Phase kill: start the long job, SIGKILL on its first checkpoint.
    request = ('{"id":"big","model":"network","method":"fwd","size":5,'
               '"checkpoint_every":1}\n')
    proc = subprocess.Popen(
        [SERVE, "--journal", journal, "--checkpoint-every", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    killed_lines = []
    try:
        proc.stdin.write(request)
        proc.stdin.flush()
        while True:
            raw = proc.stdout.readline()
            assert raw, "serve exited before the first checkpoint"
            line = validate(raw)
            killed_lines.append(line)
            if line["type"] == "job_progress":
                break
    finally:
        proc.kill()
        proc.wait()
    assert of_type(killed_lines, "job_accepted"), killed_lines
    assert os.path.exists(os.path.join(journal, "big.req")), \
        "journal lost the killed job's request"
    assert os.path.exists(os.path.join(journal, "big.ckpt")), \
        "journal lost the killed job's checkpoint"
    # The journaled snapshot is the icbdd-ckpt-v1 envelope around a binary
    # icbdd-bdd-v3 dump, the one format the service writes.
    with open(os.path.join(journal, "big.ckpt"), "rb") as f:
        ckpt = f.read()
    assert ckpt.startswith(b"icbdd-ckpt-v1\n"), ckpt[:32]
    assert b"\nicbdd-bdd-v3\n" in ckpt, ckpt[:128]

    # Phase resume: a fresh process recovers and finishes the job.
    lines = run_batch(["--journal", journal, "--checkpoint-every", "1"], [""])
    results = of_type(lines, "job_result")
    assert len(results) == 1, lines
    result = results[0]
    assert result["id"] == "big" and result["resumed"] is True, result
    assert result["resumed_from"] >= 1, result
    assert result["verdict"] == "holds", result
    stop = of_type(lines, "service_stop")[0]
    assert stop["jobs_resumed"] == 1 and stop["jobs_completed"] == 1, stop
    assert not os.listdir(journal), "journal not cleaned after completion"
    print(f"ok: kill+resume phase, resumed from iteration "
          f"{result['resumed_from']} of {result['iterations']}, "
          f"{len(killed_lines) + len(lines)} lines validated")
    return len(killed_lines) + len(lines)


def main():
    signal.alarm(600)  # whole-script watchdog
    total = phase_admission()
    with tempfile.TemporaryDirectory(prefix="icbdd-svc-smoke-") as journal:
        total += phase_kill_and_resume(journal)
    print(f"ok: icbdd-svc-v1 smoke passed, {total} lines validated")


if __name__ == "__main__":
    main()
