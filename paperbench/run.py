#!/usr/bin/env python3
"""Paper-cell benchmark: time to verdict per paper cell, split by layer.

    python3 paperbench/run.py --workload monolithic|xici|ckpt-reorder \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds paperbench_driver from source into
.bench_build/paperbench (a no-op once built), runs it for the time budget,
checks every cell against expected.json and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones from the traced pass.  README.md describes workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "paperbench")
DRIVER = os.path.join(BUILD_DIR, "paperbench_driver")
DRIVER_TIMEOUT_S = 170
# The driver's calibration kernel takes about this long on the reference
# host, a 4-core x86-64 KVM guest (Xeon, 300 MiB shared L3, GCC 12).  Cell
# times are reported in seconds on that host: measured seconds x
# REFERENCE_CALIB_S / calib_s, where calib_s is the kernel's time around the
# cell.  README.md ("Host speed") says why.
REFERENCE_CALIB_S = 0.04

# Span keys the driver records; each becomes a "<key>_s" self-time metric.
SPAN_KEYS = ("bdd.apply", "sym.back_image", "sym.image", "sym.cluster_build",
             "ici.simplify", "ici.pair_eval", "ici.term",
             "verif.ckpt_save", "verif.ckpt_load", "verif.fd")


class BenchError(Exception):
    """The benchmark cannot produce trustworthy numbers."""


# ---------------------------------------------------------------------------
# arithmetic


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num, den):
    return num / den if den else 0.0


def passed_pct(attempted, failed):
    """Share of attempted cells whose outcome matched, in percent."""
    return 100.0 * (attempted - failed) / attempted


def exclusive(spans):
    """Splits one cell's spans into exclusive times.

    `spans` maps a span key to [seconds, gc_s, reorder_s, gc_in_reorder_s,
    calls] as the driver prints them.  GC pauses are subtracted from the span
    they happened in and reported as GC; sift pauses likewise as reorder,
    less the collections the sift ran itself, which GC already counts.
    Returns (self seconds per key, gc seconds, reorder seconds).
    """
    self_s, gc, reorder = {}, 0.0, 0.0
    for key, (seconds, gc_s, reorder_s, gc_in_reorder_s, _calls) in spans.items():
        own_reorder = reorder_s - gc_in_reorder_s
        self_s[key] = seconds - gc_s - own_reorder
        gc += gc_s
        reorder += own_reorder
    return self_s, gc, reorder


# ---------------------------------------------------------------------------
# checks


def outcome(line):
    return (line["verdict"], line["iterations"], line["peak"], line["members"])


def check_cell(line, pinned, rep_lines):
    """Returns why an engine cell failed, or None when it matches."""
    for field in ("verdict", "iterations", "peak", "members"):
        if field in pinned and line[field] != pinned[field]:
            return "%s %r, expected %r" % (field, line[field], pinned[field])
    source = pinned.get("matches")
    if source is not None:
        if source not in rep_lines:
            return "no %s run to compare with" % source
        if outcome(line) != outcome(rep_lines[source]):
            return "differs from the uninterrupted run %s" % source
    return None


def check_cells(engine, expected):
    """Checks every engine line; returns one message per failed cell run."""
    ran = {line["cell"] for line in engine}
    if ran != set(expected):
        raise BenchError("cells run %s, expected.json pins %s" % (
            sorted(ran), sorted(expected)))
    rep_lines = {}
    for line in engine:
        rep_lines.setdefault(line["rep"], {})[line["cell"]] = line
    failures = []
    for line in engine:
        why = check_cell(line, expected[line["cell"]], rep_lines[line["rep"]])
        if why:
            failures.append("rep %d %s: %s" % (line["rep"], line["cell"], why))
    return failures


def check_traced(traced, engine):
    """The traced pass must reproduce the engine cell for cell, and its
    spans plus the unattributed remainder must sum to its wall time."""
    engine_of = {(line["rep"], line["cell"]): line for line in engine}
    for line in traced:
        where = "rep %d %s" % (line["rep"], line["cell"])
        ref = engine_of.get((line["rep"], line["cell"]))
        if ref is None or outcome(line) != outcome(ref):
            raise BenchError("%s: traced pass gave %r, engine %r" % (
                where, outcome(line), ref and outcome(ref)))
        self_s, gc, reorder = exclusive(line["spans"])
        spanned = sum(s[0] for s in line["spans"].values())
        unattributed = line["wall_s"] - spanned
        if unattributed < -1e-9:
            raise BenchError("%s: spans cover %.6f s of a %.6f s wall" % (
                where, spanned, line["wall_s"]))
        # Pause totals are whole microseconds, so a span's own time may
        # only dip below zero by that rounding.
        for key, seconds in self_s.items():
            if seconds < -1e-6 * line["spans"][key][4]:
                raise BenchError("%s: %s self time %.6f s < 0" % (
                    where, key, seconds))
        total = sum(self_s.values()) + gc + reorder + unattributed
        if abs(total - line["wall_s"]) > 1e-9 * max(1.0, line["wall_s"]):
            raise BenchError("%s: split sums to %.9f s, wall %.9f s" % (
                where, total, line["wall_s"]))


# ---------------------------------------------------------------------------
# metrics


def by_rep(lines):
    reps = {}
    for line in lines:
        reps.setdefault(line["rep"], []).append(line)
    return [reps[r] for r in sorted(reps)]


def host_scaled(line, key):
    """A cell time in seconds on the reference host: the calibration kernel
    run around the cell took calib_s here and REFERENCE_CALIB_S there."""
    return line[key] * REFERENCE_CALIB_S / line["calib_s"]


def end_to_end(engine, process, attempted, failed):
    """Each cell counts with the mean of its host-scaled repetitions, and
    set-up with the median repetition's host-scaled sum."""
    per_cell = {}
    for line in engine:
        per_cell.setdefault(line["cell"], []).append(
            host_scaled(line, "verify_s"))
    verify = {cell: statistics.fmean(v) for cell, v in per_cell.items()}
    reps = by_rep(engine)
    return {
        "verify_s": (sum(verify.values()), "s"),
        "cell_geomean_s": (geomean(list(verify.values())), "s"),
        "setup_s": (statistics.median(
            sum(host_scaled(l, "setup_s") for l in rep) for rep in reps), "s"),
        "peak_rss_mb": (process["peak_rss_kb"] / 1024.0, "MB"),
        "cells_passed": (passed_pct(attempted, failed), "%"),
    }


def layer_split(traced_rep, engine_rep):
    """Per-layer metrics of one repetition's traced pass."""
    self_s = {key: 0.0 for key in SPAN_KEYS}
    calls = {key: 0 for key in SPAN_KEYS}
    gc = reorder = wall = spanned = 0.0
    counts = {}
    peak_alloc = 0
    for line in traced_rep:
        cell_self, cell_gc, cell_reorder = exclusive(line["spans"])
        for key, seconds in cell_self.items():
            self_s[key] += seconds
            calls[key] += int(line["spans"][key][4])
            spanned += line["spans"][key][0]
        gc += cell_gc
        reorder += cell_reorder
        wall += line["wall_s"]
        for name, value in line["counts"].items():
            counts[name] = counts.get(name, 0) + value
        peak_alloc = max(peak_alloc, line["counts"]["peak_alloc_nodes"])
    c = counts
    return {
        "bdd.gc_s": (gc, "s"),
        "bdd.gc_runs": (c["gc_runs"], "count"),
        "bdd.gc_reclaimed_per_run": (ratio(c["gc_reclaimed"], c["gc_runs"]), "nodes"),
        "bdd.apply_s": (self_s["bdd.apply"], "s"),
        "bdd.reorder_s": (reorder, "s"),
        "bdd.reorder_swaps": (c["reorder_swaps"], "count"),
        "bdd.cache_hit_rate": (ratio(c["cache_hits"], c["cache_lookups"]), "ratio"),
        "bdd.unique_chain_per_lookup": (
            ratio(c["unique_chain_steps"], c["unique_lookups"]), "ratio"),
        "bdd.nodes_created": (c["nodes_created"], "count"),
        "bdd.peak_alloc_nodes": (peak_alloc, "count"),
        "sym.back_image_s": (self_s["sym.back_image"], "s"),
        "sym.back_image_calls": (calls["sym.back_image"], "count"),
        "sym.image_s": (self_s["sym.image"], "s"),
        "sym.image_calls": (calls["sym.image"], "count"),
        "sym.cluster_build_s": (self_s["sym.cluster_build"], "s"),
        "ici.simplify_s": (self_s["ici.simplify"], "s"),
        "ici.simplify_kept_ratio": (
            ratio(c["restrict_kept"], c["restrict_tried"]), "ratio"),
        "ici.pair_eval_s": (self_s["ici.pair_eval"], "s"),
        "ici.pair_built": (c["pair_built"], "count"),
        "ici.pair_reused": (c["pair_reused"], "count"),
        "ici.pair_aborted": (c["pair_aborted"], "count"),
        "ici.merges": (c["merges"], "count"),
        "ici.term_s": (self_s["ici.term"], "s"),
        "ici.term_taut_calls": (c["term_taut_calls"], "count"),
        "ici.term_shannon": (c["term_shannon"], "count"),
        "verif.ckpt_save_s": (self_s["verif.ckpt_save"], "s"),
        "verif.ckpt_bytes": (c["ckpt_bytes"], "bytes"),
        "verif.ckpt_load_s": (self_s["verif.ckpt_load"], "s"),
        "verif.fd_s": (self_s["verif.fd"], "s"),
        "trace.unattributed_s": (wall - spanned, "s"),
        "trace.overhead": (ratio(wall, sum(l["verify_s"] for l in engine_rep)), "ratio"),
    }


def per_layer(traced, engine):
    splits = [layer_split(t, e) for t, e in zip(by_rep(traced), by_rep(engine))]
    return {name: (statistics.median(s[name][0] for s in splits), unit)
            for name, (_, unit) in splits[0].items()}


def cell_split(line):
    """One traced cell's split, largest share first (printed for reading)."""
    self_s, gc, reorder = exclusive(line["spans"])
    parts = dict(self_s, **{"bdd.gc": gc, "bdd.reorder": reorder})
    parts["unattributed"] = line["wall_s"] - sum(
        s[0] for s in line["spans"].values())
    return {"cell": line["cell"], "wall_s": round(line["wall_s"], 4),
            "split_s": {k: round(v, 4) for k, v in
                        sorted(parts.items(), key=lambda kv: -kv[1]) if v > 0}}


# ---------------------------------------------------------------------------
# build, run, report


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to paperbench/: run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "paperbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("driver exited with %d" % proc.returncode)
    return [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]


def fingerprint(process):
    """Host and build identity recorded next to every result."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": process["compiler"],
            "build_type": process["build_type"],
            "git_commit": git.stdout.strip() if git.returncode == 0 else None,
            "src_sha256": source_digest()}


def source_digest():
    """Digest of src/, which identifies the code when there is no git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["monolithic", "xici", "ckpt-reorder"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[args.workload]
    build()
    lines = run_driver(args)
    process = next(l["process"] for l in lines if "process" in l)
    engine = [l for l in lines if l.get("pass") == "engine"]
    traced = [l for l in lines if l.get("pass") == "traced"]

    failures = check_cells(engine, expected)
    for why in failures:
        print("cell failed: " + why, file=sys.stderr)
    attempted, failed = len(engine), len(failures)

    if args.trace:
        check_traced(traced, engine)
        for line in traced:
            if line["rep"] == 0:
                print(json.dumps({"cell_split": cell_split(line)}))
        metrics = per_layer(traced, engine)
    else:
        metrics = end_to_end(engine, process, attempted, failed)
    print(json.dumps({"fingerprint": fingerprint(process),
                      "reps": process["reps"],
                      "calib_s_median": statistics.median(
                          l["calib_s"] for l in engine)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError, StopIteration) as err:
        print("paperbench: %s" % err, file=sys.stderr)
        sys.exit(2)
