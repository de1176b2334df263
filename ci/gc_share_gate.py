#!/usr/bin/env python3
"""GC-share gate: no bench cell may spend more than a quarter of its wall time
in garbage collection.

    ./build-werror/bench/table1_fifo --json --jobs 1 > table1.jsonl
    python3 ci/gc_share_gate.py table1.jsonl

Reads icbdd-bench-v1 JSONL and, for every cell whose time_s is at least
MIN_CELL_S, checks sum(bdd.gc.pause_us) / 1e6 <= MAX_GC_SHARE * time_s.
Shorter cells are reported but not gated: their pauses are a handful of
microsecond-scale timer readings.  A collector that thrashes (a full
mark-sweep on every handle-level operation) fails this on FIFO-10, where it
once took 74% of the Bkwd cell.  Exits 1 on a violation.
"""

import json
import sys

MAX_GC_SHARE = 0.25
MIN_CELL_S = 0.05


def main(path):
    lines = [json.loads(l) for l in open(path) if l.strip()]
    failures = []
    for cell in lines[1:]:
        pause = cell["metrics"].get("histograms", {}).get("bdd.gc.pause_us", {})
        gc_s = pause.get("sum", 0) / 1e6
        share = gc_s / cell["time_s"] if cell["time_s"] > 0 else 0.0
        gated = cell["time_s"] >= MIN_CELL_S
        print("%-40s %-5s time_s %8.4f gc_s %8.4f share %5.1f%%%s" % (
            cell["group"][-40:], cell["method"], cell["time_s"], gc_s,
            100 * share, "" if gated else " (not gated)"))
        if gated and gc_s > MAX_GC_SHARE * cell["time_s"]:
            failures.append("%s %s: GC %.1f%% of %.3f s" % (
                cell["group"], cell["method"], 100 * share, cell["time_s"]))
    for f in failures:
        print("GC share above %d%%: %s" % (100 * MAX_GC_SHARE, f))
    if failures:
        return 1
    print("ok: no cell spends more than %d%% of its time in GC" %
          (100 * MAX_GC_SHARE))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
