#!/usr/bin/env python3
"""Reorder gate: sifting keeps every verdict, shrinks some iterate, and moves
exactly the nodes the committed BENCH_reorder.json records.

    ./build-werror/bench/table_reorder --json --jobs 1 > reorder.jsonl
    python3 ci/reorder_gate.py reorder.jsonl BENCH_reorder.json

Reads two icbdd-bench-v1 JSONL files: a fresh run and the committed one.
  * Within the fresh run, auto-reorder off and on must agree on verdict and
    iterations for every (depth, method), and some cell must shrink its peak
    iterate by at least 20%.
  * Every fresh cell must match the committed cell of the same group and
    method on the fields below.  A change to the sift's node traffic (swap
    order, rewrite order, collection points) therefore fails here and has
    to re-commit BENCH_reorder.json, where review sees the new numbers.
Exits 1 on a violation.
"""

import json
import sys

PINNED_FIELDS = ("verdict", "iterations", "peak_iterate_nodes",
                 "peak_allocated_nodes")
# Counters are omitted from a cell's metrics while zero, so an absent
# counter compares equal only to an absent one.
PINNED_COUNTERS = ("bdd.reorder.swaps", "bdd.reorder.saved_nodes",
                   "bdd.nodes_created", "bdd.gc.runs",
                   "bdd.cache.lookups", "bdd.cache.hits")


def load(path):
    lines = [json.loads(l) for l in open(path) if l.strip()]
    header, cells = lines[0], lines[1:]
    assert header["schema"] == "icbdd-bench-v1", (path, header)
    assert header["cells"] == len(cells), (path, header["cells"], len(cells))
    return {(c["group"], c["method"]): c for c in cells}


def pinned(cell):
    counters = cell["metrics"].get("counters", {})
    values = {f: cell[f] for f in PINNED_FIELDS}
    values.update({k: counters.get(k) for k in PINNED_COUNTERS})
    return values


def main(fresh_path, committed_path):
    fresh = load(fresh_path)
    committed = load(committed_path)
    failures = []

    by = {}
    for (group, method), c in fresh.items():
        depth = group.split("depth ")[1].split(",")[0]
        mode = "on" if " on" in group else "off"
        by[(depth, method, mode)] = c
    shrunk = False
    for depth, method in {(d, m) for (d, m, _) in by}:
        off, on = by[(depth, method, "off")], by[(depth, method, "on")]
        for field in ("verdict", "iterations"):
            if off[field] != on[field]:
                failures.append("depth %s %s: %s off %s != on %s" % (
                    depth, method, field, off[field], on[field]))
        if on["peak_iterate_nodes"] <= 0.8 * off["peak_iterate_nodes"]:
            shrunk = True
    if not shrunk:
        failures.append("no config showed a >=20% peak reduction")

    if set(fresh) != set(committed):
        failures.append("cells differ from %s: %s" % (
            committed_path, sorted(set(fresh) ^ set(committed))))
    for key in sorted(set(fresh) & set(committed)):
        got, want = pinned(fresh[key]), pinned(committed[key])
        for name in got:
            if got[name] != want[name]:
                failures.append("%s %s: %s %s, committed %s" % (
                    key[0], key[1], name, got[name], want[name]))

    for f in failures:
        print("reorder gate: " + f)
    if failures:
        return 1
    print("ok: %d reorder cells, verdicts agree, >=20%% shrink seen, node "
          "traffic matches %s" % (len(fresh), committed_path))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
