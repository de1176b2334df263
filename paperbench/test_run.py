#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and checks (run.py).

    python3 paperbench/test_run.py

Needs no build: every input is fabricated driver output.
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def engine_line(cell, rep=0, verify_s=1.0, calib_s=run.REFERENCE_CALIB_S,
                **outcome):
    line = {"rep": rep, "cell": cell, "pass": "engine", "setup_s": 0.1,
            "verify_s": verify_s, "calib_s": calib_s, "verdict": "holds",
            "iterations": 3, "peak": 100, "members": [60, 40]}
    line.update(outcome)
    return line


def traced_line(cell, spans, wall_s, rep=0):
    line = engine_line(cell, rep)
    line.update(wall_s=wall_s, spans=spans,
                counts={name: 0 for name in (
                    "gc_runs", "gc_reclaimed", "reorder_swaps",
                    "cache_lookups", "cache_hits", "unique_lookups",
                    "unique_chain_steps", "nodes_created", "peak_alloc_nodes",
                    "restrict_tried", "restrict_kept", "pair_built",
                    "pair_reused", "pair_aborted", "merges",
                    "term_taut_calls", "term_shannon", "ckpt_bytes")})
    line["pass"] = "traced"
    return line


class ExclusiveAttribution(unittest.TestCase):
    def test_gc_is_subtracted_from_its_span(self):
        self_s, gc, reorder = run.exclusive({
            "sym.back_image": [2.0, 0.5, 0.0, 0.0, 4],
            "bdd.apply": [1.0, 0.25, 0.0, 0.0, 10]})
        self.assertAlmostEqual(self_s["sym.back_image"], 1.5)
        self.assertAlmostEqual(self_s["bdd.apply"], 0.75)
        self.assertAlmostEqual(gc, 0.75)
        self.assertEqual(reorder, 0.0)

    def test_gc_inside_a_sift_counts_once(self):
        # A 0.6 s sift that ran 0.2 s of collections, plus 0.1 s of GC
        # outside it: the span's GC total (0.3 s) already holds the sift's.
        self_s, gc, reorder = run.exclusive({
            "bdd.apply": [1.0, 0.3, 0.6, 0.2, 2]})
        self.assertAlmostEqual(gc, 0.3)
        self.assertAlmostEqual(reorder, 0.4)
        self.assertAlmostEqual(self_s["bdd.apply"], 0.3)
        self.assertAlmostEqual(self_s["bdd.apply"] + gc + reorder, 1.0)

    def test_split_sums_to_wall(self):
        line = traced_line("c", {"bdd.apply": [1.0, 0.3, 0.6, 0.2, 2],
                                 "ici.term": [2.0, 0.0, 0.0, 0.0, 1]}, 3.5)
        run.check_traced([line], [engine_line("c")])
        split = run.layer_split([line], [engine_line("c", verify_s=3.0)])
        total = (split["bdd.apply_s"][0] + split["ici.term_s"][0]
                 + split["bdd.gc_s"][0] + split["bdd.reorder_s"][0]
                 + split["trace.unattributed_s"][0])
        self.assertAlmostEqual(total, 3.5)
        self.assertAlmostEqual(split["trace.unattributed_s"][0], 0.5)
        self.assertAlmostEqual(split["trace.overhead"][0], 3.5 / 3.0)

    def test_overlapping_spans_are_rejected(self):
        line = traced_line("c", {"bdd.apply": [2.0, 0.0, 0.0, 0.0, 1]}, 1.0)
        with self.assertRaises(run.BenchError):
            run.check_traced([line], [engine_line("c")])

    def test_double_counted_pause_is_rejected(self):
        # GC larger than the span it was read in: negative self time.
        line = traced_line("c", {"bdd.apply": [1.0, 1.5, 0.0, 0.0, 1]}, 1.0)
        with self.assertRaises(run.BenchError):
            run.check_traced([line], [engine_line("c")])

    def test_traced_pass_must_reproduce_the_engine(self):
        line = traced_line("c", {"bdd.apply": [1.0, 0.0, 0.0, 0.0, 1]}, 1.0)
        line["members"] = [61, 40]
        with self.assertRaises(run.BenchError):
            run.check_traced([line], [engine_line("c")])


class GeometricMean(unittest.TestCase):
    def test_each_cell_weighs_the_same(self):
        self.assertAlmostEqual(run.geomean([0.5, 8.0]), 2.0)
        self.assertAlmostEqual(run.geomean([4.0]), 4.0)

    def test_rejects_zero_and_empty(self):
        with self.assertRaises(ValueError):
            run.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            run.geomean([])

    def test_end_to_end_averages_each_cells_repetitions(self):
        engine = [engine_line("a", 0, 1.5), engine_line("b", 0, 9.0),
                  engine_line("a", 1, 1.0), engine_line("b", 1, 16.0),
                  engine_line("a", 2, 0.5), engine_line("b", 2, 5.0)]
        m = run.end_to_end(engine, {"peak_rss_kb": 2048}, 6, 0)
        self.assertAlmostEqual(m["cell_geomean_s"][0], math.sqrt(1.0 * 10.0))
        self.assertAlmostEqual(m["verify_s"][0], 11.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 2.0)


class HostSpeed(unittest.TestCase):
    def test_a_slower_host_reads_the_same(self):
        # Everything, the calibration kernel included, runs 1.5x slower.
        ref = run.REFERENCE_CALIB_S
        quiet = [engine_line("a", 0, 2.0), engine_line("b", 0, 0.5)]
        busy = [engine_line("a", 0, 3.0, 1.5 * ref),
                engine_line("b", 0, 0.75, 1.5 * ref)]
        for line in busy:
            line["setup_s"] *= 1.5
        m_quiet = run.end_to_end(quiet, {"peak_rss_kb": 1024}, 2, 0)
        m_busy = run.end_to_end(busy, {"peak_rss_kb": 1024}, 2, 0)
        for name in ("verify_s", "cell_geomean_s", "setup_s"):
            self.assertAlmostEqual(m_busy[name][0], m_quiet[name][0])

    def test_a_faster_cell_on_the_same_host_reads_faster(self):
        ref = run.REFERENCE_CALIB_S
        m = run.end_to_end([engine_line("a", 0, 1.0, 2.0 * ref)],
                           {"peak_rss_kb": 1024}, 1, 0)
        self.assertAlmostEqual(m["verify_s"][0], 0.5)


class FailedCells(unittest.TestCase):
    EXPECTED = {"a": {"verdict": "holds", "iterations": 3, "peak": 100,
                      "members": [60, 40]},
                "b": {"verdict": "holds", "iterations": 3},
                "r": {"verdict": "holds", "matches": "a"}}

    def test_all_pass(self):
        engine = [engine_line("a"), engine_line("b", peak=7),
                  engine_line("r")]
        self.assertEqual(run.check_cells(engine, self.EXPECTED), [])
        self.assertEqual(run.passed_pct(3, 0), 100.0)

    def test_fabricated_failing_cell_counts_its_share(self):
        engine = [engine_line("a"), engine_line("b", verdict="node-limit"),
                  engine_line("r"),
                  engine_line("a", rep=1), engine_line("b", rep=1),
                  engine_line("r", rep=1)]
        failures = run.check_cells(engine, self.EXPECTED)
        self.assertEqual(len(failures), 1)
        self.assertIn("rep 0 b: verdict", failures[0])
        self.assertAlmostEqual(run.passed_pct(6, len(failures)), 100.0 * 5 / 6)

    def test_member_sizes_are_pinned(self):
        engine = [engine_line("a", members=[40, 60]), engine_line("b"),
                  engine_line("r", members=[40, 60])]
        failures = run.check_cells(engine, self.EXPECTED)
        self.assertEqual(len(failures), 1)
        self.assertIn("a: members", failures[0])

    def test_resumed_run_must_match_the_uninterrupted_one(self):
        engine = [engine_line("a"), engine_line("b"),
                  engine_line("r", peak=99)]
        failures = run.check_cells(engine, self.EXPECTED)
        self.assertEqual(failures,
                         ["rep 0 r: differs from the uninterrupted run a"])

    def test_unpinned_or_missing_cell_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.check_cells([engine_line("a"), engine_line("b")],
                            self.EXPECTED)


if __name__ == "__main__":
    unittest.main()
