#!/usr/bin/env python3
"""ICBDD-specific lint gate (pure stdlib -- runs anywhere python3 does).

Enforces the project invariants no off-the-shelf checker knows about
(docs/static_analysis.md is the rationale; src/util/lint.hpp declares the
marker macros):

  L1  engine-io        no raw I/O or sleeping inside an engine iteration --
                       such work must route through the deadline-credit
                       helpers (obs::TraceSession, ICBDD_CHECK audits) so it
                       cannot flip a resource-capped verdict into a timeout.
  L2  safe-point       autoReorderIfNeeded() and CheckpointEmitter::emit()
                       only under an ICBDD_SAFE_POINT(...) marker (within
                       the preceding 12 lines): both mutate or serialize
                       manager state that is only coherent at iteration
                       boundaries.  The engine run protocol's endStep() and
                       emitCheckpoint() (src/verif/engine_run.hpp) reach
                       them, so engine calls to those need the marker too.
  L3  raw-node-escape  no interior node representation in a public surface:
                       no Node pointer/reference and no packed-word
                       (word0/word1) accessor in a public section of a src
                       header, and no BddManager::Node / PackedNode use
                       outside src/bdd + src/check: nodes move under GC and
                       reordering and their packing is NodeStore-private;
                       only Edge/Bdd handles are stable.
  L4  metric-catalog   every metric-name string literal in src/ matches the
                       dotted-name catalog in docs/observability.md (the
                       icbdd-metric-catalog block, one 'name kind help...'
                       line per metric -- the same block that generates
                       src/obs/metric_catalog.inc, see
                       ci/gen_metric_catalog.py).  A literal ending in '.'
                       is a prefix used for dynamic composition and passes
                       when some catalog name starts with it.  The kind is
                       checked too: names passed to recordHistogram /
                       mergeHistogram must be catalogued as histograms, and
                       names passed to the scalar writers (add, setGauge,
                       setGaugeMax) must not be.
  L5  relaxed-order    every std::memory_order_relaxed carries a "relaxed:"
                       justification comment on the same line or within the
                       3 preceding lines.

Escape hatch: ICBDD_LINT_SUPPRESS(<rule>, "<reason>") suppresses that
rule's findings on its own line and the next one.  Suppressions are counted
and reported in the summary so they stay visible.

Usage:
  icbdd_lint.py [--root DIR]              lint the source tree (default:
                                          the repo containing this script)
  icbdd_lint.py --fixture FILE [FILE...]  lint specific files with every
                                          rule active regardless of path
                                          (the fixture corpus driver)
  icbdd_lint.py --list-rules              print rule ids and one-liners

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULES = {
    "L1": "engine-io: raw I/O / sleeps inside an engine iteration",
    "L2": "safe-point: reorder/checkpoint call without ICBDD_SAFE_POINT",
    "L3": "raw-node-escape: interior node type or packed word escapes the "
          "manager",
    "L4": "metric-catalog: metric name not in docs/observability.md",
    "L5": "relaxed-order: memory_order_relaxed without 'relaxed:' comment",
}

# L2: a marker this many lines (or fewer) above the call registers it.
SAFE_POINT_WINDOW = 12
# L5: justification comment may sit this many lines above the load/store.
RELAXED_WINDOW = 3

# L1 applies to the engine iteration loops and the ICI kernels they drive.
ENGINE_FILES = {
    "src/verif/forward.cpp",
    "src/verif/backward.cpp",
    "src/verif/fd_forward.cpp",
    "src/verif/ici_backward.cpp",
    "src/verif/xici_backward.cpp",
    "src/verif/engine_run.cpp",
}
ENGINE_DIR_PREFIXES = ("src/ici/",)

BANNED_IO = [
    (re.compile(r"\bstd\s*::\s*(cout|cerr|clog)\b"), "stream I/O"),
    (re.compile(r"\b(printf|fprintf|puts|fwrite|fputs)\s*\("), "stdio I/O"),
    (re.compile(r"\bstd\s*::\s*(ofstream|fstream)\b"), "file stream"),
    (re.compile(r"\bfopen\s*\("), "file open"),
    (re.compile(r"\bsystem\s*\("), "subprocess"),
    (re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\("),
     "sleeping"),
]

REORDER_CALL = re.compile(r"\bautoReorderIfNeeded\s*\(")
SAFE_POINT = re.compile(r"\bICBDD_SAFE_POINT\s*\(")
CKPT_DECL = re.compile(r"\bCheckpointEmitter\s+(\w+)\s*[({]")
# EngineRun methods that reorder (endStep) or checkpoint (emitCheckpoint).
DRIVER_CALL = re.compile(r"(?:\.|->)\s*(endStep|emitCheckpoint)\s*\(")
SUPPRESS = re.compile(r"\bICBDD_LINT_SUPPRESS\s*\(\s*(L[1-5])\s*,")

PUBLIC_NODE = re.compile(r"\bNode\s*[*&]")
PACKED_WORD = re.compile(r"\bword[01]\b")
ACCESS_SPEC = re.compile(r"^\s*(public|private|protected)\s*:")
CLASS_DECL = re.compile(r"^\s*(class|struct)\s+(?:\w+\s+)*(\w+)[^;]*$")
FOREIGN_NODE = re.compile(r"\bBddManager\s*::\s*Node\b")
FOREIGN_PACKED = re.compile(r"\bPackedNode\b")

METRIC_NAME = re.compile(r"^(bdd|ici|svc)\.[a-z0-9_.]+$")
METRIC_PREFIX = re.compile(r"^(bdd|ici|svc)\.([a-z0-9_.]*\.)?$")
RELAXED = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_TAG = re.compile(r"relaxed:")

CATALOG_BLOCK = re.compile(r"<!--\s*icbdd-metric-catalog\s*(.*?)-->", re.S)
CATALOG_KINDS = ("counter", "gauge", "histogram")
HISTO_WRITE = re.compile(r"\b(recordHistogram|mergeHistogram)\s*\(")
SCALAR_WRITE = re.compile(r"\b(add|setGauge|setGaugeMax)\s*\(")


@dataclass
class Line:
    """One source line split into code, string-literal contents, comments."""

    code: str
    strings: list[str]
    comment: str


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0

    def add(self, path: str, line: int, rule: str, message: str) -> None:
        self.findings.append(Finding(path, line, rule, message))


def lex(text: str) -> list[Line]:
    """Split each line into code / string contents / comment text.

    A hand-rolled scanner (not regex) so nested quotes, escapes, and
    multi-line block comments are handled; raw strings are treated as
    ordinary strings, which is fine for this codebase (no raw strings with
    embedded quotes in linted paths).
    """
    lines: list[Line] = []
    in_block = False
    for raw in text.splitlines():
        code: list[str] = []
        strings: list[str] = []
        comment: list[str] = []
        i, n = 0, len(raw)
        while i < n:
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    comment.append(ch)
                    i += 1
                continue
            if ch == "/" and nxt == "/":
                comment.append(raw[i + 2:])
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch == '"' or ch == "'":
                quote = ch
                i += 1
                lit: list[str] = []
                while i < n:
                    if raw[i] == "\\":
                        lit.append(raw[i:i + 2])
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    lit.append(raw[i])
                    i += 1
                if quote == '"':
                    strings.append("".join(lit))
                code.append(quote + quote)  # keep positions roughly aligned
                continue
            code.append(ch)
            i += 1
        lines.append(Line("".join(code), strings, "".join(comment)))
    return lines


def load_catalog(root: Path) -> list[tuple[str, str]] | None:
    """Parses the catalog block into (name, kind) pairs.

    Each block line is 'name kind help...'; the help text is the Prometheus
    HELP string and irrelevant to linting.  Lines without a recognized kind
    token are rejected so a malformed block fails loudly instead of
    silently shrinking the catalog.
    """
    doc = root / "docs" / "observability.md"
    if not doc.is_file():
        return None
    match = CATALOG_BLOCK.search(doc.read_text(encoding="utf-8"))
    if match is None:
        return None
    entries: list[tuple[str, str]] = []
    for ln in match.group(1).splitlines():
        parts = ln.split(None, 2)
        if not parts:
            continue
        if len(parts) < 2 or parts[1] not in CATALOG_KINDS:
            print(f"icbdd_lint: malformed catalog line (want "
                  f"'name kind help...'): {ln.strip()!r}", file=sys.stderr)
            return None
        entries.append((parts[0], parts[1]))
    return entries or None


def catalog_kind(name: str, catalog: list[tuple[str, str]]) -> str | None:
    """The catalogued kind of `name`, or None when it is not catalogued."""
    for entry, kind in catalog:
        if "<" in entry:
            pattern = re.escape(entry).replace(r"\<op\>", r"[a-z0-9_]+")
            if re.fullmatch(pattern, name):
                return kind
        elif entry == name:
            return kind
    return None


def prefix_kinds(prefix: str, catalog: list[tuple[str, str]]) -> set[str]:
    """Kinds of every catalogued name starting with `prefix`."""
    return {kind for entry, kind in catalog if entry.startswith(prefix)}


class FileLinter:
    """Lints one file; which rules fire where is decided by the caller."""

    def __init__(self, path: Path, rel: str, rules: set[str],
                 catalog: list[str] | None, report: Report) -> None:
        self.path = path
        self.rel = rel
        self.rules = rules
        self.catalog = catalog
        self.report = report
        self.lines = lex(path.read_text(encoding="utf-8", errors="replace"))
        # Suppressions: rule id -> set of line numbers it covers (1-based).
        self.suppressions: dict[str, set[int]] = {}
        for num, line in enumerate(self.lines, 1):
            for match in SUPPRESS.finditer(line.code):
                self.suppressions.setdefault(match.group(1), set()).update(
                    {num, num + 1})

    def emit(self, num: int, rule: str, message: str) -> None:
        if num in self.suppressions.get(rule, ()):  # counted, not reported
            self.report.suppressed += 1
            return
        self.report.add(self.rel, num, rule, message)

    def run(self) -> None:
        if "L1" in self.rules:
            self.check_engine_io()
        if "L2" in self.rules:
            self.check_safe_points()
        if "L3" in self.rules:
            self.check_node_escape()
        if "L4" in self.rules and self.catalog is not None:
            self.check_metric_names()
        if "L5" in self.rules:
            self.check_relaxed()

    def check_engine_io(self) -> None:
        for num, line in enumerate(self.lines, 1):
            for pattern, what in BANNED_IO:
                if pattern.search(line.code):
                    self.emit(num, "L1",
                              f"{what} inside an engine iteration -- route "
                              "through the deadline-credit helpers "
                              "(obs::TraceSession / auditArenaCreditingTime)")

    def check_safe_points(self) -> None:
        ckpt_vars: set[str] = set()
        for line in self.lines:
            match = CKPT_DECL.search(line.code)
            if match:
                ckpt_vars.add(match.group(1))
        ckpt_call = (re.compile(
            r"\b(" + "|".join(re.escape(v) for v in sorted(ckpt_vars)) +
            r")\s*\.\s*emit\s*\(") if ckpt_vars else None)
        marker_lines = [num for num, line in enumerate(self.lines, 1)
                        if SAFE_POINT.search(line.code)]

        def registered(num: int) -> bool:
            return any(num - SAFE_POINT_WINDOW <= m <= num
                       for m in marker_lines)

        for num, line in enumerate(self.lines, 1):
            if REORDER_CALL.search(line.code) and not registered(num):
                self.emit(num, "L2",
                          "autoReorderIfNeeded() without an ICBDD_SAFE_POINT "
                          f"marker in the preceding {SAFE_POINT_WINDOW} lines")
            if ckpt_call and ckpt_call.search(line.code) \
                    and not registered(num):
                self.emit(num, "L2",
                          "checkpoint emit without an ICBDD_SAFE_POINT "
                          f"marker in the preceding {SAFE_POINT_WINDOW} lines")
            driver = DRIVER_CALL.search(line.code)
            if driver and not registered(num):
                self.emit(num, "L2",
                          f"{driver.group(1)}() reorders or checkpoints; no "
                          "ICBDD_SAFE_POINT marker in the preceding "
                          f"{SAFE_POINT_WINDOW} lines")

    def check_node_escape(self) -> None:
        # Part 1 (headers): Node* / Node& in a public class section.
        if self.rel.endswith((".hpp", ".h")):
            access = "public"  # file scope: treat as public until told else
            depth_at_class: list[tuple[int, str]] = []
            depth = 0
            for num, line in enumerate(self.lines, 1):
                spec = ACCESS_SPEC.match(line.code)
                if spec:
                    access = spec.group(1)
                if CLASS_DECL.match(line.code) and "{" in line.code:
                    depth_at_class.append((depth, access))
                    access = ("public" if line.code.lstrip()
                              .startswith("struct") else "private")
                depth += line.code.count("{") - line.code.count("}")
                while depth_at_class and depth <= depth_at_class[-1][0]:
                    access = depth_at_class.pop()[1]
                if access == "public" and depth_at_class:
                    if PUBLIC_NODE.search(line.code):
                        self.emit(num, "L3",
                                  "interior Node pointer/reference in a "
                                  "public section -- expose Edge/Bdd handles "
                                  "instead (nodes move under GC and "
                                  "reordering)")
                    if PACKED_WORD.search(line.code):
                        self.emit(num, "L3",
                                  "packed node word (word0/word1) in a "
                                  "public section -- the packing is "
                                  "NodeStore-private; expose "
                                  "(var, hi, lo, next) field accessors "
                                  "instead")
        # Part 2 (everywhere outside the manager + its audit hooks):
        # naming the interior node type at all.
        if not self.rel.startswith(("src/bdd/", "src/check/")):
            for num, line in enumerate(self.lines, 1):
                if FOREIGN_NODE.search(line.code):
                    self.emit(num, "L3",
                              "BddManager::Node used outside src/bdd + "
                              "src/check -- interior nodes are not a stable "
                              "API; use Edge/Bdd handles")
                if FOREIGN_PACKED.search(line.code):
                    self.emit(num, "L3",
                              "PackedNode used outside src/bdd + src/check "
                              "-- the node representation is not a stable "
                              "API; use Edge/Bdd handles")

    def check_metric_names(self) -> None:
        assert self.catalog is not None
        for num, line in enumerate(self.lines, 1):
            # The writer call on the line decides which kind is legal:
            # histogram writers take only histogram names, scalar writers
            # never do.  Reader calls and bare literals skip the kind check.
            want_histogram = bool(HISTO_WRITE.search(line.code))
            scalar_write = bool(SCALAR_WRITE.search(line.code))
            for lit in line.strings:
                if lit.endswith("."):  # dynamic composition prefix
                    if not METRIC_PREFIX.match(lit):
                        continue
                    kinds = prefix_kinds(lit, self.catalog)
                    if not kinds:
                        self.emit(num, "L4",
                                  f'metric prefix "{lit}" matches no '
                                  "catalog entry in docs/observability.md")
                    elif want_histogram and "histogram" not in kinds:
                        self.emit(num, "L4",
                                  f'metric prefix "{lit}" covers no '
                                  "histogram-kind catalog entry but is "
                                  "passed to a histogram writer")
                elif METRIC_NAME.match(lit):
                    kind = catalog_kind(lit, self.catalog)
                    if kind is None:
                        self.emit(num, "L4",
                                  f'metric name "{lit}" is not in the '
                                  "icbdd-metric-catalog block of "
                                  "docs/observability.md")
                    elif want_histogram and kind != "histogram":
                        self.emit(num, "L4",
                                  f'metric name "{lit}" is catalogued as a '
                                  f"{kind} but passed to recordHistogram/"
                                  "mergeHistogram (histograms only)")
                    elif scalar_write and not want_histogram \
                            and kind == "histogram":
                        self.emit(num, "L4",
                                  f'metric name "{lit}" is catalogued as a '
                                  "histogram but passed to a counter/gauge "
                                  "writer (use recordHistogram)")

    def check_relaxed(self) -> None:
        for num, line in enumerate(self.lines, 1):
            if not RELAXED.search(line.code):
                continue
            if not self.relaxed_justified(num):
                self.emit(num, "L5",
                          "std::memory_order_relaxed without an adjacent "
                          "'relaxed:' justification comment (same statement "
                          "or the comment block directly above it)")

    def relaxed_justified(self, num: int) -> bool:
        """Tag on the statement's own lines, or in the comment block
        immediately above the statement (the statement may wrap)."""
        i = num - 1  # 0-based index of the flagged line
        if RELAXED_TAG.search(self.lines[i].comment):
            return True
        j = i  # walk to the statement's first line (bounded)
        budget = RELAXED_WINDOW
        while j > 0 and budget > 0:
            prev = self.lines[j - 1]
            if not prev.code.strip() or prev.comment \
                    or prev.code.rstrip().endswith((";", "{", "}", ":")):
                break
            j -= 1
            budget -= 1
        k = j - 1  # the contiguous comment block above the statement
        while k >= 0 and self.lines[k].comment \
                and not self.lines[k].code.strip():
            if RELAXED_TAG.search(self.lines[k].comment):
                return True
            k -= 1
        return False


def rules_for(rel: str) -> set[str]:
    """Which rules apply to a tree file at repo-relative path `rel`."""
    rules: set[str] = set()
    if not rel.startswith("src/"):
        return rules
    if (rel in ENGINE_FILES or rel.startswith(ENGINE_DIR_PREFIXES)) \
            and rel.endswith(".cpp"):
        rules.add("L1")
    if not rel.startswith("src/bdd/"):
        rules.add("L2")  # the manager itself implements reordering
    rules.update(("L3", "L4", "L5"))
    return rules


def iter_tree(root: Path):
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h"):
                yield path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--fixture", nargs="+", type=Path, metavar="FILE",
                        help="lint these files with every rule active")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, text in RULES.items():
            print(f"{rule}  {text}")
        return 0

    root = args.root.resolve()
    catalog = load_catalog(root)
    report = Report()

    if args.fixture:
        for path in args.fixture:
            if not path.is_file():
                print(f"icbdd_lint: no such file: {path}", file=sys.stderr)
                return 2
            FileLinter(path, str(path), set(RULES), catalog, report).run()
    else:
        if catalog is None:
            print("icbdd_lint: cannot read the icbdd-metric-catalog block "
                  f"from {root}/docs/observability.md", file=sys.stderr)
            return 2
        for path in iter_tree(root):
            rel = path.relative_to(root).as_posix()
            rules = rules_for(rel)
            if rules:
                FileLinter(path, rel, rules, catalog, report).run()

    for finding in report.findings:
        print(finding.render())
    print(f"icbdd_lint: {len(report.findings)} finding"
          f"{'' if len(report.findings) == 1 else 's'}, "
          f"{report.suppressed} suppression"
          f"{'' if report.suppressed == 1 else 's'}")
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
