#!/usr/bin/env python3
"""Lint: metric names must be lowercase, ``/``-separated and bounded.

Two modes:

* **Source mode** (default) — AST-scan every ``.counter(...)`` /
  ``.gauge(...)`` / ``.histogram(...)`` call under ``src/repro/`` and
  check the name argument:

  - a literal name must match ``segment(/segment)*`` where a segment is
    ``[a-z][a-z0-9_]*`` — lowercase, no dashes, no spaces, no leading
    digits;
  - an f-string name may start with ONE leading placeholder (the
    per-instance prefix pattern, e.g. ``f"{prefix}/health"``); its
    constant fragments obey the same charset.  Any other placeholder
    interpolates data into the name — a per-stream/per-layer cardinality
    risk — and must carry an explicit ``# metric-name: dynamic`` pragma
    on the same line, which documents the site as a reviewed, bounded
    namespace (the README documents ``serve/stream/<id>/``);
  - an f-string starting with the literal ``slo/`` prefix (the
    ``slo/<objective>/<counter>`` grammar) may interpolate mid-name
    without a pragma: the objective names are fixed by
    ``repro.obs.SLOConfig``, so the namespace is bounded by
    construction.

* **Exposition mode** (``--exposition FILE``) — parse Prometheus text
  exposition produced by ``repro.obs.render_exposition``: every sample
  must belong to a ``# TYPE``-declared family, family names must be
  ``[a-z][a-z0-9_]*``, histogram buckets must be cumulative and end at
  ``+Inf`` with the ``_count`` value, and no family name may embed a
  stream id (``..._s007_...``) — per-stream series belong in the
  ``stream`` label, not the metric name.

Run directly or via ``make lint`` / ``make check``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
#: Packages the lint must cover (same guard as check_no_print: a rename
#: must not silently un-lint a package).
EXPECTED_PACKAGES = ("alerts", "core", "datasets", "eval", "experiments",
                     "faults", "fleet", "obs", "parallel", "quant",
                     "serve", "signal")

_METHODS = {"counter", "gauge", "histogram"}
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(/[a-z][a-z0-9_]*)*$")
_FRAGMENT_RE = re.compile(r"^[a-z0-9_/]*$")
_PRAGMA = "# metric-name: dynamic"
#: ``slo/<objective>/<counter>`` interpolates the objective name
#: mid-string; the objectives are enumerated by ``SLOConfig.objectives``
#: so the namespace is bounded without a per-site pragma.
_SLO_PREFIX = "slo/"

_FAMILY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_TYPE_LINE_RE = re.compile(r"^# TYPE (?P<family>\S+) (?P<kind>\S+)$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)
#: A stream-id-shaped chunk inside a metric *name* means per-stream
#: cardinality leaked out of the ``stream`` label.
_ID_IN_NAME_RE = re.compile(r"(^|_)s?\d+(_|$)")


def _check_literal(name: str) -> str | None:
    if not _NAME_RE.match(name):
        return (f"bad metric name {name!r}: want lowercase "
                f"'/'-separated segments matching [a-z][a-z0-9_]*")
    return None


def _check_fstring(node: ast.JoinedStr, line: str) -> str | None:
    has_pragma = _PRAGMA in line
    first = node.values[0] if node.values else None
    if (isinstance(first, ast.Constant)
            and str(first.value).startswith(_SLO_PREFIX)):
        has_pragma = True  # bounded grammar, see _SLO_PREFIX
    for position, part in enumerate(node.values):
        if isinstance(part, ast.Constant):
            if not _FRAGMENT_RE.match(str(part.value)):
                return (f"bad metric name fragment {part.value!r}: "
                        f"want charset [a-z0-9_/]")
        elif position > 0 and not has_pragma:
            return ("dynamic metric name: interpolating data after the "
                    "first segment risks unbounded metric cardinality; "
                    f"add '{_PRAGMA}' if the namespace is documented "
                    "and bounded")
    return None


def find_source_violations() -> list[tuple[pathlib.Path, int, str]]:
    missing = [p for p in EXPECTED_PACKAGES
               if not (SRC / p / "__init__.py").is_file()]
    if missing:
        raise SystemExit(
            f"check_metric_names: expected package(s) missing from "
            f"src/repro: {missing}"
        )
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METHODS
                    and node.args):
                continue
            name_arg = node.args[0]
            line = lines[node.lineno - 1]
            if isinstance(name_arg, ast.Constant):
                problem = (_check_literal(name_arg.value)
                           if isinstance(name_arg.value, str) else None)
            elif isinstance(name_arg, ast.JoinedStr):
                problem = _check_fstring(name_arg, line)
            else:
                # A bare variable: the name was built elsewhere; require
                # the pragma so the site is visibly reviewed.
                problem = (None if _PRAGMA in line else
                           "metric name from a variable; add "
                           f"'{_PRAGMA}' if reviewed")
            if problem:
                violations.append((path, name_arg.lineno, problem))
    return violations


def check_exposition(text: str) -> list[str]:
    """Validate Prometheus text exposition; returns problem strings."""
    problems = []
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[str, float]]] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        type_match = _TYPE_LINE_RE.match(line)
        if type_match:
            family = type_match.group("family")
            if not _FAMILY_RE.match(family):
                problems.append(f"line {lineno}: bad family name {family!r}")
            if _ID_IN_NAME_RE.search(family):
                problems.append(
                    f"line {lineno}: family {family!r} embeds a stream id "
                    f"— use a 'stream' label, not the metric name"
                )
            if family in types:
                problems.append(
                    f"line {lineno}: duplicate # TYPE for {family!r}")
            types[family] = type_match.group("kind")
            continue
        if line.startswith("#"):
            continue
        sample = _SAMPLE_RE.match(line)
        if not sample:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = sample.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base is not None and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            problems.append(
                f"line {lineno}: sample {name!r} has no # TYPE declaration")
            continue
        try:
            value = float(sample.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: bad value in {line!r}")
            continue
        labels = sample.group("labels") or ""
        if name.endswith("_bucket") and types[family] == "histogram":
            le_match = re.search(r'le="([^"]*)"', labels)
            if not le_match:
                problems.append(f"line {lineno}: bucket without le label")
                continue
            series = re.sub(r'le="[^"]*",?', "", labels)
            buckets.setdefault(f"{family}{{{series}}}", []).append(
                (le_match.group(1), value))
        elif name.endswith("_count") and types[family] == "histogram":
            counts[f"{family}{{{labels}}}"] = value
    for series, entries in buckets.items():
        values = [v for _, v in entries]
        if values != sorted(values):
            problems.append(f"{series}: bucket counts not cumulative")
        if entries[-1][0] != "+Inf":
            problems.append(f"{series}: last bucket is not le=\"+Inf\"")
        elif series in counts and entries[-1][1] != counts[series]:
            problems.append(
                f"{series}: +Inf bucket {entries[-1][1]} != _count "
                f"{counts[series]}"
            )
    return problems


def main(argv) -> int:
    if len(argv) >= 2 and argv[1] == "--exposition":
        if len(argv) != 3:
            print("usage: check_metric_names.py --exposition FILE")
            return 2
        text = pathlib.Path(argv[2]).read_text(encoding="utf-8")
        problems = check_exposition(text)
        if problems:
            print(f"check_metric_names: {len(problems)} problem(s) in "
                  f"{argv[2]}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"check_metric_names: OK ({argv[2]} parses clean)")
        return 0
    violations = find_source_violations()
    if violations:
        print(f"check_metric_names: {len(violations)} violation(s):")
        for path, lineno, problem in violations:
            rel = path.relative_to(REPO_ROOT)
            print(f"  {rel}:{lineno}: {problem}")
        return 1
    print("check_metric_names: OK (no violations under src/repro)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
