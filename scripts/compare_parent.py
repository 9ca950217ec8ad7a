#!/usr/bin/env python3
"""Check that the physics did not move: compare this working tree's outputs
with those of a git revision.

    python3 scripts/compare_parent.py REV

REV is extracted with ``git archive`` into a temporary directory, so the
repository and its ``.git`` are left untouched.  Each tree then runs, in a
fresh interpreter with one BLAS thread and with its own ``src`` and
``perfbench``:

* every operation of ``perfbench/workloads.reference_ops()`` through the CLI;
* one round of each benchmark workload drawn from seed 3 (the six seeded
  gates and both 600-row sweeps among them), traced with the tree's
  ``perfbench/spans.py``, keeping each ``GateReport`` that ``simulate_gate``
  returns.

The script prints, for each CSV, each manifest (``wall_clock_seconds`` and
``environment`` ignored) and each GateReport with its process blocks,
"identical" or the largest numeric difference, then every traced
``EXACT_COUNTS`` entry whose value differs.  It exits 0 when everything is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
IDENTICAL = "identical"

# a fresh interpreter per tree runs produce() from this file
_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import compare_parent
compare_parent.produce(Path(sys.argv[2]), Path(sys.argv[3]), *map(json.loads, sys.argv[4:]))
"""


def _jsonable(value):
    """JSON form of a GateReport field or process block; floats keep every bit."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def produce(tree: Path, out: Path, reference_keys, workload_names) -> None:
    """Write the outputs of ``tree`` under ``out``: the CLI outputs of the
    reference operations (all of them when ``reference_keys`` is None) and of
    one traced round per workload (all of the tree's when ``workload_names``
    is None), plus ``reports.json`` and ``counts.json``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import holospin
    import spans
    import workloads
    from holospin import cli, scenarios

    ops = [op for op in workloads.reference_ops()
           if reference_keys is None or op.key in reference_keys]
    runner = workloads.Runner(out / "reference", ops)
    for op in ops:
        cli.main(runner.prepare(op))

    reports, counts = {}, {}
    simulate = scenarios.simulate_gate
    for name in workloads.WORKLOADS if workload_names is None else workload_names:
        ops = workloads.workload_ops(name, random.Random(SEED))
        runner = workloads.Runner(out / name, ops)
        current = [None]

        def keep(*args, **kwargs):
            process, report = simulate(*args, **kwargs)
            reports[f"{name}/{current[0]}"] = _jsonable({**asdict(report), "process": process})
            return process, report
        scenarios.simulate_gate = keep  # before the tracer wraps it, as perfbench/run.py does
        tracer = spans.Tracer()
        invoke = tracer.span("cli", cli.main)  # the root span, as in perfbench/run.py
        try:
            with spans.installed(tracer, holospin):
                for op in ops:
                    current[0] = op.key
                    invoke(runner.prepare(op))
        finally:
            scenarios.simulate_gate = simulate
        metrics = spans.layer_metrics(tracer)
        counts[name] = {key: metrics[key] for key in spans.EXACT_COUNTS}
    (out / "reports.json").write_text(json.dumps(reports), encoding="utf-8")
    (out / "counts.json").write_text(json.dumps(counts), encoding="utf-8")


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, through ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _difference(a, b, path=""):
    """(largest numeric difference, paths of differences that are not numeric)
    between two JSON-like values."""
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, []
        gap = abs(a - b)
        return (math.inf if math.isnan(gap) else gap), []
    if isinstance(a, dict) and isinstance(b, dict):
        worst, other = 0.0, [f"{path}.{key}" for key in sorted(set(a) ^ set(b))]
        for key in sorted(set(a) & set(b)):
            gap, more = _difference(a[key], b[key], f"{path}.{key}")
            worst, other = max(worst, gap), other + more
        return worst, other
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        worst, other = 0.0, []
        for i, (x, y) in enumerate(zip(a, b)):
            gap, more = _difference(x, y, f"{path}[{i}]")
            worst, other = max(worst, gap), other + more
        return worst, other
    return 0.0, ([] if a == b else [path or "value"])


def _verdict(worst: float, other: list) -> str:
    parts = [f"largest numeric difference {worst:.3e}"] if worst else []
    if other:
        shown = ", ".join(other[:5]) + (f" and {len(other) - 5} more" if len(other) > 5 else "")
        parts.append(f"differs at {shown}")
    return "; ".join(parts) or "equal values, different text"


def _csv_cells(text: str):
    """Header and columns of a CSV, numbers parsed where they parse."""
    rows = list(csv.reader(io.StringIO(text)))

    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    return rows[0], {name: [cell(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def compare_csv(old: str, new: str) -> str:
    if old == new:
        return IDENTICAL
    (old_header, old_cols), (new_header, new_cols) = _csv_cells(old), _csv_cells(new)
    parts = []
    if set(old_header) - set(new_header):
        parts.append("columns dropped: " + ", ".join(c for c in old_header if c not in new_cols))
    if set(new_header) - set(old_header):
        parts.append("columns added: " + ", ".join(c for c in new_header if c not in old_cols))
    shared = [c for c in old_header if c in new_cols]
    worst, other = _difference({c: old_cols[c] for c in shared},
                               {c: new_cols[c] for c in shared})
    parts.append(_verdict(worst, other) if worst or other else "shared columns identical")
    return "; ".join(parts)


def compare_json(old, new) -> str:
    return IDENTICAL if old == new else _verdict(*_difference(old, new))


def _manifest(text: str) -> dict:
    manifest = json.loads(text)
    manifest.pop("wall_clock_seconds", None)
    # both trees run in this interpreter, so their versions can differ only
    # in whether a tree records them
    manifest.pop("environment", None)
    return manifest


def compare_outputs(old: Path, new: Path, rev: str) -> list[str]:
    """One line per CSV, manifest and GateReport, then per workload one line
    for identical traced counts or one per count that differs."""
    lines = []
    files = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*")
                    if p.suffix == ".csv" or p.name == "manifest.json"})
    for rel in files:
        if not (old / rel).is_file() or not (new / rel).is_file():
            where = "working tree" if (new / rel).is_file() else rev
            lines.append(f"{rel}: only in {where}")
            continue
        a, b = (old / rel).read_text(encoding="utf-8"), (new / rel).read_text(encoding="utf-8")
        verdict = compare_csv(a, b) if rel.suffix == ".csv" else \
            compare_json(_manifest(a), _manifest(b))
        lines.append(f"{rel}: {verdict}")

    old_reports, new_reports = (json.loads((root / "reports.json").read_text(encoding="utf-8"))
                                for root in (old, new))
    for key in sorted(set(old_reports) | set(new_reports)):
        if key not in old_reports or key not in new_reports:
            lines.append(f"GateReport {key}: only in "
                         f"{'working tree' if key in new_reports else rev}")
        else:
            lines.append(f"GateReport {key}: {compare_json(old_reports[key], new_reports[key])}")

    old_counts, new_counts = (json.loads((root / "counts.json").read_text(encoding="utf-8"))
                              for root in (old, new))
    for name in sorted(set(old_counts) | set(new_counts)):
        before, after = old_counts.get(name, {}), new_counts.get(name, {})
        if before == after:
            lines.append(f"EXACT_COUNTS {name}: {IDENTICAL}")
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                lines.append(f"EXACT_COUNTS {name} {key}: {before.get(key)} -> {after.get(key)}")
    return lines


def compare(rev: str, reference_keys=None, workloads=None) -> list[str]:
    """Run both trees and compare their outputs; see the module docstring.
    ``reference_keys`` and ``workloads`` narrow the operations (None: all)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    spec = [json.dumps(None if keys is None else list(keys))
            for keys in (reference_keys, workloads)]
    with tempfile.TemporaryDirectory(prefix="compare_parent_") as tmp:
        tmp = Path(tmp)
        extract(rev, tmp / "tree")
        outs = {"old": (tmp / "tree", tmp / "out_old"), "new": (ROOT, tmp / "out_new")}
        children = {}
        for side, (tree, out) in outs.items():
            out.mkdir()
            children[side] = subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
                 str(tree), str(out), *spec],
                cwd=out, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        errors = {side: child.communicate()[1] for side, child in children.items()}
        for side, child in children.items():
            if child.returncode != 0:
                raise RuntimeError(f"the {side} tree's run failed:\n{errors[side]}")
        return compare_outputs(outs["old"][1], outs["new"][1], rev)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    lines = compare(args.rev)
    print("\n".join(lines))
    return 0 if all(line.endswith(f": {IDENTICAL}") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
