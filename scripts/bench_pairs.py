#!/usr/bin/env python3
"""Time this working tree against a git revision in alternating benchmark
runs, and write the pairs and their summary as one JSON file.

    python3 scripts/bench_pairs.py REV --out BENCH_<pr>.json [--pairs 10]

REV is extracted with ``compare_parent.extract`` and the working tree is
copied (its tracked and new files), so both sides run from clean copies and
the repository is left untouched.  For each workload of ``BENCHMARK.json``
the script runs ``--pairs`` pairs of ``perfbench/run.py --trace 0`` runs of
its ``run_seconds``, one seed per pair from 3001 on, and the side that runs
first alternates from pair to pair (Kalibera & Jones, "Rigorous benchmarking
in reasonable time", ISMM 2013).  Then every workload runs once with
``--trace 1`` (seed 301) on each side, REV first.

The file holds ``what``, ``command``, ``machine``, ``parent`` (REV), ``runs``
(the traced runs), ``pairs`` (the untraced runs in run order) and
``summary``: per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles over the pairs and the number of pairs in which
the change reads better or worse, plus whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_parent import ROOT, extract  # noqa: E402

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace T"
# the first pair's seed, and the seed of the traced runs
FIRST_SEED, TRACE_SEED = 3001, 301


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and new files that are not ignored."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One ``perfbench/run.py`` run in ``tree``: its result line and the
    environment line it logs, without the load average."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {tree}:\n{done.stderr}")
    env = next(line for line in done.stderr.splitlines() if line.startswith("env: "))
    return json.loads(done.stdout.splitlines()[-1]), env[len("env: "):].split(" loadavg=")[0]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles
    (numpy linear percentiles) and the pairs the change won and lost; and
    whether every run of the workload was correct."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in pairs):
        runs = [run for run in pairs if run["workload"] == workload]
        entry = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [run["result"]["metrics"][name]["value"] for run in runs
                             if run["side"] == side] for side in ("parent", "change")}
            gaps = sign * (np.array(values["change"]) - np.array(values["parent"]))
            entry[name] = {
                **{side: dict(zip(("median", "q1", "q3"),
                                  np.percentile(values[side], [50, 25, 75]).tolist()))
                   for side in ("parent", "change")},
                "pairs": len(gaps), "change_better": int(np.sum(gaps < 0)),
                "change_worse": int(np.sum(gaps > 0))}
        entry["correct"] = all(run["result"]["correct"] for run in runs)
        summary[workload] = entry
    return summary


def bench_pairs(parent: Path, change: Path, rev: str, workloads, n_pairs: int,
                seconds: float) -> dict:
    """The report the module docstring describes, for two trees, the first
    labelled ``rev``."""
    trees = {"parent": parent, "change": change}
    pairs, runs, machine = [], [], None
    for w, workload in enumerate(workloads):
        for i in range(n_pairs):
            seed = FIRST_SEED + w * n_pairs + i
            for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                result, machine = bench(trees[side], workload, seed, seconds, 0)
                pairs.append({"side": side, "workload": workload, "trace": 0, "seed": seed,
                              "result": result})
    for workload in workloads:
        for side in ("parent", "change"):
            result, machine = bench(trees[side], workload, TRACE_SEED, seconds, 1)
            runs.append({"side": side, "workload": workload, "trace": 1, "seed": TRACE_SEED,
                         "result": result})
    declared = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    last = FIRST_SEED + len(workloads) * n_pairs - 1
    return {
        "what": (f"perfbench/run.py --seconds {seconds:g} result lines for {rev} ('parent') and "
                 "this change, run one after the other on the same machine from clean copies "
                 "of each tree (the parent from git archive, the change from its tracked and "
                 f"new files). 'pairs': {n_pairs} alternating --trace 0 pairs per workload of "
                 f"{', '.join(workloads)}, in run order, seeds {FIRST_SEED}-{last} (one per "
                 "pair, in that order); the side that runs first alternates from pair to pair. "
                 f"'runs': every workload with --trace 1 (seed {TRACE_SEED}), parent then "
                 "change. 'summary': per workload and end-to-end metric, each side's median "
                 "and quartiles (numpy linear percentiles) over the pairs and the number of "
                 "pairs in which the change read better or worse."),
        "command": COMMAND.format(seconds=f"{seconds:g}"),
        "machine": machine,
        "parent": rev,
        "runs": runs,
        "pairs": pairs,
        "summary": summarize(pairs, declared["end_to_end"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to time the working tree against")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    short = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                           capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        extract(args.rev, parent)
        copy_working_tree(change)
        report = bench_pairs(parent, change, short, [w["name"] for w in declared["workloads"]],
                             args.pairs, declared["run_seconds"])
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["summary"].items():
        wall = entry["wall_s"]
        print(f"{workload}: wall_s median {wall['parent']['median']:.4f} -> "
              f"{wall['change']['median']:.4f} s, change better in {wall['change_better']} "
              f"of {wall['pairs']} pairs, correct {entry['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
