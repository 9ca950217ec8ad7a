#!/usr/bin/env python3
"""holospin benchmark: CLI scenarios in a closed loop, fingerprint-checked.

    python3 perfbench/run.py --workload gate-open --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every operation is one ``holospin.cli.main``
call in this process (default ``--threads 1``, one BLAS thread).  The
workload's operations run back to back in rounds, in an order drawn from
the seed, for about ``--seconds``; each operation's time is corrected for
the host's speed (``probe.py``) and its output is checked against
``reference.json`` outside the timed region.  The last line of stdout is
one JSON object: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, measured on
traced rounds that alternate with untraced ones.  See README.md for the
workloads and the layer map.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import fingerprint  # noqa: E402
import spans  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS, Runner, workload_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# import plus config parse, timed inside a fresh interpreter
_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from holospin import cli
for item in sys.argv[2:]:
    scenario, _, path = item.partition("=")
    with open(path, encoding="utf-8") as handle:
        cli.parse_config(handle.read(), scenario)
print(time.perf_counter() - start)
"""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> str:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas} blas_threads="
            f"{os.environ['OPENBLAS_NUM_THREADS']} loadavg={load}")


def measure_setup(src: Path, runner: Runner, ops) -> float:
    args = [f"{op.scenario}={runner.config_paths[op.key]}" for op in ops]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(src), *args],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def capture_reports(scenarios) -> list:
    """Keep each GateReport that ``simulate_gate`` returns; the fingerprint
    compares its scalars at full precision."""
    reports: list = []
    original = scenarios.simulate_gate

    def capture(*args, **kwargs):
        process, report = original(*args, **kwargs)
        reports.append(report)
        return process, report
    scenarios.simulate_gate = capture
    return reports


class Bench:
    """Runs the operations of one workload and checks every one of them."""

    def __init__(self, scenarios, runner: Runner, ops, reference: dict, rng: random.Random):
        self.runner = runner
        self.ops = ops
        self.reference = reference
        self.rng = rng
        self.reports = capture_reports(scenarios)
        self.probe = Probe()
        self.attempted = self.failed = self.csv_identical = self.csv_rows = 0
        # per operation: [attempts that failed for the user, attempts]
        self.outcomes = {op.key: [0, 0] for op in ops}
        # per kind of round ("plain" or "traced"), operation key -> seconds;
        # ``times`` corrected to the probe's reference speed, ``raw`` as measured
        self.times: dict[str, dict[str, list[float]]] = {"plain": {}, "traced": {}}
        self.raw: dict[str, dict[str, list[float]]] = {"plain": {}, "traced": {}}

    def order(self) -> list:
        """The operations of one round, in an order drawn from the seed."""
        return self.rng.sample(self.ops, len(self.ops))

    def call(self, op, invoke, kind: str) -> None:
        """Time one operation in a round of ``kind`` and check it."""
        self.current = op
        argv = self.runner.prepare(op)
        self.reports.clear()
        self.probe.start()
        start = perf_counter()
        raised = None
        try:
            status = invoke(argv)
        except Exception:
            status, raised = None, traceback.format_exc()
        elapsed = perf_counter() - start
        corrected = self.probe.stop(elapsed)
        if raised:
            log(f"{op.key}: raised\n{raised}")
        self.raw[kind].setdefault(op.key, []).append(elapsed)
        self.times[kind].setdefault(op.key, []).append(corrected)
        self.attempted += 1
        matches = self.check(op, status)
        self.failed += not matches
        tally = self.outcomes[op.key]
        tally[0] += status != 0 or not matches
        tally[1] += 1

    def round(self, invoke, kind: str) -> None:
        for op in self.order():
            self.call(op, invoke, kind)

    def check(self, op, status) -> bool:
        """True when the operation reproduces its reference entry, exit status included."""
        if status is None:
            return False
        ref = self.reference["ops"][op.key]
        try:
            got = fingerprint.extract(op, self.runner.out_dir(op),
                                      self.reports[-1] if self.reports else None)
        except (OSError, ValueError, IndexError, KeyError, AttributeError) as exc:
            log(f"{op.key}: output unreadable: {exc!r}")
            return False
        problems = fingerprint.compare(op, got, ref)
        if got["exit"] != status:
            problems.append(f"main returned {status}, manifest says {got['exit']}")
        for problem in problems:
            log(f"{op.key}: {problem}")
        self.csv_rows += got["csv_rows"]
        self.csv_identical += got["csv_sha256"] == ref["csv_sha256"]
        return not problems

    def failed_frac(self) -> float:
        """Share of the workload's operations that fail for a user (raise, exit
        non-zero or leave the reference), each operation weighted equally."""
        return statistics.fmean(bad / runs for bad, runs in self.outcomes.values())


def pass_time(op_times: dict) -> float:
    """Time of one pass over the workload: the sum of its operations' medians."""
    return sum(statistics.median(times) for times in op_times.values())


def tail(times: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    if len(times) <= 10:
        return "no percentile has 10 samples beyond it"
    ranked = sorted(times)
    return f"p{100 * (len(ranked) - 10) / len(ranked):.0f} {ranked[-11]:.4f} s"


def run_plain(bench: Bench, invoke, seconds: float) -> None:
    """Operations back to back in seeded rounds.  After a first whole round,
    each one starts only while it is expected to end within half its own
    time of ``seconds``."""
    start = perf_counter()
    bench.round(invoke, "plain")
    while True:
        for op in bench.order():
            expected = statistics.median(bench.raw["plain"][op.key])
            if perf_counter() - start + 0.5 * expected > seconds:
                return
            bench.call(op, invoke, "plain")


def run_alternating(seconds: float, run_round) -> None:
    """Untraced and traced rounds in turn, at least one of each; a round starts
    only while it is expected to end within half a round of ``seconds``."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    for traced in itertools.cycle((False, True)):
        if walls[True] and (perf_counter() - start
                            + 0.5 * statistics.fmean(walls[traced]) > seconds):
            return
        began = perf_counter()
        run_round(traced)
        walls[traced].append(perf_counter() - began)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "holospin" / "cli.py").is_file():
        log(f"holospin sources not found under {src}")
        return 2
    sys.path.insert(0, str(src))
    import holospin
    from holospin import cli

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    log(f"env: {environment()}")

    rng = random.Random(args.seed)
    ops = workload_ops(args.workload, rng)
    runner = Runner(ROOT / ".bench_out" / args.workload, ops)
    setup_s = measure_setup(src, runner, ops)
    bench = Bench(holospin.scenarios, runner, ops, reference, rng)

    values = {"setup_s": setup_s}
    repeat_ok = True
    if args.trace:
        repeat_ok = traced_run(bench, cli.main, holospin, args, values)
    else:
        run_plain(bench, cli.main, args.seconds)
    values.update({
        "wall_s": pass_time(bench.times["plain"]),
        "raw_wall_s": pass_time(bench.raw["plain"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": bench.failed_frac(),
    })
    if args.trace:
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]

    user_failed = {key: bad for key, (bad, _) in bench.outcomes.items() if bad}
    log(f"{args.workload} seed {args.seed}: ops {bench.attempted}, "
        f"off the reference {bench.failed}, failed for the user {user_failed}, "
        f"csv byte-identical {bench.csv_identical}/{bench.attempted}")
    for kind, per_op in bench.times.items():
        for key, times in per_op.items():
            raw = bench.raw[kind][key]
            log(f"  {kind} {key}: {len(times)} runs; corrected median "
                f"{statistics.median(times):.4f} s, {tail(times)}; raw median "
                f"{statistics.median(raw):.4f} s, {tail(raw)}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}
    print(json.dumps({"correct": bench.failed == 0 and repeat_ok,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


def traced_run(bench: Bench, invoke, holospin, args, values: dict) -> bool:
    """Untraced and traced rounds in turn; adds the per-layer values to
    ``values`` and returns whether every exact count repeated between rounds.

    Counts and times are per traced round, as medians over traced rounds;
    operation times come from the untraced rounds.  Spans are written to
    ``.bench_out/spans-<workload>-<seed>.jsonl``.
    """
    tracer = spans.Tracer()
    traced: list[dict] = []
    all_spans: list[dict] = []

    def run_round(traced_round: bool) -> None:
        if not traced_round:
            bench.round(invoke, "plain")
            return
        tracer.reset()
        rows_before = bench.csv_rows
        with spans.installed(tracer, holospin):
            bench.round(tracer.span("cli", invoke,
                                    lambda status: {"op": bench.current.key, "exit": status}),
                        "traced")
        metrics = spans.layer_metrics(tracer)
        metrics["cli.csv_rows"] = bench.csv_rows - rows_before
        traced.append(metrics)
        all_spans.extend(spans.records(tracer.spans, len(all_spans), len(traced)))

    run_alternating(args.seconds, run_round)

    repeat_ok = True
    for key in spans.EXACT_COUNTS:
        seen = {m[key] for m in traced}
        if len(seen) > 1:
            repeat_ok = False
            log(f"count {key} differs between rounds: {sorted(seen)}")
    trace_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
    trace_path.write_text("".join(json.dumps(s) + "\n" for s in all_spans), encoding="utf-8")

    values.update({key: statistics.median(m[key] for m in traced) for key in traced[0]})
    values["trace.wall_s"] = pass_time(bench.times["traced"])
    for name in ("gate_y", "gate_z", "gate_x", "sweep_beta", "sweep_gamma", "sweep_probe",
                 "init", "readout", "validate"):
        samples = [t for key, times in bench.times["plain"].items()
                   if key == name or key.startswith(name + "_") for t in times]
        values[f"{name}_s"] = statistics.median(samples) if samples else 0.0
    return repeat_ok


if __name__ == "__main__":
    sys.exit(main())
