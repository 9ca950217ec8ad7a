"""Operations and workloads of the holospin benchmark.

An operation is one CLI scenario invocation through ``holospin.cli.main``,
exactly as a user would type it: a config file, an output directory and,
for gates, a ``--seed`` for the sphere-quadrature rotation.  A workload is
the set of operations that make up one round; rounds run back to back in a
closed loop with one client.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

# Every seeded sweep grid contains these ratios; their rows are fingerprinted.
ANCHOR_RATIOS = (1.5, 6.5)
SWEEP_POINTS = 600
SWEEP_MAX_RATIO = 12.0
# The CLI accepts delay ratios up to 40, but the y quadrature no longer
# converges here (known defect, the operation exits 2).
PROBE_RATIOS = "19.2,19.25"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its reference key, scenario and config text."""

    key: str
    scenario: str
    config: str
    kind: str           # fingerprint family: gate, sweep, probe, init, readout, validate
    sphere_seed: int | None = None

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        argv = [self.scenario, "--config", str(config_path), "--out", str(out_dir)]
        if self.sphere_seed is not None:
            argv += ["--seed", str(self.sphere_seed)]
        return argv


GATE_VARIANTS = (("y", "y_closed_loop"), ("z", "z_fractional"), ("x", "x_composite"))

WORKLOADS = ("gate-open", "gate-coherent", "curves")


def sweep_grid(rng: random.Random) -> str:
    """About SWEEP_POINTS delay ratios in [0, SWEEP_MAX_RATIO], anchors included."""
    ratios = {rng.uniform(0.0, SWEEP_MAX_RATIO) for _ in range(SWEEP_POINTS - len(ANCHOR_RATIOS))}
    ratios.update(ANCHOR_RATIOS)
    return ",".join(repr(r) for r in sorted(ratios))


def gate_ops(decoherence: bool, rng: random.Random | None) -> list[Op]:
    mode = "open" if decoherence else "coherent"
    return [Op(key=f"gate_{short}_{mode}", scenario="gate", kind="gate",
               config=f"variant = {variant}\ndecoherence = {str(decoherence).lower()}\n",
               sphere_seed=None if rng is None else rng.randrange(2**31))
            for short, variant in GATE_VARIANTS]


def curve_ops(grid: str) -> list[Op]:
    return [
        Op("sweep_beta", "sweep-beta", f"sweep_ratios = {grid}\n", "sweep"),
        Op("sweep_gamma", "sweep-gamma", f"sweep_ratios = {grid}\n", "sweep"),
        Op("sweep_probe", "sweep-beta", f"sweep_ratios = {PROBE_RATIOS}\n", "probe"),
        Op("init", "init", "duration_ps = 40000\nrecord_stride_ps = 20\n", "init"),
        Op("readout", "readout", "", "readout"),
        Op("validate", "validate", "", "validate"),
    ]


def workload_ops(name: str, rng: random.Random) -> list[Op]:
    """The operations of one round of a workload, drawn from the run's seed."""
    if name == "gate-open":
        return gate_ops(True, rng)
    if name == "gate-coherent":
        return gate_ops(False, rng)
    if name == "curves":
        return curve_ops(sweep_grid(rng))
    raise ValueError(f"unknown workload {name!r}")


def reference_ops() -> list[Op]:
    """Every distinct operation once; sweeps on the anchor rows alone."""
    anchors = ",".join(repr(r) for r in ANCHOR_RATIOS)
    return gate_ops(True, None) + gate_ops(False, None) + curve_ops(anchors)


class Runner:
    """Writes each operation's config once and clears its outputs before a call."""

    def __init__(self, work_dir: Path, ops: list[Op]):
        self.work_dir = work_dir
        shutil.rmtree(work_dir, ignore_errors=True)
        (work_dir / "configs").mkdir(parents=True)
        self.config_paths = {}
        for op in ops:
            path = work_dir / "configs" / f"{op.key}.conf"
            path.write_text(op.config, encoding="utf-8")
            self.config_paths[op.key] = path

    def out_dir(self, op: Op) -> Path:
        return self.work_dir / op.key

    def prepare(self, op: Op) -> list[str]:
        """Clear the previous outputs; returns the argv to time."""
        out = self.out_dir(op)
        shutil.rmtree(out, ignore_errors=True)
        return op.argv(self.config_paths[op.key], out)
