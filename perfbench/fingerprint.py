"""Physics fingerprints of single operations and their check against the
committed reference (``reference.json``, taken at the seed commit).

A fingerprint holds the exit status plus the numbers a user reads from the
operation's output.  Tolerances follow the solver tolerances: gates run at
rel_tol 1e-10 (fixed by ``GateRun``), init and readout at the CLI default
1e-9, holonomy quadratures at an absolute 1e-10.  A propagated number may
move by 1e3 times the gate rel_tol or 1e2 times the CLI rel_tol (both
1e-7), a quadrature angle by 1e2 times its tolerance.  Measured at the seed
commit: swapping DOP853 for RK45 at the same tolerances moved gate numbers
by at most 1.2e-9 and init/readout numbers by at most 5e-11, so a swap
passes; shifting the ancilla energy by 1e-5 rad/ps moved gate numbers by at
least 5e-4, and raising gamma by 1% moved init and readout by 1.0e-6 and
3.7e-6, so those physics changes fail.  CSV sha256 digests are compared as
information only: reformatting output is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import ANCHOR_RATIOS, Op

GATE_REL_TOL = 1e-10
CLI_REL_TOL = 1e-9
QUAD_ABS_TOL = 1e-10

TOLERANCE = {
    "gate": 1e3 * GATE_REL_TOL,
    "sweep": 1e2 * QUAD_ABS_TOL,
    "init": 1e2 * CLI_REL_TOL,
    "readout": 1e2 * CLI_REL_TOL,
}

# whole-file digests; a sweep's digest covers its anchor rows, the part of
# the seeded grid that every run shares
_CSV_NAME = {"gate": "gate_process.csv", "init": "init.csv", "readout": "readout.csv",
             "validate": "validate.csv"}


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def extract(op: Op, out_dir: Path, report=None) -> dict:
    """Fingerprint of one finished operation.

    ``report`` is the GateReport the gate scenario computed; the CSV carries
    the process blocks, the report the scalars at full precision.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    values: dict = {}
    digest = None
    csv_rows = 0
    if op.kind == "gate":
        rows = _rows(out_dir / "gate_process.csv")
        values["process"] = [float(x) for row in rows for x in row[1:]]
        values.update(fidelity=report.fidelity,
                      fidelity_dark_subspace=report.fidelity_dark_subspace,
                      leakage_final=report.leakage_final,
                      angle_quadrature=report.angle_quadrature)
    elif op.kind == "sweep":
        path = out_dir / ("sweep_beta.csv" if op.scenario == "sweep-beta" else "sweep_gamma.csv")
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        anchors = [line for line in lines if float(line.split(",", 1)[0]) in ANCHOR_RATIOS]
        values["anchor_angles"] = [float(line.split(",")[1]) for line in anchors]
        digest = _sha256("\n".join(anchors).encode())
    elif op.kind == "probe":
        values["error"] = (manifest["error"] or "").split(" (", 1)[0]
    elif op.kind == "init":
        rows = _rows(out_dir / "init.csv")
        values.update(snapshots=len(rows), final_fidelity=float(rows[-1][-1]))
    elif op.kind == "readout":
        values["expected_photons"] = float(_rows(out_dir / "readout.csv")[0][1])
    elif op.kind == "validate":
        values["statuses"] = {row[0]: row[1] for row in _rows(out_dir / "validate.csv")}
    if op.kind in _CSV_NAME:
        digest = _sha256((out_dir / _CSV_NAME[op.kind]).read_bytes())
    for path in out_dir.glob("*.csv"):
        csv_rows += len(path.read_text(encoding="utf-8").splitlines()) - 1
    return {"exit": manifest["exit_status"], "values": values, "csv_sha256": digest,
            "csv_rows": csv_rows}


def _close(got, want, tol: float) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, tol) for g, w in zip(got, want)))
    return got == want


def compare(op: Op, got: dict, ref: dict) -> list[str]:
    """Mismatches of a fingerprint against its reference entry; [] when it holds."""
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit {got['exit']} != reference {ref['exit']}")
    if op.kind == "sweep" and got["csv_rows"] != op.config.count(",") + 1:
        problems.append(f"{got['csv_rows']} sweep rows written for "
                        f"{op.config.count(',') + 1} ratios")
    tol = TOLERANCE.get(op.kind, 0.0)
    for key, want in ref["values"].items():
        have = got["values"].get(key)
        if not _close(have, want, tol):
            problems.append(f"{key}: {have!r} != reference {want!r} (tol {tol:g})")
    return problems
