#!/usr/bin/env python3
"""Write perfbench/reference.json: every operation's fingerprint at this commit.

    python3 perfbench/make_reference.py

Run from the repository root, and only in a change that is meant to move
the physics; the benchmark checks every later run against this file.
"""

from __future__ import annotations

import json
import sys

import fingerprint
import run
from workloads import Runner, reference_ops


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from holospin import cli, scenarios

    reports = run.capture_reports(scenarios)
    ops = reference_ops()
    runner = Runner(run.ROOT / ".bench_out" / "reference", ops)
    entries = {}
    for op in ops:
        reports.clear()
        status = cli.main(runner.prepare(op))
        got = fingerprint.extract(op, runner.out_dir(op), reports[-1] if reports else None)
        entries[op.key] = {"exit": status, "values": got["values"],
                           "csv_sha256": got["csv_sha256"]}
        run.log(f"{op.key}: exit {status}")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"ops": entries}, indent=1) + "\n", encoding="utf-8")
    run.log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
