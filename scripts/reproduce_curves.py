#!/usr/bin/env python3
"""Regenerate the reference curves: both geometric-angle sweeps and the
optical-pumping transient, written as CSV through the CLI machinery."""

import argparse
import sys
from pathlib import Path

from holospin import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/curves"))
    args = parser.parse_args(argv)

    status = 0
    sweep_cfg = "sweep_ratios = 0,0.5,1,1.5,2,2.5,3,4,5,6,6.5,7,8\n"
    for scenario, text in [
        ("sweep-beta", sweep_cfg),
        ("sweep-gamma", sweep_cfg),
        ("init", "duration_ps = 40000\nrecord_stride_ps = 200\n"),
    ]:
        config = cli.parse_config(text, scenario)
        rc = cli.run(config, args.out / scenario)
        print(f"{scenario}: exit {rc} -> {args.out / scenario}")
        status = max(status, rc)
    return status


if __name__ == "__main__":
    sys.exit(main())
