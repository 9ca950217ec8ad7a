#!/usr/bin/env python3
"""Simulate the three reference rotations with decoherence on and print a
fidelity table: full five-level open-system result next to the
dark-subspace (holonomy-level) prediction."""

import argparse
import sys

from holospin import scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-decoherence", action="store_true",
                        help="coherent dynamics only")
    args = parser.parse_args(argv)
    decoherence = not args.no_decoherence

    rows = []
    for variant in scenarios.VARIANTS:
        _, report = scenarios.simulate_gate(variant, with_decoherence=decoherence)
        rows.append((variant, report))

    header = (f"{'variant':<16} {'delay/width':>11} {'angle (rad)':>12} "
              f"{'fidelity':>10} {'dark-subspace':>14} {'leakage':>10}")
    print(header)
    print("-" * len(header))
    for variant, rep in rows:
        ratio = scenarios.default_gate_run(variant).tau0_over_tau
        print(f"{variant:<16} {ratio:>11.2f} "
              f"{rep.angle_quadrature:>12.6f} {rep.fidelity:>10.6f} "
              f"{rep.fidelity_dark_subspace:>14.6f} {rep.leakage_final:>10.3e}")
        for warning in rep.warnings:
            print(f"    note: {warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
