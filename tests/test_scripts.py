"""The two experiment scripts under scripts/, run in-process."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name=name)["main"]


def test_gate_table_coherent(capsys):
    assert _main("gate_table.py")(["--no-decoherence"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]
            if not line.startswith(" ")}
    assert set(rows) == {"y_closed_loop", "z_fractional", "x_composite"}
    assert [rows[v][0] for v in ("y_closed_loop", "z_fractional", "x_composite")] == \
        ["1.50", "6.50", "1.00"]
    # the z reference breaks its adiabatic premise; the table says so
    z_row = next(i for i, line in enumerate(lines) if line.startswith("z_fractional"))
    assert lines[z_row + 1].startswith("    note: final leakage")


def test_reproduce_curves(tmp_path):
    assert _main("reproduce_curves.py")(["--out", str(tmp_path)]) == 0
    for scenario, csv in (("sweep-beta", "sweep_beta.csv"), ("sweep-gamma", "sweep_gamma.csv"),
                          ("init", "init.csv")):
        assert (tmp_path / scenario / csv).is_file()
        assert (tmp_path / scenario / "manifest.json").is_file()
