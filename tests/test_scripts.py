"""The scripts under scripts/, run in-process."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    return runpy.run_path(str(SCRIPTS / name), run_name=name)


def _main(name):
    return _script(name)["main"]


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


@pytest.mark.skipif(not (SCRIPTS.parent / ".git").exists(), reason="needs a git checkout")
def test_compare_parent_finds_the_anchor_sweeps_unchanged(tmp_path):
    # HEAD against itself, so uncommitted changes cannot move the result:
    # each side runs in its own interpreter, and the same sweeps give
    # byte-identical files
    script = _script("compare_parent.py")
    script["extract"]("HEAD", tmp_path)
    lines = script["_compare_trees"](tmp_path, tmp_path, "HEAD",
                                     ("sweep_beta", "sweep_gamma"), ())
    assert len(lines) == 4
    assert all(line.endswith(": identical") for line in lines), lines


def test_compare_parent_reports_differences():
    script = _script("compare_parent.py")
    assert script["compare_csv"]("a,b\n1,x\n", "a,b\n1,x\n") == "identical"
    assert script["compare_csv"]("a,b\n1,x\n", "a\n1.5\n") == \
        "columns dropped: b; largest numeric difference 5.000e-01"
    assert script["compare_json"]({"f": [1.0, "y"]}, {"f": [1.0, "z"]}) == "differs at .f[1]"
    # solver statistics are reported apart, so a moved RHS count cannot
    # hide how far a physics number moved
    old = {"fidelity": 0.9, "solver_stats": [{"n_rhs_evals": 100, "norm_drift": 1e-12}]}
    moved = {"fidelity": 0.9 + 1e-10, "solver_stats": [{"n_rhs_evals": 2100, "norm_drift": 1e-12}]}
    assert script["compare_json"](old, moved) == \
        "largest numeric difference 1.000e-10; solver statistics: largest numeric difference " \
        "2.000e+03"
    assert script["compare_json"](old, {**moved, "fidelity": 0.9}) == \
        "physics identical; solver statistics: largest numeric difference 2.000e+03"


@pytest.mark.skipif(not (SCRIPTS.parent / ".git").exists(), reason="needs a git checkout")
def test_bench_pairs_writes_the_bench_schema(tmp_path):
    # one short pair of HEAD against itself, so uncommitted changes cannot
    # move the result
    script = _script("bench_pairs.py")
    script["extract"]("HEAD", tmp_path)
    report = script["bench_pairs"](tmp_path, tmp_path, "HEAD", ["gate-coherent"], 1, 0.1)
    assert list(report) == ["what", "command", "machine", "parent", "runs", "pairs", "summary"]
    assert [(run["side"], run["trace"], run["seed"]) for run in report["pairs"]] == \
        [("parent", 0, 3001), ("change", 0, 3001)]
    assert [(run["side"], run["trace"], run["seed"]) for run in report["runs"]] == \
        [("parent", 1, 301), ("change", 1, 301)]
    assert all(run["result"]["correct"] for run in report["pairs"] + report["runs"])
    summary = report["summary"]["gate-coherent"]
    assert set(summary) == {"wall_s", "setup_s", "peak_rss_mb", "ops_failed_frac", "correct"}
    assert summary["correct"] and summary["wall_s"]["pairs"] == 1
    assert report["machine"].startswith("nproc=")


def test_bench_pairs_counts_the_pairs_each_side_wins():
    def run(side, wall, fraction):
        return {"side": side, "workload": "w", "result": {"correct": True, "metrics": {
            "wall_s": {"value": wall}, "hit_frac": {"value": fraction}}}}
    pairs = [run("parent", 1.0, 0.5), run("change", 0.8, 0.5),
             run("change", 0.9, 0.4), run("parent", 0.7, 0.6),
             run("parent", 1.1, 0.5), run("change", 0.6, 0.7)]
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "hit_frac", "better": "higher"}]
    summary = _script("bench_pairs.py")["summarize"](pairs, metrics)["w"]
    assert summary["wall_s"] == {
        "parent": pytest.approx({"median": 1.0, "q1": 0.85, "q3": 1.05}),
        "change": pytest.approx({"median": 0.8, "q1": 0.7, "q3": 0.85}),
        "pairs": 3, "change_better": 2, "change_worse": 1}
    assert (summary["hit_frac"]["change_better"], summary["hit_frac"]["change_worse"]) == (1, 1)
    assert summary["correct"]
