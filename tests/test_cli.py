import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holospin import cli

README = Path(__file__).resolve().parents[1] / "README.md"

MODEL_KEYS = {"delta_rad_per_ps", "detuning_rad_per_ps", "gamma_per_ps", "gamma_hh_per_ps",
              "gamma_ee_per_ps"}
# exactly the keys that change each scenario's output
EXPECTED_KEYS = {
    "init": MODEL_KEYS | {"polarization", "rabi_per_ps", "duration_ps", "record_stride_ps",
                          "rel_tol"},
    "readout": MODEL_KEYS | {"input_state", "rabi_per_ps", "duration_ps", "rel_tol"},
    "gate": MODEL_KEYS | {"variant", "decoherence", "amp_stokes", "amp_pump", "tau_ps",
                          "tau0_over_tau", "return_delay_over_tau", "stokes_phase_rad",
                          "target_angle_rad"},
    "sweep-beta": {"sweep_ratios"},
    "sweep-gamma": {"sweep_ratios", "amp_stokes", "delta_rad_per_ps"},
    "validate": {"amp_pump", "amp_stokes", "amp_driving", "tau_ps", "delta_rad_per_ps",
                 "detuning_rad_per_ps"},
}
ALL_KEYS = set().union(*EXPECTED_KEYS.values())
# every key a scenario does not read, plus keys that no scenario reads any more
REJECTED = [(scenario, key) for scenario, keys in EXPECTED_KEYS.items()
            for key in sorted(ALL_KEYS - keys) + ["abs_tol", "quad_tol", "pump_amp",
                                                  "sphere_points"]]


def _readme_key_table() -> dict:
    """key -> set of scenarios, from the README's config key table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | read by | default |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, read_by = (cell.strip() for cell in line.strip("|").split("|")[:2])
        table[key.strip("`")] = set(read_by.split(", "))
    return table


class TestKeyTables:
    def test_tables_hold_exactly_the_keys_that_matter(self):
        assert {s: set(t) for s, t in cli.SCENARIO_KEYS.items()} == EXPECTED_KEYS
        assert sum(len(keys) for keys in EXPECTED_KEYS.values()) == 43

    @pytest.mark.parametrize("scenario,key", REJECTED)
    def test_key_not_read_is_rejected(self, scenario, key, tmp_path):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(f"{key} = 1\n", scenario)
        assert repr(key) in str(info.value) and repr(scenario) in str(info.value)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_readme_table_matches(self):
        expected = {}
        for scenario, table in cli.SCENARIO_KEYS.items():
            for key in table:
                expected.setdefault(key, set()).add(scenario)
        assert _readme_key_table() == expected

    def test_manifest_records_only_the_scenario_keys(self, tmp_path):
        config = cli.parse_config("sweep_ratios = 0,1\n", "sweep-beta")
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"sweep_ratios": [0.0, 1.0]}
        assert manifest["defaults_used"] == []

    def test_sweep_gamma_reads_amp_and_delta(self, tmp_path):
        # the phase depends on amp / delta: halving one equals doubling the other
        angles = []
        for text in ("", "amp_stokes = 0.25\n", "delta_rad_per_ps = 2.032e-3\n"):
            config = cli.parse_config("sweep_ratios = 2\n" + text, "sweep-gamma")
            assert cli.run(config, tmp_path) == 0
            row = (tmp_path / "sweep_gamma.csv").read_text().splitlines()[1]
            angles.append(float(row.split(",")[1]))
        assert abs(angles[1] - angles[0]) > 1e-4
        assert angles[2] == pytest.approx(angles[1], abs=1e-9)

    def test_gate_amp_pump_sets_pump_peak(self, tmp_path, monkeypatch):
        runs = []

        def capture(variant, run, with_decoherence, seed=None):
            runs.append(run)
            raise ValueError("captured")
        monkeypatch.setattr(cli.scenarios, "simulate_gate", capture)
        for text in ("amp_pump = 0.3\n", ""):
            assert cli.run(cli.parse_config(text, "gate"), tmp_path) == 2
        # unset: the variant rule in scenarios picks the pump peak
        assert [run.pump_amp for run in runs] == [0.3, None]


# gate keys that a variant never reads (changing one moves no output)
VARIANT_IGNORED = [
    ("y_closed_loop", "stokes_phase_rad"),
    ("z_fractional", "amp_pump"), ("z_fractional", "return_delay_over_tau"),
    ("z_fractional", "target_angle_rad"),
    ("x_composite", "target_angle_rad"),
]


class TestVariantKeys:
    @pytest.mark.parametrize("variant,key", VARIANT_IGNORED)
    def test_key_the_variant_ignores_is_rejected(self, variant, key, tmp_path):
        text = f"variant = {variant}\n{key} = 0.3\n"
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(text, "gate")
        assert repr(key) in str(info.value) and repr(variant) in str(info.value)
        assert "line 2" in str(info.value)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant", ["y_closed_loop", "z_fractional", "x_composite"])
    def test_values_hold_only_the_keys_the_variant_reads(self, variant):
        config = cli.parse_config(f"variant = {variant}\n", "gate")
        ignored = {key for v, key in VARIANT_IGNORED if v == variant}
        assert set(config.values) == EXPECTED_KEYS["gate"] - ignored
        assert set(config.defaults_used) == set(config.values) - {"variant"}

    def test_single_pass_is_not_a_variant(self, tmp_path):
        # the forward segment alone leaves the qubit in (-|a>, |0>): it is
        # not a rotation of the qubit, so it is no gate variant
        text = "variant = y_single_pass\n"
        with pytest.raises(cli.ConfigError, match="'variant'"):
            cli.parse_config(text, "gate")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()


class TestParseConfig:
    def test_empty_document_resolves_reference_defaults(self):
        config = cli.parse_config("", "gate")
        assert config.values["amp_stokes"] == 0.5
        assert config.values["tau_ps"] == 100.0
        assert config.values["delta_rad_per_ps"] == pytest.approx(1.016e-3)
        assert "amp_stokes" in config.defaults_used

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError, match="foo"):
            cli.parse_config("foo = 1\n", "init")

    def test_range_error(self):
        with pytest.raises(cli.ConfigError, match="delta_rad_per_ps"):
            cli.parse_config("delta_rad_per_ps = -1\n", "init")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("scenario,key", [("gate", "tau_ps"), ("init", "detuning_rad_per_ps"),
                                              ("sweep-beta", "sweep_ratios")])
    def test_non_finite_value_rejected(self, scenario, key, value):
        with pytest.raises(cli.ConfigError, match=key):
            cli.parse_config(f"{key} = {value}\n", scenario)

    def test_malformed_line(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.parse_config("duration_ps = 50\njust words\n", "init")

    def test_duplicate_key(self):
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.parse_config("duration_ps = 50\nduration_ps = 60\n", "init")

    def test_comments_and_blanks_ignored(self):
        config = cli.parse_config("# comment\n\nduration_ps = 42 # inline\n", "init")
        assert config.values["duration_ps"] == 42.0

    def test_unknown_scenario(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("", "fly")

    def test_gate_variant_defaults(self):
        config = cli.parse_config("variant = z_fractional\n", "gate")
        assert config.values["tau0_over_tau"] == 6.5
        assert config.values["stokes_phase_rad"] == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("variant", cli.scenarios.VARIANTS)
    def test_gate_defaults_are_the_reference_run(self, variant):
        # one source: every gate key defaults to its field of the variant's GateRun
        run = cli.scenarios.default_gate_run(variant)
        for key, name in cli._GATE_FIELDS.items():
            default = cli.SCENARIO_KEYS["gate"][key][1]
            if callable(default):
                default = default({"variant": variant})
            assert default == getattr(run, name), key

    def test_sweep_ratio_validation(self):
        with pytest.raises(cli.ConfigError, match="sweep_ratios"):
            cli.parse_config("sweep_ratios = 3,2,1\n", "sweep-beta")
        with pytest.raises(cli.ConfigError, match="40"):
            cli.parse_config("sweep_ratios = 0,64\n", "sweep-beta")


class TestRun:
    def test_sweep_gamma_schema_and_plateau(self, tmp_path):
        config = cli.parse_config("", "sweep-gamma")
        status = cli.run(config, tmp_path)
        assert status == 0
        lines = (tmp_path / "sweep_gamma.csv").read_text().splitlines()
        assert lines[0] == "tau0_over_tau,gamma_f_rad,gamma_f_over_pi,quad_err"
        assert len(lines) == 10  # header + 9 default rows
        last = [float(x) for x in lines[-1].split(",")]
        assert last[2] == pytest.approx(0.25, abs=1e-4)

    def test_sweep_beta_csv(self, tmp_path):
        config = cli.parse_config("sweep_ratios = 0,1.5,3\n", "sweep-beta")
        assert cli.run(config, tmp_path) == 0
        lines = (tmp_path / "sweep_beta.csv").read_text().splitlines()
        assert lines[0] == "tau0_over_tau,beta_rad,beta_over_pi,quad_err"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows[0][1] == 0.0
        assert rows[2][1] == pytest.approx(math.pi / 2, abs=1e-3)

    def test_byte_identical_reruns(self, tmp_path):
        config = cli.parse_config("sweep_ratios = 0,2,4\n", "sweep-gamma")
        cli.run(config, tmp_path / "a")
        cli.run(config, tmp_path / "b")
        assert ((tmp_path / "a" / "sweep_gamma.csv").read_bytes()
                == (tmp_path / "b" / "sweep_gamma.csv").read_bytes())

    def test_init_schema_and_manifest(self, tmp_path):
        config = cli.parse_config("duration_ps = 1000\nrecord_stride_ps = 250\n",
                                  "init")
        assert cli.run(config, tmp_path) == 0
        lines = (tmp_path / "init.csv").read_text().splitlines()
        assert lines[0] == "t_ps,rho00,rho11,rho_aa,rho_e1e1,rho_e2e2,fidelity"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "init"
        assert manifest["exit_status"] == 0
        # every emitted file is referenced in the manifest
        emitted = {p.name for p in tmp_path.iterdir()}
        assert emitted == set(manifest["outputs"])

    def test_init_and_readout_manifests_report_results_and_solver(self, tmp_path):
        config = cli.parse_config("duration_ps = 1000\nrecord_stride_ps = 250\n", "init")
        cli.run(config, tmp_path / "init")
        manifest = json.loads((tmp_path / "init" / "manifest.json").read_text())
        # the preparation fidelity has no bound: a result, not a check
        assert [c["name"] for c in manifest["checks"]] == ["trace_preserved"]
        last = (tmp_path / "init" / "init.csv").read_text().splitlines()[-1]
        assert manifest["results"]["preparation_fidelity"] == pytest.approx(
            float(last.split(",")[-1]), rel=1e-11)
        config = cli.parse_config("duration_ps = 5000\n", "readout")
        cli.run(config, tmp_path / "readout")
        readout = json.loads((tmp_path / "readout" / "manifest.json").read_text())
        for solver in (manifest["solver"], readout["solver"]):
            assert len(solver) == 1
            assert solver[0]["n_rhs_evals"] > 0

    def test_gate_scenario(self, tmp_path):
        text = "variant = y_closed_loop\ndecoherence = false\n"
        config = cli.parse_config(text, "gate")
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "fidelity" in manifest["results"]
        lines = (tmp_path / "gate_process.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_gate_manifest_reports_solver_stats(self, tmp_path):
        # one record per segment solve of the closed loop
        config = cli.parse_config("variant = y_closed_loop\ndecoherence = false\n", "gate")
        cli.run(config, tmp_path)
        segments = json.loads((tmp_path / "manifest.json").read_text())["solver"]
        assert len(segments) == 2
        assert all(seg["n_rhs_evals"] > 0 for seg in segments)

    @pytest.mark.parametrize("variant", cli.scenarios.VARIANTS)
    def test_gate_manifest_reports_prediction_overlap(self, variant, tmp_path):
        config = cli.parse_config(f"variant = {variant}\ndecoherence = false\n", "gate")
        cli.run(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["error"] is None
        assert 0.0 < manifest["results"]["prediction_overlap"] <= 1.0

    def test_readout_scenario(self, tmp_path):
        config = cli.parse_config("input_state = zero\nduration_ps = 5000\n",
                                  "readout")
        assert cli.run(config, tmp_path) == 0
        lines = (tmp_path / "readout.csv").read_text().splitlines()
        assert lines[1].startswith("zero,")

    def test_validate_scenario_passes(self, tmp_path):
        config = cli.parse_config("", "validate")
        assert cli.run(config, tmp_path) == 0
        rows = (tmp_path / "validate.csv").read_text().splitlines()[1:]
        assert all(",pass," in row for row in rows)
        # the benchmark fingerprints validate by its check -> status map
        assert [row.split(",")[0] for row in rows] == [
            "dark_state_nullity", "connection_oracle", "expm_unitary", "expm_semigroup",
            "scale_invariance_y", "scale_invariance_z", "propagator_cross_oracle"]

    def test_manifest_written_on_failure(self, tmp_path):
        # a delay ratio far outside the family's range, injected past the
        # parser's own range check, makes the sweep itself raise
        config = cli.parse_config("", "sweep-gamma")
        config.values["sweep_ratios"] = (0.0, 1e6)
        status = cli.run(config, tmp_path)
        assert status == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == status
        assert "representable range" in manifest["error"]

    @pytest.mark.parametrize("text", ["tau0_over_tau = 0.2\n", "amp_stokes = 0\n"])
    def test_x_composite_unreachable_quarter_turn(self, text, tmp_path):
        # no pump peak up to amp_stokes tunes the forward angle to pi/4: the
        # error names the variant, the reachable angle and the way out
        config = cli.parse_config("variant = x_composite\n" + text, "gate")
        assert cli.run(config, tmp_path) == 2
        error = json.loads((tmp_path / "manifest.json").read_text())["error"]
        assert "x_composite" in error and "largest reachable angle" in error
        assert "amp_pump" in error and "tau0_over_tau" in error


class TestMain:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert cli.main(["init", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["init", "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path)]) == 1

    def test_sweep_runs_end_to_end(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("sweep_ratios = 0,3\n")
        status = cli.main(["sweep-beta", "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
        assert status == 0
        assert (tmp_path / "out" / "sweep_beta.csv").exists()

    def test_seed_reaches_every_gate_fidelity(self, tmp_path, monkeypatch):
        # --seed rotates the sphere points of every consistency check the gate runs
        seeds = []
        original = cli.scenarios.gate_fidelity

        def recording(process, target, seed=None):
            seeds.append(seed)
            return original(process, target, seed=seed)
        monkeypatch.setattr(cli.scenarios, "gate_fidelity", recording)
        cfg = tmp_path / "gate.cfg"
        cfg.write_text("variant = y_closed_loop\ndecoherence = false\n")
        assert cli.main(["gate", "--config", str(cfg), "--seed", "7",
                         "--out", str(tmp_path / "out")]) == 0
        assert seeds and all(seed == 7 for seed in seeds)

    def test_module_entry_point_runs_once(self):
        # the package must not import cli itself, or `python -m holospin.cli`
        # runs the module body twice and warns about it on every run
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "holospin.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "RuntimeWarning" not in done.stderr
