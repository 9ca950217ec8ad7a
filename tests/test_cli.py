import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from holospin import cli, holonomy, propagate, pulses, qcore, scenarios
from holospin.model import ModelParams, build_h_y, build_h_z

README = Path(__file__).resolve().parents[1] / "README.md"

MODEL_KEYS = {"delta_rad_per_ps", "detuning_rad_per_ps", "gamma_per_ps", "gamma_hh_per_ps",
              "gamma_ee_per_ps"}
# exactly the keys that change each scenario's output
EXPECTED_KEYS = {
    "init": MODEL_KEYS | {"polarization", "rabi_per_ps", "duration_ps", "record_stride_ps"},
    "readout": MODEL_KEYS | {"input_state", "rabi_per_ps", "duration_ps"},
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
                                                  "sphere_points", "rel_tol"]]


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
        assert sum(len(keys) for keys in EXPECTED_KEYS.values()) == 41

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

        def capture(variant, run, with_decoherence):
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
    ("z_fractional", "target_angle_rad"), ("z_fractional", "detuning_rad_per_ps"),
    ("x_composite", "target_angle_rad"),
]
# and the keys that a variant run with decoherence = false never reads besides
COHERENT_IGNORED = [(variant, key) for variant in cli.scenarios.VARIANTS
                    for key in ("gamma_per_ps", "gamma_hh_per_ps", "gamma_ee_per_ps")]


def _assert_rejected(text, variant, key, line, tmp_path):
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(text, "gate")
    assert repr(key) in str(info.value) and repr(variant) in str(info.value)
    assert f"line {line}" in str(info.value)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


class TestVariantKeys:
    @pytest.mark.parametrize("variant,key", VARIANT_IGNORED)
    def test_key_the_variant_ignores_is_rejected(self, variant, key, tmp_path):
        _assert_rejected(f"variant = {variant}\n{key} = 0.3\n", variant, key, 2, tmp_path)

    @pytest.mark.parametrize("variant,key", VARIANT_IGNORED + COHERENT_IGNORED)
    def test_key_the_coherent_run_ignores_is_rejected(self, variant, key, tmp_path):
        text = f"variant = {variant}\ndecoherence = false\n{key} = 0.3\n"
        _assert_rejected(text, variant, key, 3, tmp_path)

    @pytest.mark.parametrize("variant", ["y_closed_loop", "z_fractional", "x_composite"])
    def test_values_hold_only_the_keys_the_variant_reads(self, variant):
        for mode, ignored_pairs in (("true", VARIANT_IGNORED),
                                    ("false", VARIANT_IGNORED + COHERENT_IGNORED)):
            config = cli.parse_config(f"variant = {variant}\ndecoherence = {mode}\n", "gate")
            ignored = {key for v, key in ignored_pairs if v == variant}
            assert set(config.values) == EXPECTED_KEYS["gate"] - ignored
            assert set(config.defaults_used) == set(config.values) - {"variant", "decoherence"}

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
        values = cli.parse_config(f"variant = {variant}\n", "gate").values
        for key, (_, name) in cli._GATE_KEYS.items():
            if key in values:
                assert values[key] == getattr(run, name), key

    @pytest.mark.parametrize("scenario", ["init", "readout", "gate", "sweep-gamma", "validate"])
    def test_model_defaults_are_model_params(self, scenario):
        # one source: every model key defaults to its field of ModelParams()
        config = cli.parse_config("", scenario)
        assert config.model == ModelParams()
        for key, (_, name) in cli._MODEL_KEYS.items():
            if key in config.values:
                assert config.values[key] == getattr(ModelParams(), name), key

    def test_sweep_and_validate_defaults_are_the_reference_runs(self):
        # sweep-gamma reads the z reference run; validate reads the y one,
        # whose pump and driving peaks equal its Stokes peak
        y_run, z_run = (cli.scenarios.default_gate_run(v) for v in ("y_closed_loop",
                                                                     "z_fractional"))
        assert cli.parse_config("", "sweep-gamma").values["amp_stokes"] == z_run.amp
        values = cli.parse_config("", "validate").values
        assert values["tau_ps"] == y_run.tau
        assert values["amp_pump"] == values["amp_stokes"] == values["amp_driving"] == y_run.amp

    @pytest.mark.parametrize("value", ["0", "0.05"])
    def test_rel_tol_out_of_range(self, value, tmp_path, capsys):
        # PropagationSpec rejects the value; init and readout solve exactly
        # and read no rel_tol, so there the key itself is a configuration
        # error, whatever its value
        with pytest.raises(ValueError, match="tolerances"):
            propagate.PropagationSpec(0.0, 50.0, rel_tol=float(value))
        for scenario in ("init", "readout"):
            with pytest.raises(cli.ConfigError, match="line 2: scenario .* does not read "
                                                      "key 'rel_tol'"):
                cli.parse_config(f"duration_ps = 50\nrel_tol = {value}\n", scenario)
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"rel_tol = {value}\n")
            out = tmp_path / "out"
            assert cli.main([scenario, "--config", str(cfg), "--out", str(out)]) == 1
            assert "configuration error" in capsys.readouterr().err
            assert not out.exists()

    def test_sweep_ratio_validation(self):
        with pytest.raises(cli.ConfigError, match="sweep_ratios"):
            cli.parse_config("sweep_ratios = 3,2,1\n", "sweep-beta")
        with pytest.raises(cli.ConfigError, match="40"):
            cli.parse_config("sweep_ratios = 0,64\n", "sweep-beta")

    def test_init_snapshot_bound(self):
        # parsing only: the snapshot grid of a rejected config is never built
        with pytest.raises(cli.ConfigError, match="line 2: record_stride_ps"):
            cli.parse_config("duration_ps = 8000\nrecord_stride_ps = 1e-6\n", "init")
        with pytest.raises(cli.ConfigError, match="record_stride_ps"):
            cli.parse_config("duration_ps = 100000\nrecord_stride_ps = 1\n", "init")
        # one snapshot per stride from t = 0 plus the end point: 100,000 in all
        cli.parse_config("duration_ps = 99999\nrecord_stride_ps = 1\n", "init")
        # a zero stride stores the end points only
        cli.parse_config("duration_ps = 8000\nrecord_stride_ps = 0\n", "init")


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
        # both drives are constant and solved exactly: the record names the
        # method and its steps (init: one per 250 ps stride), and carries no
        # RHS count or tolerance
        for solver, method, steps in ((manifest["solver"], "expm", 4),
                                      (readout["solver"], "expm", 1)):
            assert len(solver) == 1
            assert solver[0]["method"] == method and solver[0]["n_steps"] == steps
            assert not {"n_rhs_evals", "rel_tol", "abs_tol"} & set(solver[0])
            assert solver[0]["trace_drift"] < 1e-12
        assert manifest["environment"] == {"python": ".".join(map(str, sys.version_info[:3])),
                                           "numpy": np.__version__,
                                           "scipy": scipy.__version__}

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
        # each step tried, accepted or rejected, evaluates eleven stage
        # generators, and each accepted one the derivative at its end
        assert all(seg["n_steps"] > 0
                   and 2 + 11 * seg["n_steps"] < seg["n_rhs_evals"] <= 2 + 12 * seg["n_steps"]
                   for seg in segments)
        assert all(seg["abs_tol"] == scenarios.GATE_ABS_TOL for seg in segments)
        assert all(seg["rel_tol"] == propagate.PropagationSpec(0.0, 1.0).rel_tol
                   for seg in segments)

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
        # vanished Stokes and driving fields leave theta free: any theta, 0
        # included, gives a dark frame, and every row still passes
        for i, text in enumerate(("", "amp_stokes = 0\namp_driving = 0\n")):
            out = tmp_path / str(i)
            assert cli.run(cli.parse_config(text, "validate"), out) == 0
            rows = (out / "validate.csv").read_text().splitlines()[1:]
            assert all(",pass," in row for row in rows)
            # the benchmark fingerprints validate by its check -> status map
            assert [row.split(",")[0] for row in rows] == [
                "dark_state_nullity", "connection_oracle", "expm_unitary", "expm_semigroup",
                "scale_invariance_y", "scale_invariance_z", "propagator_cross_oracle"]
            # the cross-oracle row's adaptive solve reports like every other solve
            [solve] = json.loads((out / "manifest.json").read_text())["solver"]
            assert solve["n_rhs_evals"] > 0 and solve["norm_drift"] < 1e-8

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

    def test_starved_z_rule_fails_the_ceiling_check(self, tmp_path, monkeypatch):
        # four and eight nodes cannot resolve the small-delay rows: the sweep
        # still writes every row, and its error ceiling check fails the run
        monkeypatch.setattr(holonomy, "_Z_NODES", 4)
        cfg = tmp_path / "z.cfg"
        cfg.write_text("sweep_ratios = 0.1,1,6.5\n")
        out = tmp_path / "out"
        assert cli.main(["sweep-gamma", "--config", str(cfg), "--out", str(out)]) == 2
        assert len((out / "sweep_gamma.csv").read_text().splitlines()) == 4
        [check] = json.loads((out / "manifest.json").read_text())["checks"]
        assert check["name"] == "quadrature_error_ceiling" and not check["passed"]

    @pytest.mark.parametrize("text", ["tau0_over_tau = 0.2\n", "amp_stokes = 0\n"])
    def test_x_composite_unreachable_quarter_turn(self, text, tmp_path):
        # no pump peak up to amp_stokes tunes the forward angle to pi/4: the
        # error names the variant, the reachable angle and the way out
        config = cli.parse_config("variant = x_composite\n" + text, "gate")
        assert cli.run(config, tmp_path) == 2
        error = json.loads((tmp_path / "manifest.json").read_text())["error"]
        assert "x_composite" in error and "largest reachable angle" in error
        assert "amp_pump" in error and "tau0_over_tau" in error


class TestInvariantChecks:
    """validate's random-sample rows run as array passes over the draws that
    one draw per sample would make."""

    def test_nullity_takes_the_alternating_draws(self, params, monkeypatch):
        # the times of n alternating y, z draws, bit for bit, in one builder
        # call per configuration, and the generator left where they leave it
        y_set = pulses.make_y_pulseset(0.5, 0.5, 0.5, 150.0, 100.0)
        z_set = pulses.make_z_pulseset(0.5, 0.5, 650.0, 100.0, 0.7)
        seen = []
        for name, build in (("build_h_y", build_h_y), ("build_h_z", build_h_z)):
            monkeypatch.setattr(cli, name, lambda t, *rest, build=build: seen.append(t)
                                or build(t, *rest))
        rng, alternating = np.random.default_rng(5), np.random.default_rng(5)
        worst = cli.dark_state_nullity(y_set, z_set, params, rng, 40)
        draws = [alternating.uniform(*ps.window()) for _ in range(40) for ps in (y_set, z_set)]
        assert len(seen) == 2
        assert seen[0].tolist() == draws[0::2] and seen[1].tolist() == draws[1::2]
        assert rng.random() == alternating.random()
        assert 0.0 <= worst < 1e-15

    def test_expm_defects_take_the_loop_matrices_as_stacks(self, monkeypatch):
        # the matrices of n loops of two 5x5 normal draws, exponentiated as
        # three stacks of n, and the generator left where the loops leave it
        made = []
        expm = qcore.dense_expm
        monkeypatch.setattr(qcore, "dense_expm", lambda m: made.append(m) or expm(m))
        rng, loops = np.random.default_rng(6), np.random.default_rng(6)
        unitary, semigroup = cli.expm_defects(rng, 10)
        matrices = []
        for _ in range(10):
            m = loops.normal(size=(5, 5)) + 1j * loops.normal(size=(5, 5))
            matrices.append(0.5 * (m - m.conj().T))
        assert [m.shape for m in made] == [(10, 5, 5)] * 3
        np.testing.assert_array_equal(made[0], 0.7 * np.array(matrices))
        assert rng.random() == loops.random()
        assert unitary < 1e-14 and semigroup < 1e-14


class TestMain:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert cli.main(["init", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["init", "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path)]) == 1

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xffduration_ps = 5000\n")
        out = tmp_path / "out"
        assert cli.main(["init", "--config", str(bad), "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under_a_file"])
    def test_out_that_is_a_file_is_a_config_error(self, below, tmp_path, capsys, monkeypatch):
        # rejected by main before the scenario runs; the file stays as it was
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("the scenario ran"))
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert cli.main(["sweep-beta", "--out", str(taken.joinpath(*below))]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"
        assert list(tmp_path.iterdir()) == [taken]

    def test_config_with_byte_order_mark_parses_like_one_without(self, tmp_path, monkeypatch):
        # some editors save UTF-8 text with a leading byte-order mark
        configs = []
        monkeypatch.setattr(cli, "run", lambda config, out_dir: configs.append(config) or 0)
        for name, encoding in (("plain.cfg", "utf-8"), ("marked.cfg", "utf-8-sig")):
            cfg = tmp_path / name
            cfg.write_text("variant = z_fractional\ntau_ps = 120\n", encoding=encoding)
            assert cli.main(["gate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "marked.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        assert configs[1] == configs[0]
        assert configs[1].values["variant"] == "z_fractional"

    # the default delta halved: the y configuration's detuning at the
    # midpoint -delta/2, which the z configuration uses
    @pytest.mark.parametrize("scenario,text", [
        ("init", ""), ("readout", ""), ("gate", "variant = y_closed_loop\n"),
        ("gate", "variant = x_composite\n"), ("validate", "")],
        ids=["init", "readout", "y_closed_loop", "x_composite", "validate"])
    def test_midpoint_detuning_is_a_config_error(self, scenario, text, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "detuning_rad_per_ps = -5.08e-4\n")
        out = tmp_path / "out"
        assert cli.main([scenario, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "midpoint" in err
        assert not out.exists()

    def test_sweep_runs_end_to_end(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("sweep_ratios = 0,3\n")
        status = cli.main(["sweep-beta", "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
        assert status == 0
        assert (tmp_path / "out" / "sweep_beta.csv").exists()

    def test_seed_changes_no_output(self, tmp_path):
        # --seed is accepted by gate and read by nothing
        cfg = tmp_path / "gate.cfg"
        cfg.write_text("variant = y_closed_loop\ndecoherence = false\n")
        written = []
        for extra in ([], ["--seed", "7"]):
            out = tmp_path / f"out{len(written)}"
            assert cli.main(["gate", "--config", str(cfg), *extra, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_clock_seconds"]
            written.append(((out / "gate_process.csv").read_bytes(), manifest))
        assert written[0] == written[1]

    @pytest.mark.parametrize("scenario", ["sweep-beta", "init", "validate"])
    def test_seed_on_a_scenario_that_ignores_it_is_rejected(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main([scenario, "--seed", "3", "--out", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_rejected_before_any_solve(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the gate ran")
        monkeypatch.setattr(cli.scenarios, "simulate_gate", no_solve)
        out = tmp_path / "out"
        assert cli.main(["gate", "--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()

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
