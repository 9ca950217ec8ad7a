"""Batch front end: flat key=value configs, scenario dispatch, CSV output,
and a reproducibility manifest.

Scenarios: init, sweep-beta, sweep-gamma, gate, readout, validate.

Config files are flat ``key = value`` lines ('#' starts a comment).  Each
scenario has its own key table (``SCENARIO_KEYS``) that holds exactly the
keys that change its output; a model key defaults to its field of
``ModelParams()``, a gate key to that of the variant's reference
``GateRun``.  A gate variant drops the gate keys it never reads.  Any
other key, any out-of-range value and any model ``ModelParams`` rejects
is a configuration error.  CSV output uses 12 significant digits so
doubles round-trip losslessly.

Exit codes: 0 success, 1 configuration error, 2 physics-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import darkspace, holonomy, qcore, scenarios
from .model import ModelParams, build_h_y, build_h_z, drive_y, drive_z
from .propagate import PropagationSpec, oracle_propagate, schrodinger_propagate
from .pulses import make_y_pulseset, make_z_pulseset
from .qcore import DIM, IDX_ONE


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("value must be finite")
    return x


def _parse_ratio_list(text: str) -> tuple:
    return scenarios.check_sweep_ratios(_finite(part) for part in text.split(","))


def _positive(text: str) -> float:
    x = _finite(text)
    if x <= 0.0:
        raise ValueError("value must be positive")
    return x


def _non_negative(text: str) -> float:
    x = _finite(text)
    if x < 0.0:
        raise ValueError("value must be non-negative")
    return x


def _enum(options):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return convert


def _variant_default(attr: str):
    """Default taken from the chosen gate variant's reference run."""
    return lambda values: getattr(scenarios.default_gate_run(values["variant"]), attr)


# model key -> (converter, ModelParams field), defaulting to that of ModelParams()
_MODEL_KEYS = {
    "delta_rad_per_ps": (_positive, "delta"),
    "detuning_rad_per_ps": (_finite, "detuning"),
    "gamma_per_ps": (_non_negative, "gamma"),
    "gamma_hh_per_ps": (_non_negative, "gamma_hh"),
    "gamma_ee_per_ps": (_non_negative, "gamma_ee"),
}
# gate key -> (converter, GateRun field), defaulting to that of the variant's reference run
_GATE_KEYS = {
    "amp_stokes": (_non_negative, "amp"),
    # None: the variant's rule (amp_stokes, or the quarter-turn tuning of x_composite)
    "amp_pump": (_non_negative, "pump_amp"),
    "tau_ps": (_positive, "tau"),
    "tau0_over_tau": (_non_negative, "tau0_over_tau"),
    "return_delay_over_tau": (_positive, "return_delay_over_tau"),
    "stokes_phase_rad": (_finite, "phase"),
    "target_angle_rad": (_finite, "target_angle"),
}

# Key tables: key -> (converter, default).  A callable default is computed
# from the values resolved before it, in table order.  A scenario's table
# holds exactly the keys that change its output.
_MODEL = {key: (convert, getattr(ModelParams(), name))
          for key, (convert, name) in _MODEL_KEYS.items()}
# the reference runs of the two swept variants, read for the sweep and validate defaults
_Y_RUN = scenarios.default_gate_run("y_closed_loop")
_Z_RUN = scenarios.default_gate_run("z_fractional")
_Y_AMP = (_non_negative, _Y_RUN.amp)  # the y run's pump peak is its amp as well
_RABI = (_non_negative, lambda values: values["gamma_per_ps"])
_RATIOS = (_parse_ratio_list, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
# most snapshots an init run may store (250x the default); its grid is built before the solve
MAX_SNAPSHOTS = 100_000

SCENARIO_KEYS = {
    "init": {
        **_MODEL,
        "polarization": (_enum(("sigma_minus", "sigma_plus")), "sigma_minus"),
        "rabi_per_ps": _RABI,
        "duration_ps": (_positive, 8000.0),
        "record_stride_ps": (_non_negative, lambda values: values["duration_ps"] / 400.0),
    },
    "sweep-beta": {
        "sweep_ratios": _RATIOS,
    },
    "sweep-gamma": {
        "sweep_ratios": _RATIOS,
        "amp_stokes": (_non_negative, _Z_RUN.amp),
        "delta_rad_per_ps": _MODEL["delta_rad_per_ps"],
    },
    "gate": {
        **_MODEL,
        "variant": (_enum(scenarios.VARIANTS), "y_closed_loop"),
        "decoherence": (_parse_bool, True),
        **{key: (convert, _variant_default(name))
           for key, (convert, name) in _GATE_KEYS.items()},
    },
    "readout": {
        **_MODEL,
        "input_state": (_enum(("zero", "one", "mixed")), "one"),
        "rabi_per_ps": _RABI,
        "duration_ps": (_positive, 40000.0),
    },
    "validate": {
        "amp_pump": _Y_AMP,
        "amp_stokes": _Y_AMP,
        "amp_driving": _Y_AMP,
        "tau_ps": (_positive, _Y_RUN.tau),
        "delta_rad_per_ps": _MODEL["delta_rad_per_ps"],
        "detuning_rad_per_ps": _MODEL["detuning_rad_per_ps"],
    },
}
SCENARIOS = tuple(SCENARIO_KEYS)
# Gate keys that a run never reads: setting one is a configuration error.
# The z drive has no one-photon detuning, and a run without decoherence
# reads no decay rate.
_VARIANT_IGNORES = {
    "y_closed_loop": ("stokes_phase_rad",),
    "z_fractional": ("amp_pump", "return_delay_over_tau", "target_angle_rad",
                     "detuning_rad_per_ps"),
    "x_composite": ("target_angle_rad",),
}
_COHERENT_IGNORES = ("gamma_per_ps", "gamma_hh_per_ps", "gamma_ee_per_ps")


@dataclass
class RunConfig:
    """Fully resolved configuration of one run."""

    scenario: str
    values: dict
    # the model keys the scenario reads; the others keep their reference values
    model: ModelParams
    defaults_used: list


def parse_config(text: str, scenario: str) -> RunConfig:
    """Parse a flat key=value document against the scenario's key table."""
    if scenario not in SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    table = SCENARIO_KEYS[scenario]
    provided: dict = {}
    line_of: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in table:
            raise ConfigError(f"line {lineno}: scenario {scenario!r} does not read key "
                              f"{key!r}; its keys are {', '.join(sorted(table))}")
        if key in provided:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        converter, _ = table[key]
        try:
            provided[key] = converter(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
        line_of[key] = lineno

    values = {}
    for key, (_, default) in table.items():
        if key in provided:
            values[key] = provided[key]
        else:
            values[key] = default(values) if callable(default) else default
    if scenario == "gate":
        ignored = _VARIANT_IGNORES[values["variant"]]
        reader = f"gate variant {values['variant']!r}"
        if not values["decoherence"]:
            ignored += _COHERENT_IGNORES
            reader += " without decoherence"
        for key in ignored:
            if key in provided:
                raise ConfigError(f"line {line_of[key]}: {reader} does not read key {key!r}")
            del values[key]
    # init stores one snapshot per stride from t = 0, plus the end point
    if (scenario == "init" and values["record_stride_ps"] > 0.0
            and values["duration_ps"] / values["record_stride_ps"] + 1 > MAX_SNAPSHOTS):
        raise ConfigError(f"line {line_of['record_stride_ps']}: record_stride_ps asks for "
                          f"more than {MAX_SNAPSHOTS} snapshots over duration_ps")
    try:
        model = ModelParams(**{name: values[key] for key, (_, name) in _MODEL_KEYS.items()
                               if key in values})
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    return RunConfig(scenario=scenario, values=values, model=model,
                     defaults_used=sorted(set(values) - set(provided)))


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(part if isinstance(part, str) else _fmt(part) for part in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Scenario bodies; each returns (outputs, checks, extra manifest blocks) and
# may raise for physics failures (mapped to exit code 2).
# ---------------------------------------------------------------------------

def _run_sweep(config: RunConfig, out_dir: Path):
    v = config.values
    ratios = v["sweep_ratios"]
    if config.scenario == "sweep-beta":
        variant, run, name, col = "y_closed_loop", _Y_RUN, "sweep_beta.csv", "beta"
    else:
        variant, name, col = "z_fractional", "sweep_gamma.csv", "gamma_f"
        run = scenarios.default_gate_run(variant, amp=v["amp_stokes"], model=config.model)
    angles, errors = scenarios.sweep_angle(variant, run, ratios)
    _write_csv(out_dir / name, f"tau0_over_tau,{col}_rad,{col}_over_pi,quad_err",
               ((r, a, a / math.pi, e) for r, a, e in zip(ratios, angles, errors)))
    checks = [{"name": "quadrature_error_ceiling",
               "passed": bool(np.all(errors < holonomy.QUAD_ERROR_CEILING)),
               "detail": f"max quadrature error {float(np.max(errors)):.3e} rad"}]
    return [name], checks, {}


def _run_init(config: RunConfig, out_dir: Path):
    v = config.values
    traj, fid = scenarios.run_initialization(v["polarization"], np.diag([0.5, 0.5]),
                                             v["rabi_per_ps"], v["duration_ps"], config.model,
                                             record_stride=v["record_stride_ps"])
    # the populations in level order: |0>, |1>, |a>, |e1>, |e2>
    rows = np.column_stack((traj.times, np.einsum("nii->ni", traj.states).real, fid))
    _write_csv(out_dir / "init.csv", "t_ps,rho00,rho11,rho_aa,rho_e1e1,rho_e2e2,fidelity",
               rows.tolist())
    checks = [{"name": "trace_preserved", "passed": traj.meta["trace_drift"] < 1e-9,
               "detail": f"trace drift {traj.meta['trace_drift']:.3e}"}]
    results = {"preparation_fidelity": float(fid[-1])}
    return ["init.csv"], checks, {"results": results, "solver": [traj.meta]}


def _run_gate(config: RunConfig, out_dir: Path):
    v = config.values
    run = scenarios.default_gate_run(
        v["variant"], model=config.model,
        **{name: v[key] for key, (_, name) in _GATE_KEYS.items() if key in v})
    process, report = scenarios.simulate_gate(v["variant"], run,
                                              with_decoherence=v["decoherence"])
    # a complex block viewed as floats is its entries' (re, im) pairs in row order
    _write_csv(out_dir / "gate_process.csv",
               "input,b00_re,b00_im,b01_re,b01_im,b10_re,b10_im,b11_re,b11_im",
               ((label, *block.ravel().view(float)) for label, block in process.items()))
    checks = [{"name": "leakage", "passed": report.leakage_final <= scenarios.LEAKAGE_BOUND,
               "detail": f"worst final leakage {report.leakage_final:.3e}"}]
    for warning in report.warnings:
        checks.append({"name": "warning", "passed": True, "detail": warning})
    # numbers without a pass/fail bound go to the manifest as results
    results = {"fidelity": report.fidelity,
               "fidelity_dark_subspace": report.fidelity_dark_subspace,
               "angle_quadrature": report.angle_quadrature,
               "frame_phase": report.frame_phase,
               "prediction_overlap": report.prediction_overlap}
    return ["gate_process.csv"], checks, {"results": results, "solver": report.solver_stats}


def _run_readout(config: RunConfig, out_dir: Path):
    v = config.values
    blocks = {
        "zero": np.diag([1.0, 0.0]).astype(complex),
        "one": np.diag([0.0, 1.0]).astype(complex),
        "mixed": np.diag([0.5, 0.5]).astype(complex),
    }
    result = scenarios.run_readout(blocks[v["input_state"]], v["duration_ps"],
                                   config.model, rabi=v["rabi_per_ps"])
    path = out_dir / "readout.csv"
    _write_csv(path,
               "input,expected_photons,driven_population_left,shelving_complete",
               [(v["input_state"], result.total_photons, result.driven_population_left,
                 "true" if result.shelving_complete else "false")])
    checks = [{"name": "shelving_complete", "passed": result.shelving_complete,
               "detail": f"driven population left {result.driven_population_left:.3e}"}]
    return ["readout.csv"], checks, {"solver": result.solver_stats}


# ---------------------------------------------------------------------------
# Invariant checks, shared by validate and the tests.  Each returns its worst
# deviation and applies no bound; the caller picks the seed, the sample count
# and the bound.  They reach build_h_*, darkspace, holonomy, qcore and the
# propagators through this module's globals when they run, which is where
# the benchmark tracer patches them.
# ---------------------------------------------------------------------------

def dark_state_nullity(y_set, z_set, params: ModelParams, rng, n: int) -> float:
    """Worst ||H d|| / (1 + max|H|) over both dark states at n random times
    of each protocol, each set over its window, all times of a protocol in
    one array.  The times are drawn in (y, z) pairs, as n alternating draws
    would give them."""
    (y_lo, y_hi), (z_lo, z_hi) = y_set.window(), z_set.window()
    t_y, t_z = rng.uniform([y_lo, z_lo], [y_hi, z_hi], size=(n, 2)).T

    def scaled_residual(h, pair):
        return np.max(darkspace.darkness_residual(h, pair), axis=-1) / (
            1.0 + np.max(np.abs(h), axis=(-2, -1)))

    om_p, om_s, om_d = y_set.pump(t_y), y_set.stokes(t_y), y_set.driving(t_y)
    pair = darkspace.dark_states_y(darkspace.mixing_theta(om_s, om_d),
                                   darkspace.mixing_phi_y(om_p, om_s, om_d))
    worst_y = scaled_residual(build_h_y(t_y, y_set, params), pair)
    om_s, om_d = z_set.stokes(t_z), z_set.driving(t_z)
    pair = darkspace.dark_states_z(darkspace.mixing_theta(om_s, om_d),
                                   darkspace.mixing_phi_z(params.delta, om_s, om_d),
                                   z_set.stokes_phase)
    worst_z = scaled_residual(build_h_z(t_z, z_set, params), pair)
    return float(max(np.max(worst_y, initial=0.0), np.max(worst_z, initial=0.0)))


def connection_deviation(rng, n: int) -> float:
    """Worst deviation of the Richardson-extrapolated finite-difference
    connection of the y dark pair from the analytic one, at n random
    (theta, phi), drawn as one (n, 2) array and taken in one pass."""
    theta, phi = rng.uniform(0.05, math.pi / 2 - 0.05, (n, 2)).T
    basis = lambda th: darkspace.dark_states_y(th, phi)
    coarse = darkspace.connection_numeric(basis, theta, 1e-3)
    fine = darkspace.connection_numeric(basis, theta, 5e-4)
    extrap = (4.0 * fine - coarse) / 3.0
    return float(np.max(np.abs(extrap - darkspace.connection_y(phi)), initial=0.0))


def expm_defects(rng, n: int) -> tuple[float, float]:
    """Worst unitarity and semigroup defects of dense_expm on n random
    anti-Hermitian 5x5 matrices, each exponential taken over the stack of
    all n, as the oracle takes its steps'."""
    parts = rng.normal(size=(n, 2, DIM, DIM))
    m = parts[:, 0] + 1j * parts[:, 1]
    m = 0.5 * (m - m.conj().swapaxes(-1, -2))
    u = qcore.dense_expm(0.7 * m)
    unitary = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(DIM))
    semigroup = np.abs(qcore.dense_expm(0.3 * m) @ qcore.dense_expm(0.4 * m) - u)
    return float(np.max(unitary, initial=0.0)), float(np.max(semigroup, initial=0.0))


def _scaled(pulses, k: float):
    """The pulse set with every envelope amplitude multiplied by k."""
    return replace(pulses, **{name: replace(env, amplitude=k * env.amplitude)
                              for name, env in (("pump", pulses.pump),
                                                ("stokes", pulses.stokes),
                                                ("driving", pulses.driving))})


def scale_shift(angle_of, pulses, params: ModelParams, scales) -> float:
    """Worst shift of the angle ``angle_of(pulses, params)`` when every
    amplitude and the Zeeman splitting are scaled by k, for each k in
    scales.  The z phase depends on amp / delta, the y angle on amplitude
    ratios alone (it reads no splitting), so either shift is quadrature
    error."""
    base = angle_of(pulses, params)
    return max(abs(angle_of(_scaled(pulses, k), replace(params, delta=k * params.delta)) - base)
               for k in map(float, scales))


def cross_oracle_deviation(template, pulses, params: ModelParams, window) -> tuple:
    """Largest amplitude difference max |oracle - adaptive| of |1> propagated
    over the window, and the adaptive solve's ``Trajectory.meta``: the
    adaptive solve (rel_tol 1e-10) takes the drive template, the exponential
    oracle builds H element-wise, so the two share no construction of H(t).
    The oracle's coarse step min(tau_min / 100, 0.5 / omega), for the
    narrowest width and the largest of the peaks, |detuning| and
    |detuning + delta|, resolves the envelopes and H's fastest frequency; it
    is 1.0 ps at the reference point, where the oracle's own error (5.4e-11)
    sits below the adaptive solve's (6.0e-11)."""
    envelopes = (pulses.pump, pulses.stokes, pulses.driving)
    omega = max(*(envelope.amplitude for envelope in envelopes), abs(params.detuning),
                abs(params.detuning + params.delta))
    dt = min(min(envelope.width for envelope in envelopes) / 100.0, 0.5 / omega)
    build_h = {drive_y: build_h_y, drive_z: build_h_z}[template]
    psi0 = qcore.basis_state(IDX_ONE)
    spec = PropagationSpec(window[0], window[1], rel_tol=1e-10)
    adaptive = schrodinger_propagate(template(pulses, params), psi0, spec)
    oracle = oracle_propagate(lambda t: -1j * build_h(t, pulses, params), psi0, dt,
                              window[0], window[1])
    return float(np.max(np.abs(oracle - adaptive.final()))), adaptive.meta


def _run_validate(config: RunConfig, out_dir: Path):
    """Fast invariant suite; any failed row flips the exit to 2."""
    v = config.values
    params = config.model
    rng = np.random.default_rng(20240811)
    tau = v["tau_ps"]
    y_set = make_y_pulseset(v["amp_pump"], v["amp_stokes"], v["amp_driving"],
                            _Y_RUN.tau0_over_tau * tau, tau)
    z_set = make_z_pulseset(v["amp_stokes"], v["amp_driving"], _Z_RUN.tau0_over_tau * tau,
                            tau, 0.7)
    nullity = dark_state_nullity(y_set, z_set, params, rng, 200)
    connection = connection_deviation(rng, 20)
    unitary, semigroup = expm_defects(rng, 10)
    shift_y = scale_shift(lambda pulses, _: holonomy.geometric_angle_y(pulses).angle,
                          y_set, params, rng.uniform(0.2, 5.0, 10))
    shift_z = scale_shift(lambda pulses, model: holonomy.geometric_phase_z(pulses, model).angle,
                          z_set, params, rng.uniform(0.2, 5.0, 10))
    short = make_y_pulseset(v["amp_pump"], v["amp_stokes"], v["amp_driving"], 0.5 * tau, tau)
    deviation, solver = cross_oracle_deviation(drive_y, short, params, short.window(margin=4.0))
    rows = [
        ("dark_state_nullity", nullity, 1e-10, f"worst scaled residual {nullity:.3e}"),
        ("connection_oracle", connection, 1e-8,
         f"worst extrapolated deviation {connection:.3e}"),
        ("expm_unitary", unitary, 1e-10, f"worst unitarity defect {unitary:.3e}"),
        ("expm_semigroup", semigroup, 1e-10, f"worst semigroup defect {semigroup:.3e}"),
        ("scale_invariance_y", shift_y, 1e-9, f"worst angle shift {shift_y:.3e} rad"),
        ("scale_invariance_z", shift_z, 1e-9, f"worst angle shift {shift_z:.3e} rad"),
        ("propagator_cross_oracle", deviation, 1e-6,
         f"largest amplitude difference {deviation:.3e}"),
    ]
    checks = [{"name": name, "passed": bool(value < bound), "detail": detail}
              for name, value, bound, detail in rows]
    _write_csv(out_dir / "validate.csv", "check,status,detail",
               [(c["name"], "pass" if c["passed"] else "FAIL", c["detail"].replace(",", ";"))
                for c in checks])
    return ["validate.csv"], checks, {"solver": [solver]}


_SCENARIO_RUNS = {"init": _run_init, "sweep-beta": _run_sweep, "sweep-gamma": _run_sweep,
                  "gate": _run_gate, "readout": _run_readout, "validate": _run_validate}


def run(config: RunConfig, out_dir: Path) -> int:
    """Execute one scenario; always writes a manifest, even on failure."""
    started = time.time()
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    checks: list[dict] = []
    extra: dict = {}
    status = 0
    error = None
    try:
        outputs, checks, extra = _SCENARIO_RUNS[config.scenario](config, out_dir)
        if any(not c["passed"] for c in checks):
            status = 2
    except (ValueError, ArithmeticError) as exc:
        error = str(exc)
        status = 2

    manifest = {
        "artifact_version": __version__,
        # the versions that made the numbers
        "environment": {"python": ".".join(map(str, sys.version_info[:3])),
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "scenario": config.scenario,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(config.values.items())},
        "defaults_used": config.defaults_used,
        "outputs": outputs + ["manifest.json"],
        "checks": checks,
        **extra,
        "error": error,
        "wall_clock_seconds": round(time.time() - started, 3),
        "exit_status": status,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holospin",
        description="Five-level hole-spin holonomic control simulator")
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value configuration file")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="gate only: a non-negative integer, accepted so that "
                             "existing gate command lines keep working; it changes "
                             "no output")
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and (args.scenario != "gate" or args.seed < 0):
            raise ConfigError("--seed is accepted only by gate, as a non-negative integer")
        # utf-8-sig drops the byte-order mark that some editors write
        text = args.config.read_text(encoding="utf-8-sig") if args.config else ""
        config = parse_config(text, args.scenario)
        # an --out that is a file, or lies under one, fails here, before any solve
        args.out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    status = run(config, args.out)
    if status != 0:
        print(f"scenario {args.scenario} finished with failures (exit {status}); "
              f"see {args.out / 'manifest.json'}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
