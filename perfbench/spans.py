"""In-memory tracing of holospin's layers from outside the package.

The tracer wraps the public functions of each module at the place where
another module looks them up: a name imported with ``from ... import`` is
replaced in the importing module, and a module reached as an attribute
(``holonomy.geometric_angle_y``) is replaced there by a proxy module with
wrapped functions, so calls inside the defining module stay unwrapped.

Coarse calls (an operation, a gate, a solve, a quadrature) become spans:
name, start, end and parent, kept in memory.  Hot calls (building H, the
darkspace formulas, dense_expm) are too many for one span each; they count
calls and busy time, and add that time to the innermost open span so that
self times stay exact.  Envelope evaluations are counted only.
"""

from __future__ import annotations

import inspect
import types
from contextlib import contextmanager
from time import perf_counter

_SOLVES = ("propagate.lindblad", "propagate.schrodinger")


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list[dict] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.envelope_calls = [0]
        self._stack: list[int] = []
        self._in_leaf = [False]

    def span(self, name, fn, attrs=None):
        """Wrap fn in a span; ``attrs(result)`` adds exact counts to it."""
        def wrapper(*args, **kwargs):
            stack, spans = self._stack, self.spans
            rec = {"name": name, "parent": stack[-1] if stack else None, "leaf_s": 0.0,
                   "attrs": {}}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["attrs"]["raised"] = True
                raise
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec["attrs"] = attrs(result)
            return result
        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot fn: calls and busy time, charged to the open span."""
        self.leaf_calls.setdefault(name, 0)
        self.leaf_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            in_leaf = self._in_leaf
            if in_leaf[0]:          # a leaf reached from a leaf is part of it
                return fn(*args, **kwargs)
            in_leaf[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                in_leaf[0] = False
                self.leaf_calls[name] += 1
                self.leaf_s[name] += elapsed
                self.spans[self._stack[-1]]["leaf_s"] += elapsed
        return wrapper

    def counted(self, fn):
        cell = self.envelope_calls

        def wrapper(pulse, t):
            cell[0] += 1
            return fn(pulse, t)
        return wrapper


def _proxy(module, overrides: dict):
    proxy = types.ModuleType(module.__name__, module.__doc__)
    proxy.__dict__.update(vars(module))
    proxy.__dict__.update(overrides)
    return proxy


def _solve_attrs(traj) -> dict:
    return {"rhs_evals": int(traj.meta["n_rhs_evals"]), "snapshots": int(len(traj.times))}


@contextmanager
def installed(tracer: Tracer, hs):
    """Install the wrappers on the holospin package ``hs``; undo them on exit."""
    cli, darkspace, holonomy, model = hs.cli, hs.darkspace, hs.holonomy, hs.model
    propagate, pulses, qcore, scenarios = hs.propagate, hs.pulses, hs.qcore, hs.scenarios
    t = tracer

    build_h = {n: t.leaf("model.build_h", getattr(model, n)) for n in ("build_h_y", "build_h_z")}
    quads = {n: t.span("holonomy.quad", getattr(holonomy, n),
                       lambda r: {"neval": int(r.grid_points)})
             for n in ("geometric_angle_y", "geometric_phase_z")}
    dark = {n: t.leaf("darkspace", f) for n, f in vars(darkspace).items()
            if inspect.isfunction(f) and f.__module__ == darkspace.__name__
            and not n.startswith("_")}
    expm = t.leaf("qcore.dense_expm", qcore.dense_expm)
    schrodinger = t.span("propagate.schrodinger", propagate.schrodinger_propagate, _solve_attrs)
    fidelity = t.span("scenarios.gate_fidelity", scenarios.gate_fidelity)
    simulate = t.span("scenarios.simulate_gate", scenarios.simulate_gate)

    patches = [
        (scenarios, "build_h_y", build_h["build_h_y"]),
        (scenarios, "build_h_z", build_h["build_h_z"]),
        (cli, "build_h_y", build_h["build_h_y"]),
        (cli, "build_h_z", build_h["build_h_z"]),
        (scenarios, "lindblad_propagate",
         t.span("propagate.lindblad", propagate.lindblad_propagate, _solve_attrs)),
        (scenarios, "schrodinger_propagate", schrodinger),
        (cli, "schrodinger_propagate", schrodinger),
        (cli, "oracle_propagate", t.span("propagate.oracle", propagate.oracle_propagate)),
        (propagate, "dense_expm", expm),
        (scenarios, "gate_fidelity", fidelity),
        (scenarios, "holonomy", _proxy(holonomy, quads)),
        (cli, "holonomy", _proxy(holonomy, quads)),
        (holonomy, "darkspace", _proxy(darkspace, dark)),
        (cli, "darkspace", _proxy(darkspace, dark)),
        (cli, "qcore", _proxy(qcore, {"dense_expm": expm})),
        (cli, "scenarios", _proxy(scenarios, {"simulate_gate": simulate,
                                              "gate_fidelity": fidelity})),
    ]
    for cls in (pulses.GaussianPulse, pulses.TwoPartPulse, pulses.ConstantPulse):
        patches += [(cls, "__call__", t.counted(cls.__call__)),
                    (cls, "derivative", t.counted(cls.derivative))]

    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, new in patches:
            setattr(owner, name, new)
        yield tracer
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus child spans minus hot-call time charged to the span."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - child[i] - rec["leaf_s"] for i, rec in enumerate(spans)]


def records(spans: list[dict], first_id: int, round_no: int) -> list[dict]:
    """The spans of one traced round as flat records for the span file; each
    names the operation (its root ``cli`` span) it belongs to."""
    own = self_times(spans)
    root: list[int] = []
    out = []
    for i, rec in enumerate(spans):
        root.append(i if rec["parent"] is None else root[rec["parent"]])
        out.append({"id": first_id + i, "round": round_no, "name": rec["name"],
                    "op": spans[root[i]]["attrs"].get("op"),
                    "parent": None if rec["parent"] is None else first_id + rec["parent"],
                    "start": rec["start"], "end": rec["end"], "self_s": own[i],
                    "attrs": rec["attrs"]})
    return out


def _under(spans: list[dict], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times of everything traced since the last reset."""
    spans = tracer.spans
    own = self_times(spans)

    def total(name, key=None, where=None):
        return sum((rec["attrs"].get(key, 0) if key else rec["end"] - rec["start"])
                   for i, rec in enumerate(spans)
                   if rec["name"] in name and (where is None or where(i)))

    def count(name, where=None):
        return sum(1 for i, rec in enumerate(spans)
                   if rec["name"] in name and (where is None or where(i)))

    in_gate = lambda i: _under(spans, i, "scenarios.simulate_gate")
    gates = count(("scenarios.simulate_gate",))
    rhs = total(_SOLVES, "rhs_evals")
    return {
        "model.build_h.calls": tracer.leaf_calls["model.build_h"],
        "model.build_h.s": tracer.leaf_s["model.build_h"],
        "propagate.solves": count(_SOLVES),
        "propagate.rhs_evals": rhs,
        "propagate.self_s": sum(own[i] for i, rec in enumerate(spans)
                                if rec["name"].startswith("propagate.")),
        "propagate.us_per_rhs": 1e6 * total(_SOLVES) / rhs if rhs else 0.0,
        "propagate.snapshots": total(_SOLVES, "snapshots"),
        "propagate.oracle.s": total(("propagate.oracle",)),
        "scenarios.simulate_gate.s": total(("scenarios.simulate_gate",)),
        "scenarios.solves_per_gate": count(_SOLVES, in_gate) / gates if gates else 0.0,
        "scenarios.gate_fidelity.calls": count(("scenarios.gate_fidelity",)),
        "scenarios.gate_fidelity.s": total(("scenarios.gate_fidelity",)),
        "holonomy.quad.calls": count(("holonomy.quad",)),
        "holonomy.quad.neval": total(("holonomy.quad",), "neval"),
        "holonomy.quad.s": total(("holonomy.quad",)),
        "holonomy.quads_per_gate": count(("holonomy.quad",), in_gate) / gates if gates else 0.0,
        "darkspace.calls": tracer.leaf_calls["darkspace"],
        "darkspace.s": tracer.leaf_s["darkspace"],
        "pulses.envelope.calls": tracer.envelope_calls[0],
        "qcore.dense_expm.calls": tracer.leaf_calls["qcore.dense_expm"],
        "qcore.dense_expm.s": tracer.leaf_s["qcore.dense_expm"],
        "cli.self_s": sum(own[i] for i, rec in enumerate(spans) if rec["name"] == "cli"),
    }


EXACT_COUNTS = ("model.build_h.calls", "propagate.solves", "propagate.rhs_evals",
                "propagate.snapshots", "scenarios.gate_fidelity.calls", "holonomy.quad.calls",
                "holonomy.quad.neval", "darkspace.calls", "pulses.envelope.calls",
                "qcore.dense_expm.calls")
