"""The benchmark tracer (perfbench/spans.py) patches holospin functions by
name in the modules that use them; a refactor that drops one of those names
breaks traced benchmark runs, so the contract is checked here."""

from pathlib import Path

import holospin
import holospin.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    owners = [holospin.cli, holospin.scenarios, holospin.propagate, holospin.holonomy,
              holospin.pulses.Envelope]
    before = [dict(vars(owner)) for owner in owners]
    with spans.installed(spans.Tracer(), holospin):
        assert holospin.scenarios.lindblad_propagate is not before[1]["lindblad_propagate"]
        assert holospin.cli.scenarios is not holospin.scenarios
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner


def test_tracer_sees_validate(monkeypatch, tmp_path):
    # validate's checks look up build_h_*, qcore and the oracle in cli, where
    # the tracer patches them; checks moved elsewhere would count nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    with spans.installed(tracer, holospin):
        tracer.span("cli", holospin.cli.main)(["validate", "--out", str(tmp_path)])
    metrics = spans.layer_metrics(tracer)
    assert metrics["model.build_h.calls"] > 0
    assert metrics["qcore.dense_expm.calls"] > 0
    assert [s["name"] for s in tracer.spans].count("propagate.oracle") == 1
