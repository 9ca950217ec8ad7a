"""The benchmark tracer (perfbench/spans.py) patches holospin functions by
name in the modules that use them; a refactor that drops one of those names
breaks traced benchmark runs, so the contract is checked here."""

from pathlib import Path

import holospin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    owners = [holospin.cli, holospin.scenarios, holospin.propagate, holospin.holonomy,
              holospin.pulses.GaussianPulse, holospin.pulses.TwoPartPulse,
              holospin.pulses.ConstantPulse]
    before = [dict(vars(owner)) for owner in owners]
    with spans.installed(spans.Tracer(), holospin):
        assert holospin.scenarios.lindblad_propagate is not before[1]["lindblad_propagate"]
        assert holospin.cli.scenarios is not holospin.scenarios
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner
