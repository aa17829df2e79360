"""The benchmark's span tracer still finds every name it wraps.

`bench/spans.py` replaces package attributes by name; a renamed or
deleted function would make a traced benchmark run fail with a KeyError.
This test installs the tracer on the package, runs one traced fit and
checks that uninstalling restores every attribute.
"""

import importlib
from pathlib import Path

import grouppc
import grouppc.cli
from grouppc import (
    Family,
    GridConfig,
    GroupModel,
    HyperPriors,
    SimConfig,
    balanced_design,
    solve_psi,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    targets = spans._targets(grouppc)
    before = [owner.__dict__[attr] for owner, attr, _ in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(grouppc)
        for owner, attr, _ in targets:
            assert callable(getattr(owner, attr)), attr
        # calls go through the wrapped module attributes
        model = GroupModel(Family.AR1)
        design = balanced_design(4, 5)
        data = grouppc.simulate.simulate_dataset(
            SimConfig(design=design, model=model, param=0.4, seed=2))
        prior = grouppc.pcprior.PCPrior.from_quantile(model, design, 0.5, 0.5)
        hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
        grouppc.inference.log_marginal_likelihood(
            data, model, hyper, GridConfig(n_tau=21, n_corr=21))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["inference.fit_calls"] == 1
    assert summary["inference.grid_cells"] == 21 * 21
    assert summary["pcprior.from_quantile_calls"] == 1
    assert summary["simulate.simulate_dataset_calls"] == 1
    after = [owner.__dict__[attr] for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(after, before))
