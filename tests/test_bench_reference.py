"""The benchmark's evidence reference still reads a dataset's positions.

`bench/reference.py` stacks ``design.positions`` group by group to get the
OU gaps that cli-compare's accuracy check integrates over.  This test
builds its `Integrand` on an OU dataset read from a shuffled CSV with
ragged, irregularly spaced groups and checks its likelihood against
`gaussian_loglik`, so a change to the per-group ``positions`` contract
fails here rather than in a benchmark run.
"""

import importlib
import math
from pathlib import Path

import numpy as np

from grouppc import GroupModel, PCPrior, io
from grouppc.corr import internal_to_param
from grouppc.inference import gaussian_loglik, solve_psi

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_reference_integrand_matches_gaussian_loglik_on_read_positions(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    rng = np.random.default_rng(31)
    rows = []
    sizes = (1, 4, 2, 7, 1, 5, 3)
    for j, m in enumerate(sizes):
        pos = 2.0 + np.cumsum(rng.uniform(0.2, 2.5, m))
        for p in pos:
            rows.append(f"{rng.normal():.17g},T{j},{p:.17g},"
                        f"{rng.normal():.17g}")
    order = rng.permutation(len(rows))
    path = tmp_path / "ou.csv"
    path.write_text("y,transect,pos,x1\n"
                    + "".join(rows[i] + "\n" for i in order), encoding="utf-8")
    dataset = io.read_dataset(path, covariate_names=("x1",),
                              group_column="transect", pos_column="pos")
    assert sorted(dataset.design.group_sizes) == sorted(sizes)
    model = GroupModel("ou")
    prior = PCPrior.from_quantile(model, dataset.design, 0.5, 0.5)
    integrand = reference.Integrand(dataset, "ou", prior,
                                    solve_psi(1 / 0.31, 0.01))
    gaps = np.concatenate([np.diff(p) for p in dataset.design.positions])
    assert np.array_equal(integrand.gaps, gaps)
    for t, s in ((0.3, -1.2), (-0.8, 0.4), (1.1, 1.5)):
        ours = float(integrand.loglik(t, s)[0, 0])
        theirs = gaussian_loglik(dataset, model, internal_to_param(model, s),
                                 math.exp(t))
        assert math.isclose(ours, theirs, rel_tol=1e-10), (t, s, ours, theirs)
