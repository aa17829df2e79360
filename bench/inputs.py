"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the program is derived here from the
workload seed, with numpy's generator and the benchmark's own code, so a
seed names one set of inputs whatever version of grouppc is measured.
Design sizes are fixed across seeds (only the order, the gaps and the
values change), so the amount of work per run does not depend on the
seed.  The one file the program writes itself is the `grouppc simulate`
dataset of `cli-compare`, produced by `simulate_argv`.
"""

from __future__ import annotations

import csv

import numpy as np

#: study-small truths, rotated by replicate: (family, parameter)
STUDY_TRUTHS = (("exchangeable", 0.3), ("ar1", 0.5), ("ou", 0.7),
                ("exchangeable", 0.0))
FAMILIES = ("exchangeable", "ar1", "ou")
FIELD_MODELS = ("exchangeable@transect", "ar1@transect", "ou@transect:pos",
                "exchangeable@campaign")


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def transect_sizes(n_transects, max_size=19):
    """Fixed ragged size multiset 1..max_size, singletons included."""
    return np.rint(np.linspace(1, max_size, n_transects)).astype(int)


def field_design(seed, n_transects):
    """Shuffled transect sizes and positions with U(0.4, 1.6) gaps."""
    rng = _rng(seed, 1)
    sizes = rng.permutation(transect_sizes(n_transects))
    positions = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.6, m - 1))])
                 for m in sizes]
    return sizes, positions


def write_field_csv(seed, path, n_transects, n_campaigns, phi=0.7,
                    beta=(1.0, 0.5, -0.3)):
    """Field survey CSV: y, transect, campaign, pos, x1, x2.

    Residuals are a unit-variance OU process along each transect; the
    campaign column groups transects ``n_campaigns`` ways, equally many
    transects per campaign.  Returns the number of rows written.
    """
    sizes, positions = field_design(seed, n_transects)
    rng = _rng(seed, 2)
    campaign = rng.permutation(np.arange(n_transects) % n_campaigns)
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "transect", "campaign", "pos", "x1", "x2"])
        for j, pos in enumerate(positions):
            m = pos.size
            x = rng.standard_normal((m, 2))
            z = rng.standard_normal(m)
            r = np.exp(-phi * np.diff(pos))
            e = np.empty(m)
            e[0] = z[0]
            for i in range(1, m):
                e[i] = r[i - 1] * e[i - 1] + np.sqrt(1 - r[i - 1] ** 2) * z[i]
            y = beta[0] + x @ np.asarray(beta[1:]) + e
            for i in range(m):
                writer.writerow(["%.17g" % y[i], "T%03d" % j,
                                 "C%02d" % campaign[j], "%.17g" % pos[i],
                                 "%.17g" % x[i, 0], "%.17g" % x[i, 1]])
            rows += m
    return rows


def simulate_argv(seed, path, n_groups, group_size=10):
    """`grouppc simulate` flags for the OU file that `grouppc fit` reads."""
    sim_seed = int(_rng(seed, 3).integers(2**31))
    return ["simulate", "--family", "ou", "--n", str(n_groups),
            "--m", str(group_size), "--phi", "0.7", "--pos-jitter", "0.3",
            "--beta", "1.0", "0.5", "--seed", str(sim_seed), "--out", path]


def compare_argv(data, out_dir):
    argv = ["compare", "--data", data, "--out-dir", out_dir]
    for spec in FIELD_MODELS:
        argv += ["--model", spec]
    return argv


def fit_argv(data, out):
    return ["fit", "--family", "ou", "--data", data, "--out", out]


def study_replicates(seed, n_groups=30, group_size=20):
    """One replicate per truth: (family, param, sizes, positions, sim seed).

    Positions are jittered with gaps from U(0.7, 1.3).
    """
    out = []
    for r, (family, param) in enumerate(STUDY_TRUTHS):
        rng = _rng(seed, 4, r)
        gaps = rng.uniform(0.7, 1.3, size=(n_groups, group_size - 1))
        positions = np.concatenate([np.zeros((n_groups, 1)),
                                    np.cumsum(gaps, axis=1)], axis=1)
        out.append((family, param, (group_size,) * n_groups, positions,
                    int(rng.integers(2**31))))
    return out


def prior_sample_seed(seed, k):
    return int(_rng(seed, 5, k).integers(2**31))
