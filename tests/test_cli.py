"""Command-line interface tests.

Exercises every subcommand through `main(argv)` in process, plus one
subprocess run of the module entry point.  Checks exit codes, output
determinism, and that the CLI plumbs flags into the same numbers the
library produces directly.
"""

import builtins
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grouppc import (
    DistanceFunction,
    Family,
    GroupModel,
    GridConfig,
    HyperPriors,
    PCPrior,
    balanced_design,
    io,
    log_marginal_likelihood,
    solve_psi,
)
from grouppc import cli, corr
from grouppc.cli import main

# scaling for exchangeable, n=6, m=50, median ICC 0.5 (frozen)
LAM_650 = 0.051050514146240115
DU_650 = 13.577672862889193


def run(capsys, argv):
    capsys.readouterr()  # drop output of any setup command
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def simulate_csv(tmp_path, name="sim.csv", family="exchangeable", n=30,
                 m=20, rho=0.6, seed=3, extra=()):
    path = str(tmp_path / name)
    argv = ["simulate", "--family", family, "--n", str(n), "--m", str(m),
            "--rho", str(rho), "--seed", str(seed), "--out", path]
    assert main(list(argv) + list(extra)) == 0
    return path


# ---------------------------------------------------------------------------
# prior


def test_prior_prints_scaling_and_writes_grid(tmp_path, capsys):
    out_csv = str(tmp_path / "pg.csv")
    code, out = run(capsys, ["prior", "--family", "exch", "--n", "6",
                             "--m", "50", "--median-icc", "0.5",
                             "--out", out_csv])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"lambda = {LAM_650!r}"
    assert lines[1] == f"d(u) = {DU_650!r}"

    grid = io.read_grid(out_csv)
    assert grid.param.shape == (512,)
    # the emitted cdf column round-trips the median statement
    assert_allclose(np.interp(0.5, grid.param, grid.cdf), 0.5, atol=1e-3)


def test_prior_grid_size_flag(tmp_path, capsys):
    out_csv = str(tmp_path / "pg.csv")
    code, _ = run(capsys, ["prior", "--family", "ar1", "--n", "4",
                           "--m", "9", "--grid-size", "64",
                           "--out", out_csv])
    assert code == 0
    assert io.read_grid(out_csv).param.shape == (64,)


def test_prior_from_data_file(tmp_path, capsys):
    data = simulate_csv(tmp_path)
    code, out = run(capsys, ["prior", "--family", "exchangeable",
                             "--data", data,
                             "--out", str(tmp_path / "pg.csv")])
    assert code == 0
    assert out.startswith("lambda = ")


def test_prior_from_data_reads_no_covariate(tmp_path, capsys):
    # the prior's design needs only the groups: a text column does not stop
    # it, and it scales the prior as on the file without that column
    data = text_column_csv(tmp_path)
    with open(data, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(",".join(r[:2] + r[3:]) for r in rows) + "\n")
    argv = ["prior", "--family", "ar1", "--out", str(tmp_path / "pg.csv"),
            "--data"]
    code, with_text = run(capsys, argv + [data])
    assert code == 0
    code, without = run(capsys, argv + [str(plain)])
    assert code == 0
    assert with_text.splitlines()[0].startswith("lambda = ")
    assert with_text.splitlines()[0] == without.splitlines()[0]
    # prior takes no --covariates flag
    with pytest.raises(SystemExit) as exc:
        main(argv + [data, "--covariates", "x1"])
    assert exc.value.code == 2


def _edit_cell(path, line, column, value):
    """Copy of a CSV with one cell replaced (``line`` counts the header)."""
    with open(path, encoding="utf-8") as fh:
        rows = [r.split(",") for r in fh.read().splitlines()]
    rows[line - 1][rows[0].index(column)] = value
    out = path[:-4] + f"_{column}_{value}.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    return out


def test_prior_from_data_reads_no_y(tmp_path, capsys):
    # the prior's design needs no response: a text y scales it as a number
    data = simulate_csv(tmp_path, n=6, m=5)
    texty = _edit_cell(data, 2, "y", "abc")
    argv = ["prior", "--family", "exchangeable",
            "--out", str(tmp_path / "pg.csv"), "--data"]
    code, numeric = run(capsys, argv + [data])
    assert code == 0
    code, text = run(capsys, argv + [texty])
    assert code == 0
    assert numeric.splitlines()[0].startswith("lambda = ")
    assert numeric.splitlines()[1].startswith("d(u) = ")
    assert text.splitlines()[:2] == numeric.splitlines()[:2]
    # the fit reads y, and names the cell
    assert main(["fit", "--family", "exchangeable", "--data", texty,
                 "--out", str(tmp_path / "f.json")]) == 3
    assert "row 2, column 'y'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_position_is_a_data_error(tmp_path, capsys, value):
    # the last position of the third group; the file line counts the header
    data = simulate_csv(tmp_path, n=6, m=5, extra=("--pos-jitter", "0.2"))
    bad = _edit_cell(data, 16, "pos", value)
    for command, out in (("fit", "f.json"), ("prior", "pg.csv")):
        code = main([command, "--family", "ou", "--data", bad,
                     "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 3, (command, err)
        assert f"row 16, column 'pos': position {value}" in err
        assert "not finite" in err
        assert not (tmp_path / out).exists()


def test_prior_median_icc_zero_is_usage_error(tmp_path, capsys):
    code, _ = run(capsys, ["prior", "--family", "exch", "--n", "6",
                           "--m", "50", "--median-icc", "0",
                           "--out", str(tmp_path / "pg.csv")])
    assert code == 2


def test_prior_median_icc_conflicts_with_u(tmp_path, capsys):
    code, _ = run(capsys, ["prior", "--family", "exch", "--n", "6",
                           "--m", "50", "--median-icc", "0.5",
                           "--u", "0.3",
                           "--out", str(tmp_path / "pg.csv")])
    assert code == 2


@pytest.mark.parametrize("flags, a", [(["--u", "0.3", "--a", "0.4"], 0.4),
                                      (["--u", "0.3"], 0.5)])
def test_prior_u_and_a_state_the_tail_probability(tmp_path, capsys, flags,
                                                 a):
    code, out = run(capsys, ["prior", "--family", "ar1", "--n", "6",
                             "--m", "50", *flags,
                             "--out", str(tmp_path / "pg.csv")])
    assert code == 0
    prior = PCPrior.from_quantile(GroupModel(Family.AR1),
                                  balanced_design(6, 50), 0.3, a)
    assert out.splitlines()[0] == f"lambda = {float(prior.lam)!r}"


@pytest.mark.parametrize("flags, message", [
    (["--n", "6", "--m", "50", "--a", "0.4"], "--a requires --u"),
    ([], "need either --data or both --n and --m"),
    (["--n", "6"], "need either --data or both --n and --m"),
])
def test_prior_usage_errors(tmp_path, capsys, flags, message):
    code = main(["prior", "--family", "exch", *flags,
                 "--out", str(tmp_path / "pg.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pg.csv").exists()


@pytest.mark.parametrize("flags, outside", [
    # both tails past the bracket clamp to one point: the cap took the
    # log of a zero step and the grid came out NaN
    (["--family", "ar1", "--a", "1e-9"], "1.11e-08 of the prior mass below "
     "its smallest distance and 1 above"),
    # 8 equal rows, every cdf 3.9e-11
    (["--family", "ou", "--a", "1e-12", "--grid-size", "8"],
     "3.9e-11 of the prior mass below its smallest distance and 1 above"),
    # the upper tail clamps: 99 % of the mass lay past the last row
    (["--family", "ar1", "--a", "0.001"],
     "0.0001 of the prior mass below its smallest distance and 0.99 above"),
])
def test_prior_refuses_a_grid_that_leaves_the_mass_outside(tmp_path, capsys,
                                                          flags, outside):
    code = main(["prior", "--n", "6", "--m", "50", "--u", "0.5", *flags,
                 "--out", str(tmp_path / "pg.csv")])
    assert code == 4
    assert outside in capsys.readouterr().err
    assert not (tmp_path / "pg.csv").exists()


def test_prior_byte_identical_reruns(tmp_path, capsys):
    argv = ["prior", "--family", "exch", "--n", "6", "--m", "50",
            "--median-icc", "0.5", "--out", str(tmp_path / "pg.csv")]
    code, out1 = run(capsys, argv)
    assert code == 0
    first = (tmp_path / "pg.csv").read_bytes()
    code, out2 = run(capsys, argv)
    assert code == 0
    assert (tmp_path / "pg.csv").read_bytes() == first
    assert out1 == out2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_row_count_and_header(tmp_path):
    path = tmp_path / "sim.csv"
    code = main(["simulate", "--family", "ar1", "--rho", "0.5",
                 "--n", "10", "--m", "30", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 301
    assert lines[0] == "y,group"


def test_simulate_covariates_and_positions(tmp_path):
    path = tmp_path / "sim.csv"
    code = main(["simulate", "--family", "ou", "--phi", "0.7",
                 "--n", "4", "--m", "6", "--beta", "0.5", "1.0",
                 "--pos-jitter", "0.3", "--seed", "9",
                 "--out", str(path)])
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header == "y,group,pos,x1"


def test_simulate_deterministic(tmp_path):
    a = simulate_csv(tmp_path, "a.csv", seed=12)
    b = simulate_csv(tmp_path, "b.csv", seed=12)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_simulate_seed_is_required(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--family", "ar1", "--rho", "0.5",
              "--n", "10", "--m", "30", "--out", str(tmp_path / "s.csv")])
    assert err.value.code == 2
    capsys.readouterr()


def test_simulate_rho_one_is_domain_error(tmp_path, capsys):
    code, _ = run(capsys, ["simulate", "--family", "exchangeable",
                           "--rho", "1.0", "--n", "5", "--m", "4",
                           "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_simulate_phi_only_applies_to_ou(tmp_path, capsys):
    code = main(["simulate", "--family", "exchangeable", "--rho", "0.5",
                 "--phi", "1.0", "--n", "5", "--m", "4",
                 "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "--phi only applies to OU" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--family", "exchangeable", "--phi", "1.0"],
     "exchangeable simulation needs --rho"),
    (["--family", "ou"], "OU simulation needs --phi"),
    (["--family", "ou", "--phi", "1.0", "--rho", "0.5"],
     "--rho does not apply to OU"),
    (["--family", "ar1", "--rho", "0.5", "--pos-jitter", "1"],
     "--pos-jitter must lie in [0, 1)"),
    (["--family", "ar1", "--rho", "0.5", "--pos-jitter", "-0.1"],
     "--pos-jitter must lie in [0, 1)"),
])
def test_simulate_refuses_flags_that_do_not_fit_the_family(tmp_path, capsys,
                                                           flags, message):
    code = main(["simulate", *flags, "--n", "5", "--m", "4", "--seed", "1",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("jitter", [(), ("--pos-jitter", "0.3")])
def test_simulate_negative_seed_is_usage_error(tmp_path, capsys, jitter):
    code = main(["simulate", "--family", "ar1", "--rho", "0.5", "--n", "5",
                 "--m", "4", "--seed", "-1", *jitter,
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: the seed must be nonnegative\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("sizes", [("--n", "5", "--m", "0"),
                                   ("--n", "-2", "--m", "4")])
def test_simulate_jitter_checks_the_sizes_first(tmp_path, capsys, sizes):
    # the jittered run refuses bad sizes as the plain run does, before it
    # draws any gap
    errs = []
    for jitter in ((), ("--pos-jitter", "0.3")):
        code = main(["simulate", "--family", "ar1", "--rho", "0.5", *sizes,
                     *jitter, "--seed", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_simulate_non_finite_sigma2_is_domain_error(tmp_path, capsys, value):
    code, _ = run(capsys, ["simulate", "--family", "exchangeable",
                           "--rho", "0.5", "--sigma2", value, "--n", "5",
                           "--m", "4", "--seed", "1",
                           "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "2e308"])
def test_simulate_non_finite_beta_is_domain_error(tmp_path, capsys, value):
    code, _ = run(capsys, ["simulate", "--family", "exchangeable",
                           "--rho", "0.5", "--beta", "1.0", value,
                           "--n", "5", "--m", "4", "--seed", "1",
                           "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert not (tmp_path / "s.csv").exists()


def test_simulate_overflowing_beta_is_domain_error(tmp_path, capsys):
    # each beta is finite but X beta overflows: a usage error naming beta,
    # with no RuntimeWarning (pytest would raise it)
    code = main(["simulate", "--family", "exchangeable", "--rho", "0.5",
                 "--beta", "1e308", "1e308", "--n", "5", "--m", "4",
                 "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "beta is too large" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_json_summary(tmp_path, capsys):
    data = simulate_csv(tmp_path)
    out_json = str(tmp_path / "fit.json")
    code, out = run(capsys, ["fit", "--family", "exchangeable",
                             "--data", data, "--out", out_json])
    assert code == 0
    assert "exchangeable" in out
    with open(out_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert sorted(payload) == sorted(
        ["log_mlik", "rho", "sigma2", "beta", "diagnostics"])
    assert payload["rho"]["q025"] <= payload["rho"]["mean"] <= \
        payload["rho"]["q975"]


def test_fit_reads_csv_with_byte_order_mark(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF; the header's first
    # name must still read "y"
    plain = simulate_csv(tmp_path, n=8, m=5)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "sim.csv").read_bytes())
    out_json = tmp_path / "fit.json"
    results = []
    for data in (plain, str(marked)):
        code, out = run(capsys, ["fit", "--family", "ar1", "--data", data,
                                 "--out", str(out_json)])
        assert code == 0
        results.append((out, out_json.read_bytes()))
    assert results[1] == results[0]


def test_fit_matches_direct_library_call(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=8, m=5, seed=21)
    out_json = str(tmp_path / "fit.json")
    code, _ = run(capsys, ["fit", "--family", "exchangeable",
                           "--data", data, "--out", out_json])
    assert code == 0
    with open(out_json, encoding="utf-8") as fh:
        cli_mlik = json.load(fh)["log_mlik"]

    dataset = io.read_dataset(data)
    model = GroupModel(Family.EXCHANGEABLE)
    prior = PCPrior.from_quantile(model, dataset.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior,
                        psi=solve_psi(1.0 / 0.31, 0.01))
    fit = log_marginal_likelihood(dataset, model, hyper, grid=GridConfig())
    assert_allclose(cli_mlik, fit.log_mlik, rtol=1e-12)


def test_fit_grid_flag_changes_resolution(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=8, m=5, seed=21)
    out_json = str(tmp_path / "fit.json")
    code, _ = run(capsys, ["fit", "--family", "exchangeable",
                           "--data", data, "--grid", "51x41",
                           "--out", out_json])
    assert code == 0
    with open(out_json, encoding="utf-8") as fh:
        diag = json.load(fh)["diagnostics"]
    assert (diag["n_tau"], diag["n_corr"]) == (51, 41)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_fit_non_finite_sigma_u_is_domain_error(tmp_path, capsys, value):
    data = simulate_csv(tmp_path, n=8, m=5, seed=21)
    code, _ = run(capsys, ["fit", "--family", "exchangeable", "--data", data,
                           "--sigma-u", value,
                           "--out", str(tmp_path / "fit.json")])
    assert code == 2
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("value, message", [
    ("3", "expected NxM"), ("1x1", "at least two nodes")])
def test_fit_refuses_a_malformed_grid_flag(tmp_path, capsys, value, message):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--family", "exchangeable", "--data", "d.csv",
              "--grid", value, "--out", str(tmp_path / "fit.json")])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_fit_linalg_failure_is_a_numeric_error_naming_the_model(
        tmp_path, capsys, monkeypatch):
    data = simulate_csv(tmp_path, n=8, m=5, seed=21)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(cli, "log_marginal_likelihood", failing)
    capsys.readouterr()
    code = main(["fit", "--family", "ar1", "--data", data,
                 "--out", str(tmp_path / "fit.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert "model 'ar1'" in err and "did not converge" in err
    assert not (tmp_path / "fit.json").exists()


def test_fit_data_file_with_a_blank_header_is_a_data_error(tmp_path,
                                                          capsys):
    data = tmp_path / "blank.csv"
    data.write_text("\n")
    code = main(["fit", "--family", "exchangeable", "--data", str(data),
                 "--out", str(tmp_path / "fit.json")])
    assert code == 3
    assert "empty file" in capsys.readouterr().err


def test_fit_missing_file_is_data_error(tmp_path, capsys):
    code, _ = run(capsys, ["fit", "--family", "exchangeable",
                           "--data", str(tmp_path / "nope.csv"),
                           "--out", str(tmp_path / "fit.json")])
    assert code == 3


@pytest.mark.parametrize("header, extra", [
    ("y,group,y", []),
    ("y,group,x1,x1", ["--covariates", "x1"]),
    ("y,group,x1,x1", []),
])
def test_fit_refuses_repeated_column_names(tmp_path, capsys, header, extra):
    # y, the group and any covariate cells; each repeat copies its column
    names = header.split(",")
    rows = [[i % 3, i % 4] + [i * 7 % 5] * (len(names) - 2) for i in range(24)]
    data = tmp_path / "dup.csv"
    data.write_text("\n".join([header] + [",".join(map(str, r))
                                          for r in rows]) + "\n")
    capsys.readouterr()
    code = main(["fit", "--family", "exchangeable", "--data", str(data),
                 "--group-col", "group", "--out", str(tmp_path / "fit.json"),
                 *extra])
    err = capsys.readouterr().err
    assert code == 3
    assert f"header repeats column '{names[-1]}'" in err
    assert not (tmp_path / "fit.json").exists()


def test_fit_ou_needs_positions_or_unit_spacing(tmp_path, capsys):
    data = simulate_csv(tmp_path, family="ar1", rho=0.5, seed=2)
    code, _ = run(capsys, ["fit", "--family", "ou", "--data", data,
                           "--out", str(tmp_path / "fit.json")])
    assert code == 2
    code, _ = run(capsys, ["fit", "--family", "ou", "--data", data,
                           "--unit-spacing",
                           "--out", str(tmp_path / "fit.json")])
    assert code == 0


def test_fit_all_singleton_groups_is_degenerate_scaling(tmp_path, capsys):
    # one row per group: every family sits at its base model, so the
    # prior's anchor has distance 0 and the scaling is refused
    data = simulate_csv(tmp_path, n=8, m=1, rho=0.3)
    for family in (["exchangeable"], ["ar1"], ["ou", "--unit-spacing"]):
        capsys.readouterr()
        code = main(["fit", "--family", *family, "--data", data,
                     "--out", str(tmp_path / "fit.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "degenerate scaling" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "fit.json").exists()


def test_fit_refuses_indefinite_capacitance(tmp_path, capsys, monkeypatch):
    # one flipped diagonal entry makes X'QX indefinite at every node
    data = simulate_csv(tmp_path, n=8, m=5, seed=21)
    real = corr._kernel_and_stats

    def flipped(*args):
        kernel, W = real(*args)
        W[:, -1, -1] *= -1.0
        return kernel, W
    monkeypatch.setattr(corr, "_kernel_and_stats", flipped)
    capsys.readouterr()
    code = main(["fit", "--family", "exchangeable", "--data", data,
                 "--out", str(tmp_path / "fit.json")])
    assert code == 4
    assert "not positive definite" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def text_column_csv(tmp_path):
    """y,group,site,x1,x2 where the text column site is no covariate."""
    rng = np.random.default_rng(7)
    lines = ["y,group,site,x1,x2"]
    for g in range(8):
        for _ in range(5):
            x1, x2 = rng.normal(size=2)
            y = 0.5 + 0.8 * x1 - 0.3 * x2 + rng.normal()
            lines.append(f"{y:.17g},g{g},s{g % 3},{x1:.17g},{x2:.17g}")
    data = tmp_path / "text.csv"
    data.write_text("\n".join(lines) + "\n")
    return str(data)


def test_fit_covariates_flag_names_the_covariates(tmp_path, capsys):
    data = text_column_csv(tmp_path)
    out_json = tmp_path / "fit.json"
    argv = ["fit", "--family", "exchangeable", "--data", data,
            "--out", str(out_json)]
    # without the flag every unclaimed column is a covariate, text included
    capsys.readouterr()
    assert main(argv) == 3
    assert "'site'" in capsys.readouterr().err
    assert not out_json.exists()

    code, _ = run(capsys, argv + ["--covariates", "x1", "x2"])
    assert code == 0
    with open(out_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert [b["name"] for b in payload["beta"]] == ["intercept", "x1", "x2"]
    dataset = io.read_dataset(data, covariate_names=("x1", "x2"))
    model = GroupModel(Family.EXCHANGEABLE)
    hyper = HyperPriors(
        corr_prior=PCPrior.from_quantile(model, dataset.design, 0.5, 0.5),
        psi=solve_psi(1.0 / 0.31, 0.01))
    fit = log_marginal_likelihood(dataset, model, hyper)
    assert_allclose(payload["log_mlik"], fit.log_mlik, rtol=1e-12)

    # no NAME: the intercept alone
    code, _ = run(capsys, argv + ["--covariates"])
    assert code == 0
    with open(out_json, encoding="utf-8") as fh:
        assert [b["name"] for b in json.load(fh)["beta"]] == ["intercept"]

    # an unknown or claimed name is refused and named
    out_json.unlink()
    for names in (["x1", "x3"], ["x1", "group"]):
        capsys.readouterr()
        assert main(argv + ["--covariates", *names]) == 3
        assert repr(names[1]) in capsys.readouterr().err
    assert not out_json.exists()


def test_unknown_family_is_usage_error(tmp_path, capsys):
    code, _ = run(capsys, ["prior", "--family", "weird", "--n", "4",
                           "--m", "5", "--out", str(tmp_path / "pg.csv")])
    assert code == 2


# ---------------------------------------------------------------------------
# compare


def test_compare_single_model_row_has_empty_bf(tmp_path, capsys):
    data = simulate_csv(tmp_path)
    code, out = run(capsys, ["compare", "--data", data,
                             "--model", "exchangeable",
                             "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not
             ln.startswith("wrote")]
    assert len(lines) == 2  # header + one model row
    header, row = lines
    assert header.split() == ["grouping", "model", "rho_q025", "rho_mean",
                              "rho_q975", "log_mlik", "log_bf", "evidence"]
    # best row leaves the Bayes-factor columns blank
    assert len(row.split()) == 6


def test_compare_ranks_true_model_first(tmp_path, capsys):
    data = simulate_csv(tmp_path, rho=0.6, seed=3)
    code, out = run(capsys, ["compare", "--data", data,
                             "--model", "exchangeable", "--model", "ar1",
                             "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln and not
            ln.startswith("wrote")]
    assert rows[0][1] == "exchangeable"
    assert rows[1][1] == "ar1"
    assert rows[1][-1] == "very-strong"
    assert (tmp_path / "cmp" / "fit_1_exchangeable_group.json").exists()
    assert (tmp_path / "cmp" / "fit_2_ar1_group.json").exists()


def multi_grouping_csv(tmp_path):
    """Two grouping columns in one file: y,campaign,transect,pos,x1."""
    rng = np.random.default_rng(99)
    lines = ["y,campaign,transect,pos,x1"]
    t = 0
    for c in range(4):
        for _ in range(3):
            t += 1
            base = rng.normal()
            for p in range(5):
                x1 = rng.normal()
                y = 0.3 + 0.8 * x1 + 0.7 * base + 0.5 * rng.normal()
                lines.append(f"{y:.17g},c{c + 1},t{t},{p:.17g},{x1:.17g}")
    data = tmp_path / "multi.csv"
    data.write_text("\n".join(lines) + "\n")
    return data


def test_compare_across_grouping_factors(tmp_path, capsys):
    # the claimed columns are excluded from the covariates of every fit
    data = multi_grouping_csv(tmp_path)

    code, out = run(capsys, ["compare", "--data", str(data),
                             "--model", "exchangeable@campaign",
                             "--model", "exchangeable@transect",
                             "--model", "ou@transect:pos",
                             "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln and not
            ln.startswith("wrote")]
    assert len(rows) == 3
    assert {r[0] for r in rows} == {"campaign", "transect"}
    # every fit regresses on the same single covariate
    for path in (tmp_path / "cmp").iterdir():
        with open(path, encoding="utf-8") as fh:
            names = [b["name"] for b in json.load(fh)["beta"]]
        assert names == ["intercept", "x1"]


def test_compare_covariates_flag_shares_one_x(tmp_path, capsys):
    data = str(multi_grouping_csv(tmp_path))
    argv = ["compare", "--data", data, "--model", "exchangeable@campaign",
            "--model", "ou@transect:pos", "--out-dir", str(tmp_path / "cmp")]
    code, out = run(capsys, argv)
    assert code == 0
    code, named = run(capsys, argv + ["--covariates", "x1"])
    assert (code, named) == (0, out)
    # a column another model claims as its grouping factor is refused
    capsys.readouterr()
    assert main(argv + ["--covariates", "x1", "transect"]) == 3
    assert "'transect'" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_fit_is_a_one_model_compare(tmp_path, capsys, family):
    data = str(multi_grouping_csv(tmp_path))
    flags = ["--data", data, "--group-col", "transect", "--covariates", "x1"]
    code, fit_out = run(capsys, ["fit", "--family", family, *flags,
                                 "--out", str(tmp_path / "fit.json")])
    assert code == 0
    code, compare_out = run(capsys, ["compare", "--model", family, *flags,
                                     "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    written = tmp_path / "cmp" / f"fit_1_{family}_transect.json"
    assert written.read_bytes() == (tmp_path / "fit.json").read_bytes()
    # the same header and row; only the "wrote" line differs
    assert fit_out.splitlines()[:-1] == compare_out.splitlines()[:-1]
    assert len(fit_out.splitlines()) == 3


def test_compare_opens_the_data_file_once(tmp_path, capsys, monkeypatch):
    data = str(multi_grouping_csv(tmp_path))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == data:
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _ = run(capsys, ["compare", "--data", data,
                           "--model", "exchangeable@campaign",
                           "--model", "exchangeable@transect",
                           "--model", "ar1@transect",
                           "--model", "ou@transect:pos",
                           "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    assert len(list((tmp_path / "cmp").iterdir())) == 4
    assert opened == ["r"]


def test_compare_converts_each_column_once(tmp_path, capsys, monkeypatch):
    # four models on three distinct groupings: y and x1 become numbers
    # once, pos once for its design, and each grouping builds one design
    data = str(multi_grouping_csv(tmp_path))
    converted, designs = [], []
    float_columns, table_design = io._float_columns, io.table_design

    def counting_columns(table, names):
        converted.extend(names)
        return float_columns(table, names)

    def counting_design(table, group_column="group", pos_column=None):
        designs.append((group_column, pos_column))
        return table_design(table, group_column, pos_column)

    monkeypatch.setattr(io, "_float_columns", counting_columns)
    monkeypatch.setattr(io, "table_design", counting_design)
    code, _ = run(capsys, ["compare", "--data", data,
                           "--model", "exchangeable@campaign",
                           "--model", "exchangeable@transect",
                           "--model", "ar1@transect",
                           "--model", "ou@transect:pos",
                           "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    assert len(list((tmp_path / "cmp").iterdir())) == 4
    assert converted == ["y", "x1", "pos"]
    assert designs == [("campaign", None), ("transect", None),
                       ("transect", "pos")]


def test_compare_builds_one_distance_per_model(tmp_path, capsys,
                                                monkeypatch):
    # the model that scales lambda keeps the prior `from_quantile` built
    built = []
    init = DistanceFunction.__init__

    def counting_init(self, model, design):
        built.append(model.family.value)
        init(self, model, design)

    monkeypatch.setattr(DistanceFunction, "__init__", counting_init)
    code, _ = run(capsys, ["compare", "--data",
                           str(multi_grouping_csv(tmp_path)),
                           "--model", "exchangeable@campaign",
                           "--model", "ar1@transect",
                           "--model", "ou@transect:pos",
                           "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    assert built == ["exchangeable", "ar1", "ou"]


def test_compare_number_error_names_the_first_model(tmp_path, capsys):
    # the first spec's design comes before the numbers, so a bad cell is
    # reported against the first model, and a later model's design error
    # is never reached
    data = tmp_path / "bad.csv"
    data.write_text("y,group,pos,x1\n1,a,0,0.5\n2,a,1,oops\n3,b,0,0.1\n"
                    "4,b,1,0.2\n")
    code = main(["compare", "--data", str(data), "--model", "exchangeable",
                 "--model", "ar1@nosuch", "--out-dir", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == 3
    assert "model 'exchangeable'" in err and "'oops'" in err


@pytest.mark.parametrize("spec", ["ou@", "ou@:pos", "ou@group:"])
def test_compare_refuses_an_empty_column_in_a_model_spec(tmp_path, capsys,
                                                         spec):
    data = simulate_csv(tmp_path, n=6, m=5, extra=("--pos-jitter", "0.2"))
    with pytest.raises(SystemExit) as err:
        main(["compare", "--data", data, "--model", spec,
              "--out-dir", str(tmp_path / "cmp")])
    assert err.value.code == 2
    assert f"empty column name in model spec {spec!r}" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_table_sorted_by_evidence(tmp_path, capsys):
    data = simulate_csv(tmp_path, rho=0.6, seed=3)
    code, out = run(capsys, ["compare", "--data", data,
                             "--model", "ar1", "--model", "exchangeable",
                             "--out-dir", str(tmp_path / "cmp")])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln and not
            ln.startswith("wrote")]
    mliks = [float(r[5]) for r in rows]
    assert mliks == sorted(mliks, reverse=True)


def test_compare_failure_names_the_model(tmp_path, capsys):
    data = simulate_csv(tmp_path, family="ar1", rho=0.5, seed=2)
    code = main(["compare", "--data", data, "--model", "exchangeable",
                 "--model", "ou", "--out-dir", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == 2
    assert "'ou'" in err


def test_compare_refuses_fits_under_different_priors(tmp_path, capsys,
                                                    monkeypatch):
    # the second fit runs under a doubled psi, so its prior fingerprint
    # differs from the first fit's
    data = simulate_csv(tmp_path, rho=0.6, seed=3)
    fit = cli.log_marginal_likelihood
    calls = []

    def drifting(dataset, model, hyper, grid):
        calls.append(model)
        if len(calls) > 1:
            hyper = HyperPriors(corr_prior=hyper.corr_prior,
                                psi=2.0 * hyper.psi)
        return fit(dataset, model, hyper, grid=grid)

    monkeypatch.setattr(cli, "log_marginal_likelihood", drifting)
    capsys.readouterr()
    code = main(["compare", "--data", data, "--model", "exchangeable",
                 "--model", "ar1", "--out-dir", str(tmp_path / "cmp")])
    out, err = capsys.readouterr()
    assert len(calls) == 2
    assert code == 3
    assert "log_bf" not in out
    assert "prior fingerprint" in err
    assert not (tmp_path / "cmp").exists()


def test_compare_needs_a_model(tmp_path, capsys):
    data = simulate_csv(tmp_path)
    code, _ = run(capsys, ["compare", "--data", data,
                           "--out-dir", str(tmp_path / "cmp")])
    assert code == 2


# ---------------------------------------------------------------------------
# process entry point


def test_module_entry_point_runs(tmp_path, cli_env):
    out_csv = tmp_path / "pg.csv"
    result = subprocess.run(
        [sys.executable, "-m", "grouppc.cli", "prior", "--family", "exch",
         "--n", "6", "--m", "50", "--median-icc", "0.5",
         "--out", str(out_csv)],
        env=cli_env, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == f"lambda = {LAM_650!r}"
    assert out_csv.exists()


def test_cli_import_leaves_scipy_integrate_unloaded(cli_env):
    # the package evaluates its special functions in numpy and keeps scipy
    # as a test oracle, so neither the library nor the CLI imports scipy
    for module in ("grouppc", "grouppc.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=cli_env,
                                capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", module
