"""Command-line front end.

Subcommands
-----------
prior     scale a correlation prior and emit its density grid as CSV
fit       fit one group model to a dataset and write a JSON summary
compare   fit several group models under a shared prior scaling and
          print a ranking table
simulate  draw a synthetic grouped dataset and write it as CSV

Every subcommand is deterministic given its full flag set (including
the seed), so repeated runs produce byte-identical output.

Exit codes: 0 success, 2 usage error (bad flags or parameter values),
3 data error (missing or malformed files), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import io
from .design import (Dataset, Family, GroupModel, GroupedDesign,
                     balanced_design, parse_family)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NumericError,
)
from .inference import (
    GridConfig,
    HyperPriors,
    bayes_factor,
    log_marginal_likelihood,
    solve_psi,
)
from .pcprior import DistanceFunction, PCPrior, density_grid, icc_to_param
from .simulate import SimConfig, simulate_dataset

__all__ = ["main"]

DEFAULT_SIGMA_U = 1.0 / 0.31


def _grid_config(text):
    """Parse a NxM quadrature resolution, e.g. 201x201."""
    parts = text.lower().split("x")
    try:
        n_tau, n_corr = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NxM, e.g. 201x201, got {text!r}") from None
    try:
        return GridConfig(n_tau=n_tau, n_corr=n_corr)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _model_spec(text):
    """Parse FAMILY[@GROUPCOL[:POSCOL]] for the compare subcommand.

    An ``@`` or ``:`` must be followed by a column name.
    """
    name, at, columns = text.partition("@")
    try:
        family = parse_family(name)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    group_col, colon, pos_col = columns.partition(":")
    if (at and not group_col) or (colon and not pos_col):
        raise argparse.ArgumentTypeError(
            f"empty column name in model spec {text!r}")
    return text, family, group_col or None, pos_col or None


def _quantile_statement(args, model):
    """Resolve --median-icc / --u / --a into (u, a) on the parameter scale."""
    if args.median_icc is not None and args.u is not None:
        raise DomainError("--median-icc conflicts with --u")
    if args.a is not None and args.u is None:
        raise DomainError("--a requires --u")
    if args.u is not None:
        return args.u, args.a if args.a is not None else 0.5
    icc = args.median_icc if args.median_icc is not None else 0.5
    return icc_to_param(model, icc), 0.5


def _sniff_columns(table, args):
    """Pick the group/pos columns: flags win, then a literal `pos` header."""
    if not table.header:
        raise DataError(f"{table.path}: empty file")
    pos_col = args.pos_col
    if pos_col is None and "pos" in table.header:
        pos_col = "pos"
    return args.group_col, pos_col


def _fit_models(args, specs):
    """Fit each (text, family, group_col, pos_col) spec to the `--data` file.

    The file is parsed once, and every fit shares one X: the `--covariates`
    columns, or else every column that is not y and that no spec claims
    as a grouping factor or coordinate.  y and X are converted once, after
    the first spec's design, and each distinct (group, pos) grouping
    builds one design and one `Dataset`.  A bare FAMILY spec falls back to
    the flag/sniffed columns; an explicit @GROUPCOL uses positions only
    when :POSCOL is given.  The first model's design scales the
    correlation prior, that model keeps the prior, and every other fit
    takes its rate.  Returns (grouping, fit) pairs in spec order; an
    error names the first spec that hits it.
    """
    table = io.read_table(args.data)
    default_group, default_pos = _sniff_columns(table, args)
    claimed = {"y", default_group, default_pos}
    for _, _, group_col, pos_col in specs:
        claimed |= {group_col, pos_col}
    covariates = args.covariates
    if covariates is None:
        covariates = [c for c in table.header if c not in claimed]
    for name in covariates:
        if name in claimed:
            raise DataError(f"column {name!r} is the response, a grouping "
                            "factor or a coordinate, not a covariate")
    psi = solve_psi(args.sigma_u, args.sigma_alpha)
    fits, lam, numbers, datasets = [], None, None, {}
    for text, family, group_col, pos_col in specs:
        model = GroupModel(family, assume_unit_spacing=args.unit_spacing)
        if group_col is None:
            pos_col = default_pos
        group_col = group_col or default_group
        try:
            if (group_col, pos_col) not in datasets:
                design, order = io.table_design(table, group_col, pos_col)
                if numbers is None:
                    numbers = io.table_numbers(table, covariates)
                y, X = numbers
                datasets[group_col, pos_col] = Dataset(
                    y=y[order], X=X[order], design=design,
                    column_names=("intercept", *covariates))
            dataset = datasets[group_col, pos_col]
            if lam is None:
                u, a = _quantile_statement(args, model)
                prior = PCPrior.from_quantile(model, dataset.design, u, a)
                lam = prior.lam
            else:
                prior = PCPrior(lam=lam, distance=DistanceFunction(
                    model, dataset.design))
            hyper = HyperPriors(corr_prior=prior, psi=psi)
            fits.append((group_col, log_marginal_likelihood(
                dataset, model, hyper, grid=args.grid)))
        except (DomainError, ConfigurationError, DataError,
                NumericError) as exc:
            raise type(exc)(f"model {text!r}: {exc}") from exc
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"model {text!r}: {exc}") from exc
    return fits


def _format_table(rows):
    """Ranking table: grouping, model, rho quantiles, log_mlik, log BF.

    `rows` holds (grouping, fit) pairs; they are sorted best first, and
    each row's log BF and category are `bayes_factor` of the best fit
    over it, which refuses fits on other data or under other priors.  The
    Bayes factor columns are left empty on the best row.
    """
    rows = sorted(rows, key=lambda r: -r[1].log_mlik)
    best = rows[0][1]
    header = ["grouping", "model", "rho_q025", "rho_mean", "rho_q975",
              "log_mlik", "log_bf", "evidence"]
    cells = [header]
    for grouping, fit in rows:
        bf = bayes_factor(best, fit)
        tie = bf.log_bf == 0.0
        cells.append([
            grouping,
            fit.family,
            "%.3f" % fit.rho["q025"],
            "%.3f" % fit.rho["mean"],
            "%.3f" % fit.rho["q975"],
            "%.3f" % fit.log_mlik,
            "" if tie else "%.2f" % bf.log_bf,
            "" if tie else bf.category.replace(" ", "-"),
        ])
    widths = [max(len(row[k]) for row in cells) for k in range(len(header))]
    lines = []
    for row in cells:
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(line.rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_prior(args):
    family = parse_family(args.family)
    model = GroupModel(family, assume_unit_spacing=args.unit_spacing)
    if args.data is not None:
        # the design needs the grouping and coordinates, not y or X
        table = io.read_table(args.data)
        group_col, pos_col = _sniff_columns(table, args)
        design, _ = io.table_design(table, group_col, pos_col)
    elif args.n is not None and args.m is not None:
        design = balanced_design(args.n, args.m,
                                 unit_positions=family is Family.OU)
    else:
        raise DomainError("need either --data or both --n and --m")
    u, a = _quantile_statement(args, model)
    prior = PCPrior.from_quantile(model, design, u, a)
    grid = density_grid(prior, args.grid_size)
    io.write_grid(grid, args.out)
    print("lambda =", repr(float(prior.lam)))
    print("d(u) =", repr(float(prior.distance(u))))
    print(f"wrote {args.out} ({args.grid_size} rows)")
    return 0


def cmd_fit(args):
    family = parse_family(args.family)
    fits = _fit_models(args, [(args.family, family, None, None)])
    table = _format_table(fits)
    io.write_fit(fits[0][1], args.out)
    print(table)
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args):
    if not args.model:
        raise DomainError("compare needs at least one --model")
    fits = _fit_models(args, args.model)
    # a comparison `bayes_factor` refuses writes no file
    table = _format_table(fits)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    for k, (group, fit) in enumerate(fits, 1):
        paths.append(f"{args.out_dir}/fit_{k}_{fit.family}_{group}.json")
        io.write_fit(fit, paths[-1])
    print(table)
    print("wrote", " ".join(paths))
    return 0


def cmd_simulate(args):
    family = parse_family(args.family)
    if family is Family.OU:
        if args.phi is None:
            raise DomainError("OU simulation needs --phi")
        if args.rho is not None:
            raise DomainError("--rho does not apply to OU; use --phi")
        param = args.phi
    else:
        if args.rho is None:
            raise DomainError(f"{family.value} simulation needs --rho")
        if args.phi is not None:
            raise DomainError("--phi only applies to OU; use --rho")
        param = args.rho

    jitter = args.pos_jitter
    if not 0 <= jitter < 1:
        raise DomainError("--pos-jitter must lie in [0, 1)")
    # the design checks the sizes, and the config the seed, before the
    # jitter draws the positions
    design = balanced_design(args.n, args.m,
                             unit_positions=family is Family.OU and not jitter)
    config = SimConfig(design=design, model=GroupModel(family), param=param,
                       beta=tuple(args.beta), sigma2=args.sigma2,
                       seed=args.seed)
    if jitter > 0:
        rng = np.random.default_rng([args.seed, 1])
        gaps = rng.uniform(1 - jitter, 1 + jitter, size=(args.n, args.m - 1))
        positions = np.cumsum(np.insert(gaps, 0, 0.0, axis=1), axis=1)
        config = replace(config, design=GroupedDesign(
            group_sizes=design.group_sizes, positions=tuple(positions)))
    dataset = simulate_dataset(config)
    io.write_dataset(dataset, args.out)
    print(f"wrote {args.out} ({design.total_size} rows)")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="grouppc",
        description="Penalized-complexity priors and Bayes factors for "
                    "grouped Gaussian models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_prior_flags(p):
        p.add_argument("--median-icc", type=float, default=None,
                       help="prior median for the within-group correlation "
                            "(shorthand for --u VALUE --a 0.5; default 0.5)")
        p.add_argument("--u", type=float, default=None,
                       help="parameter value u in P(d <= d(u)) = a, on the "
                            "natural scale (rho, or phi for OU)")
        p.add_argument("--a", type=float, default=None,
                       help="tail probability a in P(d <= d(u)) = a "
                            "(requires --u; default 0.5)")

    def add_data_flags(p, required):
        p.add_argument("--data", required=required, default=None,
                       help="dataset CSV with y and group columns")
        p.add_argument("--group-col", default="group",
                       help="grouping column (default: group)")
        p.add_argument("--pos-col", default=None,
                       help="within-group coordinate column (default: "
                            "the pos column when present)")
        p.add_argument("--unit-spacing", action="store_true",
                       help="let OU treat rows as unit-spaced when no "
                            "position column exists")

    def add_fit_flags(p):
        p.add_argument("--covariates", nargs="*", default=None,
                       metavar="NAME",
                       help="covariate columns beside the intercept; with "
                            "no NAME, none (default: every column not used "
                            "as y, a grouping factor or a coordinate)")
        p.add_argument("--sigma-u", type=float, default=DEFAULT_SIGMA_U,
                       help="residual sd scale U in P(sd > U) = alpha "
                            "(default: 1/0.31)")
        p.add_argument("--sigma-alpha", type=float, default=0.01,
                       help="tail probability for the sd statement "
                            "(default: 0.01)")
        p.add_argument("--grid", type=_grid_config, default=GridConfig(),
                       metavar="NxM",
                       help="quadrature nodes for (log precision, internal "
                            "correlation), e.g. 201x201")

    p = sub.add_parser("prior", help="scale a prior and emit its grid")
    p.add_argument("--family", required=True,
                   help="exchangeable | ar1 | ou")
    p.add_argument("--n", type=int, default=None, help="number of groups")
    p.add_argument("--m", type=int, default=None, help="group size")
    add_data_flags(p, required=False)
    add_prior_flags(p)
    p.add_argument("--grid-size", type=int, default=512,
                   help="rows in the density grid (default: 512)")
    p.add_argument("--out", default="prior_grid.csv",
                   help="output CSV path (default: prior_grid.csv)")
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("fit", help="fit one group model")
    p.add_argument("--family", required=True,
                   help="exchangeable | ar1 | ou")
    add_data_flags(p, required=True)
    add_prior_flags(p)
    add_fit_flags(p)
    p.add_argument("--out", default="fit.json",
                   help="output JSON path (default: fit.json)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare",
                       help="fit several models under one prior scaling")
    p.add_argument("--model", action="append", type=_model_spec,
                   metavar="FAMILY[@GROUPCOL[:POSCOL]]",
                   help="group model to fit; repeatable; the first model "
                            "anchors the shared scaling")
    add_data_flags(p, required=True)
    add_prior_flags(p)
    add_fit_flags(p)
    p.add_argument("--out-dir", default=".",
                   help="directory for the per-fit JSON files")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--family", required=True,
                   help="exchangeable | ar1 | ou")
    p.add_argument("--n", type=int, required=True, help="number of groups")
    p.add_argument("--m", type=int, required=True, help="group size")
    p.add_argument("--rho", type=float, default=None,
                   help="within-group correlation (exchangeable, AR1)")
    p.add_argument("--phi", type=float, default=None,
                   help="decay rate (OU)")
    p.add_argument("--sigma2", type=float, default=1.0,
                   help="residual variance (default: 1)")
    p.add_argument("--beta", type=float, nargs="+", default=[0.0],
                   help="intercept followed by covariate coefficients")
    p.add_argument("--pos-jitter", type=float, default=0.0,
                   help="jitter J in (0,1): gaps drawn from "
                            "Uniform(1-J, 1+J) instead of unit spacing")
    p.add_argument("--seed", type=int, required=True,
                   help="generator seed (mandatory)")
    p.add_argument("--out", default="sim.csv",
                   help="output CSV path (default: sim.csv)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
