"""Correlation structures: closed forms against dense linear algebra."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from grouppc import (
    ConfigurationError,
    DataError,
    Dataset,
    DomainError,
    Family,
    GroupModel,
    GroupedDesign,
    PCPrior,
    balanced_design,
    corr_matrix,
    dlogdet_dparam,
    internal_to_param,
    log_det,
    param_to_internal,
)
from grouppc.corr import (
    _internal_kernel,
    _kernel_and_stats,
    _log1pmx,
    _log_det_slope,
    _markov_rows,
    _OU_A,
    _OU_B,
    _OU_C,
    _OU_COEFS,
    _OU_SERIES_MAX,
    _distinct_gaps,
    _log1pmx_near,
    _ou_gap_sums,
    _ou_moments,
    _ou_series_sums,
    _ou_terms,
    _param_kernel,
    log_det_dense,
)

EXCH = GroupModel(Family.EXCHANGEABLE)
AR1 = GroupModel(Family.AR1)
OU_UNIT = GroupModel(Family.OU, assume_unit_spacing=True)


def random_design(rng, with_positions=False):
    n = int(rng.integers(1, 5))
    sizes = tuple(int(v) for v in rng.integers(1, 11, n))
    positions = None
    if with_positions:
        positions = tuple(
            tuple(np.cumsum(rng.uniform(0.3, 1.8, m)).tolist()) for m in sizes)
    return GroupedDesign(group_sizes=sizes, positions=positions)


# ----------------------------------------------------------------------
# flat design arrays
# ----------------------------------------------------------------------

def test_design_gaps_and_offsets_match_positions():
    rng = np.random.default_rng(6)
    designs = [random_design(rng, with_positions=pos)
               for pos in (True, False) for _ in range(15)]
    designs.append(GroupedDesign(group_sizes=(1, 4, 1, 1, 3), positions=(
        (2.0,), (0.0, 0.5, 1.75, 4.0), (-1.0,), (3.0,), (1.0, 1.25, 9.0))))
    assert any(1 in d.group_sizes for d in designs)
    for d in designs:
        bounds = np.cumsum((0,) + d.group_sizes)
        assert d.group_slices() == [slice(int(a), int(b))
                                    for a, b in zip(bounds[:-1], bounds[1:])]
        want = [np.diff(d.positions[j]) if d.positions is not None
                else np.ones(m - 1) for j, m in enumerate(d.group_sizes)]
        for j, gaps in enumerate(want):
            assert_array_equal(d.spacings(j), gaps)
        assert_array_equal(d.all_spacings(), np.concatenate(want))
        # the later row of each within-group pair: every row but the firsts
        assert_array_equal(d.pair_rows,
                           np.setdiff1d(np.arange(bounds[-1]), bounds[:-1]))
        # every row's position in row order, bit for bit, which
        # `_corr_blocks` slices through the offsets; None without positions
        cached = [d.offsets, d.pair_rows, d.gaps, d.spacings(0),
                  d.all_spacings()]
        if d.positions is None:
            assert d._flat_positions is None
        else:
            flat = np.array([x for p in d.positions for x in p])
            assert np.array_equal(d._flat_positions.view(np.int64),
                                  flat.view(np.int64))
            cached.append(d._flat_positions)
        for array in cached:
            with pytest.raises(ValueError):
                array[...] = 0
        # the cached arrays are derived, not part of the design's identity
        twin = GroupedDesign(group_sizes=d.group_sizes, positions=d.positions)
        assert twin == d and hash(twin) == hash(d)
        assert all(name not in repr(d) for name in
                   ("gaps", "offsets", "pair_rows", "_flat_positions"))


def test_design_gaps_are_bitwise_the_dropped_straddling_differences():
    # gaps taken at the pair rows are the differences of all positions
    # with those straddling two groups deleted, bit for bit
    rng = np.random.default_rng(12)
    designs = [random_design(rng, with_positions=pos)
               for pos in (True, False) for _ in range(40)]
    designs.append(GroupedDesign(group_sizes=(1, 1, 1)))
    designs.append(GroupedDesign(group_sizes=(1, 3, 1),
                                 positions=((7.0,), (0.1, 0.3, 0.7), (2.0,))))
    assert any(1 in d.group_sizes for d in designs)
    for d in designs:
        if d.positions is None:
            want = np.ones(d.total_size - d.n_groups)
        else:
            flat = np.concatenate([np.asarray(p) for p in d.positions])
            want = np.delete(np.diff(flat), d.offsets[1:-1] - 1)
        assert d.gaps.tobytes() == want.tobytes()


def test_design_names_group_of_first_bad_gap():
    # the group named is the one the gap counts per group point to
    rng = np.random.default_rng(13)
    for _ in range(60):
        sizes = rng.integers(1, 6, int(rng.integers(1, 7)))
        gaps = rng.uniform(0.3, 1.8, sizes.sum() - sizes.size)
        if gaps.size == 0:
            continue
        gaps[rng.integers(gaps.size, size=2)] = rng.choice([0.0, -0.5])
        ends = np.cumsum(sizes - 1)
        positions = tuple(tuple(np.concatenate([[5.0], 5.0 + np.cumsum(g)]))
                          for g in np.split(gaps, ends[:-1]))
        j = np.searchsorted(ends, np.flatnonzero(gaps <= 0)[0], side="right")
        with pytest.raises(ConfigurationError,
                           match=f"positions in group {j} must be strictly"):
            GroupedDesign(group_sizes=tuple(sizes), positions=positions)


def test_design_names_group_with_unordered_positions():
    with pytest.raises(ConfigurationError,
                       match="positions in group 2 must be strictly"):
        GroupedDesign(group_sizes=(2, 1, 3),
                      positions=((0.0, 1.0), (5.0,), (0.0, 2.0, 2.0)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_design_names_group_with_non_finite_position(value):
    # a last position, and the lone position of a one-row group
    with pytest.raises(ConfigurationError, match="group 1: position not"):
        GroupedDesign(group_sizes=(2, 3),
                      positions=((0.0, 1.0), (0.0, 1.0, value)))
    with pytest.raises(ConfigurationError, match="group 0: position not"):
        GroupedDesign(group_sizes=(1, 2), positions=((value,), (0.0, 1.0)))


def per_group_loop_error(sizes, positions):
    """The message of the per-group loop the array checks replaced, or None."""
    pos = tuple(tuple(float(x) for x in p) for p in positions)
    if len(pos) != len(sizes):
        return "positions must list one coordinate tuple per group"
    for j, (m, p) in enumerate(zip(sizes, pos)):
        if len(p) != m:
            return f"group {j} has {m} observations but {len(p)} positions"
        if not all(map(math.isfinite, p)):
            return f"group {j}: position not finite"
    for j, p in enumerate(pos):
        if any(b - a <= 0 for a, b in zip(p, p[1:])):
            return f"positions in group {j} must be strictly increasing"
    return None


def test_design_position_errors_match_the_per_group_loop():
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(600):
        sizes = [int(m) for m in rng.integers(1, 6, int(rng.integers(1, 7)))]
        groups = [np.cumsum(rng.uniform(0.3, 1.8, m)).tolist() for m in sizes]
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.integers(len(groups))) if groups else 0
            fault = int(rng.integers(4))
            if fault == 0:
                if rng.random() < 0.5 or not groups:
                    groups.append([0.0])
                else:
                    groups.pop()
            elif not groups:
                continue
            elif fault == 1:
                if rng.random() < 0.5 or not groups[j]:
                    groups[j].append((groups[j] or [0.0])[-1] + 1.0)
                else:
                    groups[j].pop()
            elif fault == 2 and groups[j]:
                groups[j][int(rng.integers(len(groups[j])))] = (
                    rng.choice([np.nan, np.inf, -np.inf]))
            elif fault == 3 and len(groups[j]) > 1:
                i = int(rng.integers(1, len(groups[j])))
                groups[j][i] = groups[j][i - 1] - rng.choice([0.0, 0.25])
        want = per_group_loop_error(sizes, groups)
        seen.add(want and want.split()[-1])
        if want is None:
            GroupedDesign(group_sizes=tuple(sizes), positions=groups)
            continue
        with pytest.raises(ConfigurationError) as err:
            GroupedDesign(group_sizes=tuple(sizes), positions=groups)
        assert str(err.value) == want
    assert seen >= {"group", "positions", "finite", "increasing", None}


def test_design_positions_are_python_floats_whatever_the_input():
    rng = np.random.default_rng(30)
    for _ in range(40):
        sizes = tuple(int(m) for m in rng.integers(1, 8, int(rng.integers(1, 6))))
        whole = [np.cumsum(rng.integers(1, 4, m)) - 2 for m in sizes]
        real = [np.cumsum(rng.uniform(0.3, 1.8, m)) - 1.0 for m in sizes]
        for groups, ints in ((whole, True), (real, False)):
            forms = [tuple(map(tuple, (g.tolist() for g in groups))),
                     [g.tolist() for g in groups], list(groups),
                     tuple(tuple(map(np.float64, g)) for g in groups)]
            if ints:
                forms.append(tuple(tuple(map(int, g)) for g in groups))
            designs = [GroupedDesign(group_sizes=sizes, positions=p)
                       for p in forms]
            want = [np.asarray(g, dtype=float) for g in groups]
            for d in designs:
                assert d == designs[0] and hash(d) == hash(designs[0])
                assert repr(d) == repr(designs[0])
                assert all(type(x) is float for p in d.positions for x in p)
                assert [np.array(p).view(np.int64).tolist()
                        for p in d.positions] == \
                    [g.view(np.int64).tolist() for g in want]


def test_design_size_classes_count_each_size():
    d = GroupedDesign(group_sizes=(3, 1, 3, 2, 3, 1))
    assert d.size_classes == ((1, 2), (2, 1), (3, 3))
    assert all(type(v) is int for pair in d.size_classes for v in pair)
    assert d.total_size == 13 and type(d.total_size) is int
    assert "size_classes" not in repr(d)
    assert d == GroupedDesign(group_sizes=d.group_sizes)


def test_design_refuses_group_sizes_that_are_not_integers():
    # int() would truncate 2.5 to a group of 2
    for size in (2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            GroupedDesign(group_sizes=(size, 3))
    d = GroupedDesign(group_sizes=(np.int64(2), np.int32(3), 4))
    assert d.group_sizes == (2, 3, 4)
    assert all(type(m) is int for m in d.group_sizes)


@pytest.mark.parametrize("sizes, message", [
    ((), "at least one group"), ((2, 0, 3), "must be positive"),
    ((2, -1), "must be positive"),
])
def test_design_refuses_no_groups_and_empty_groups(sizes, message):
    with pytest.raises(ConfigurationError, match=message):
        GroupedDesign(group_sizes=sizes)


@pytest.mark.parametrize("change, message", [
    ({"y": np.zeros((3, 1))}, "one-dimensional"),
    ({"X": np.ones((2, 1))}, "one row per observation"),
    ({"X": np.ones(3)}, "one row per observation"),
    ({"y": np.zeros(4), "X": np.ones((4, 1))}, "4 observations but"),
    ({"column_names": ("intercept", "x1")}, "name every column"),
    ({"X": np.full((3, 1), 2.0)}, "intercept"),
    ({"y": np.array([0.0, np.nan, 1.0])}, "finite"),
    ({"X": np.array([[1.0, 0.0], [1.0, np.inf], [1.0, 2.0]]),
      "column_names": ("intercept", "x1")}, "finite"),
])
def test_dataset_refuses_malformed_inputs(change, message):
    inputs = dict(y=np.zeros(3), X=np.ones((3, 1)),
                  design=balanced_design(1, 3), column_names=("intercept",))
    with pytest.raises(DataError, match=message):
        Dataset(**{**inputs, **change})


def test_dataset_refuses_x_without_columns():
    with pytest.raises(DataError, match="at least the intercept"):
        Dataset(y=np.zeros(3), X=np.ones((3, 0)),
                design=balanced_design(1, 3), column_names=())


# ----------------------------------------------------------------------
# corr_matrix
# ----------------------------------------------------------------------

def test_exchangeable_at_base_is_identity():
    d = balanced_design(1, 2)
    assert_allclose(corr_matrix(EXCH, d, 0, 0.0), np.eye(2))


def test_ar1_matrix_entries():
    d = balanced_design(1, 3)
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert_allclose(corr_matrix(AR1, d, 0, 0.5), expected)


def test_ou_matrix_from_positions():
    d = GroupedDesign(group_sizes=(3,), positions=((0.0, 1.0, 3.0),))
    R = corr_matrix(GroupModel(Family.OU), d, 0, np.log(2.0))
    assert_allclose(R[0, 1], 0.5)
    assert_allclose(R[1, 2], 0.25)
    assert_allclose(R[0, 2], 0.125)
    assert_allclose(R, R.T)
    assert_allclose(np.diag(R), 1.0)


def test_ou_matrix_at_infinite_phi_is_the_identity():
    # phi = inf is the independence base, where log|R| = 0
    d = GroupedDesign(group_sizes=(3,), positions=((0.0, 1.0, 3.0),))
    with np.errstate(all="raise"):
        R = corr_matrix(GroupModel(Family.OU), d, 0, np.inf)
    assert_array_equal(R, np.eye(3))


def test_corr_matrix_positive_definite_interior():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = random_design(rng, with_positions=True)
        j = int(rng.integers(d.n_groups))
        for model, param in [(EXCH, 0.97), (AR1, 0.97),
                             (GroupModel(Family.OU), 0.05)]:
            np.linalg.cholesky(corr_matrix(model, d, j, param))


def test_corr_matrix_takes_negative_indices_from_the_end():
    # a negative index picks the same group for the sizes and the rows,
    # as it does in ``design.group_sizes``; one past either end raises
    d = GroupedDesign(group_sizes=(2, 3, 1), positions=(
        (0.0, 1.5), (-1.0, 0.25, 2.0), (4.0,)))
    for model, param in [(EXCH, 0.3), (AR1, 0.3), (GroupModel(Family.OU), 0.7)]:
        for j in range(d.n_groups):
            want = corr_matrix(model, d, j, param)
            assert want.shape == (d.group_sizes[j],) * 2
            assert_array_equal(corr_matrix(model, d, j - d.n_groups, param),
                               want)
        for j in (d.n_groups, -d.n_groups - 1):
            with pytest.raises(IndexError):
                corr_matrix(model, d, j, param)
    # group 1's first gap, not a gap of group 2
    assert_allclose(corr_matrix(GroupModel(Family.OU), d, -2, 0.7)[0, 1],
                    np.exp(-1.25 * 0.7))


def test_corr_matrix_rejects_boundary_and_nan():
    d = balanced_design(1, 3)
    with pytest.raises(DomainError):
        corr_matrix(EXCH, d, 0, 1.0)
    with pytest.raises(DomainError):
        corr_matrix(AR1, d, 0, -0.1)
    with pytest.raises(DomainError):
        corr_matrix(EXCH, d, 0, np.nan)
    with pytest.raises(DomainError):
        corr_matrix(GroupModel(Family.OU, assume_unit_spacing=True), d, 0, 0.0)


def _param_forms(value):
    """The same parameter as each scalar type a caller may pass."""
    forms = {"float": float(value), "np.float64": np.float64(value),
             "0-d array": np.array(value),
             "1-d element": np.array([value, 0.5])[0]}
    if float(value).is_integer():
        forms["int"] = int(value)
        forms["np.int64 element"] = np.array([int(value), 2])[0]
    return forms


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except DomainError as err:
        return "rejected", str(err)
    return "accepted", np.asarray(out).tolist()


@pytest.mark.parametrize("model", [EXCH, AR1, OU_UNIT],
                         ids=["exchangeable", "ar1", "ou"])
def test_param_check_same_for_every_scalar_form(model):
    d = balanced_design(2, 3)
    ou = model.family is Family.OU
    boundary = 0 if ou else 1
    message = ("phi must be positive for the OU family" if ou
               else "rho must lie in [0, 1)")
    entry_points = {
        "log_det": lambda p: log_det(model, d, p),
        "dlogdet_dparam": lambda p: dlogdet_dparam(model, d, p),
        "corr_matrix": lambda p: corr_matrix(model, d, 1, p),
    }
    for value in (np.nan, -1, -0.5, 0, 0.5, 1, 1.5):
        for name, fn in entry_points.items():
            outcomes = {form: _outcome(fn, p)
                        for form, p in _param_forms(value).items()}
            reference = outcomes["0-d array"]
            for form, outcome in outcomes.items():
                assert outcome == reference, (name, value, form)
            status, detail = reference
            if np.isnan(value):
                assert reference == ("rejected",
                                     "correlation parameter is NaN")
            elif value == boundary:
                if name == "log_det":
                    assert reference == ("accepted", -np.inf)
                else:
                    assert reference == ("rejected", message), name
            elif value < 0 or (not ou and value > 1):
                assert reference == ("rejected", message), (name, value)
            else:
                assert status == "accepted", (name, value, detail)


# ----------------------------------------------------------------------
# log_det
# ----------------------------------------------------------------------

def test_log_det_two_by_two_by_hand():
    assert_allclose(log_det(EXCH, balanced_design(1, 2), 0.5), np.log(0.75),
                    rtol=1e-15)


def test_log_det_ar1_toeplitz():
    assert_allclose(log_det(AR1, balanced_design(1, 3), 0.5),
                    2 * np.log(0.75), rtol=1e-15)


def test_log_det_zero_at_base():
    d = balanced_design(3, 4)
    assert log_det(EXCH, d, 0.0) == 0.0
    assert log_det(AR1, d, 0.0) == 0.0
    assert log_det(OU_UNIT, d, np.inf) == 0.0


def test_log_det_degenerate_is_minus_infinity():
    d = balanced_design(2, 3)
    assert log_det(EXCH, d, 1.0) == -np.inf
    assert log_det(AR1, d, 1.0) == -np.inf
    assert log_det(OU_UNIT, d, 0.0) == -np.inf


def test_log_det_matches_dense_oracle():
    rng = np.random.default_rng(1)
    grid = np.arange(0.05, 1.0, 0.05)
    for _ in range(25):
        d = random_design(rng, with_positions=True)
        for rho in grid:
            assert_allclose(log_det(EXCH, d, rho), log_det_dense(EXCH, d, rho),
                            atol=1e-10)
            assert_allclose(log_det(AR1, d, rho), log_det_dense(AR1, d, rho),
                            atol=1e-10)
            phi = -np.log(rho)
            model = GroupModel(Family.OU)
            assert_allclose(log_det(model, d, phi),
                            log_det_dense(model, d, phi), atol=1e-10)


def test_log_det_strictly_decreasing_in_rho():
    d = GroupedDesign(group_sizes=(5, 2, 9))
    rho = np.linspace(1e-4, 0.9999, 400)
    for model in (EXCH, AR1):
        vals = np.array([log_det(model, d, r) for r in rho])
        assert np.all(np.diff(vals) < 0)


def test_ou_reduces_to_ar1_at_unit_spacing():
    # unit gaps are one distinct value: log|R| is (m - 1) log(1 - e^-2phi)
    # per group, AR1's (m - 1) log(1 - rho^2) at rho = e^-phi
    ragged = GroupedDesign(group_sizes=(5, 1, 9, 2, 30))
    unit = GroupedDesign(ragged.group_sizes, positions=tuple(
        tuple(map(float, range(m))) for m in ragged.group_sizes))
    phi = np.array([0.02, 0.1, 0.5, 1.0, 3.0, 20.0])
    want = log_det(AR1, ragged, np.exp(-phi))
    for model, design in ((OU_UNIT, ragged), (GroupModel(Family.OU), unit)):
        assert_allclose(log_det(model, design, phi), want, rtol=1e-14)
        assert _distinct_gaps(design)[0].tolist() == [1.0]


# ----------------------------------------------------------------------
# dlogdet_dparam
# ----------------------------------------------------------------------

def test_dlogdet_ar1_by_hand():
    assert_allclose(dlogdet_dparam(AR1, balanced_design(1, 3), 0.5), -8 / 3,
                    rtol=1e-14)


def test_dlogdet_exchangeable_flat_at_base():
    # d/drho log[(1+rho)(1-rho)] vanishes at rho=0
    val = dlogdet_dparam(EXCH, balanced_design(1, 2), 1e-9)
    assert abs(val) < 1e-8


def dlogdet_finite_difference(model, design, param, step=1e-6):
    """Central finite-difference derivative of `log_det`."""
    p = float(param)
    return (log_det(model, design, p + step)
            - log_det(model, design, p - step)) / (2.0 * step)


def test_dlogdet_matches_finite_differences():
    rng = np.random.default_rng(2)
    d650 = balanced_design(6, 50)
    assert_allclose(dlogdet_dparam(EXCH, d650, 0.3),
                    dlogdet_finite_difference(EXCH, d650, 0.3), rtol=1e-6)
    for _ in range(10):
        d = random_design(rng, with_positions=True)
        for model, param in [(EXCH, 0.35), (AR1, 0.8),
                             (GroupModel(Family.OU), 1.3)]:
            assert_allclose(dlogdet_dparam(model, d, param),
                            dlogdet_finite_difference(model, d, param),
                            rtol=1e-6)


def test_parameter_scale_keeps_its_tails():
    # the parameter-scale kernel takes rho itself: the slope at rho near 0
    # is linear in rho, where a detour through logit rho carries rho^2 and
    # underflows, and OU log|R| at large phi takes phi without exp(log phi)
    d650 = balanced_design(6, 50)
    for rho in (1e-200, 1e-300):
        assert_allclose(dlogdet_dparam(EXCH, d650, rho), -14700.0 * rho,
                        rtol=1e-14)
        assert_allclose(dlogdet_dparam(AR1, d650, rho), -588.0 * rho,
                        rtol=1e-14)
    unit = balanced_design(6, 50, unit_positions=True)
    for phi in (30.0, 300.0):
        assert_allclose(log_det(GroupModel(Family.OU), unit, phi),
                        294.0 * np.log1p(-np.exp(-2.0 * phi)), rtol=1e-14)


def test_dlogdet_boundary_is_domain_error():
    d = balanced_design(1, 4)
    with pytest.raises(DomainError):
        dlogdet_dparam(EXCH, d, 1.0)
    with pytest.raises(DomainError):
        dlogdet_dparam(OU_UNIT, d, 0.0)


# ----------------------------------------------------------------------
# internal scale
# ----------------------------------------------------------------------

def test_internal_transforms_round_trip():
    for model in (EXCH, AR1):
        for rho in (1e-8, 0.3, 0.99):
            t = param_to_internal(model, rho)
            assert_allclose(internal_to_param(model, t), rho, rtol=1e-12)
    ou = GroupModel(Family.OU)
    for phi in (1e-6, 1.0, 500.0):
        assert_allclose(internal_to_param(ou, param_to_internal(ou, phi)),
                        phi, rtol=1e-14)


def test_log_det_from_internal_matches_param_scale():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = random_design(rng, with_positions=True)
        t = rng.uniform(-8, 8, 7)
        for model in (EXCH, AR1, GroupModel(Family.OU)):
            want = [log_det(model, d, internal_to_param(model, tk)) for tk in t]
            assert_allclose(_internal_kernel(model, d, t)[0], want,
                            rtol=1e-11, atol=1e-13)


def test_log_det_from_internal_survives_saturation():
    # logit(rho) = 200 is far past double-precision rho < 1, yet the
    # internal-scale expression stays finite and follows the asymptote
    d = balanced_design(6, 50)
    val = _internal_kernel(EXCH, d, 200.0)[0]
    assert np.isfinite(val)
    # asymptote: log(m) - (m-1) * t per group
    assert_allclose(val, 6 * (np.log(50) - 49 * 200.0), rtol=1e-10)
    # the derivative reaches its limit -sum(m - 1) = -13 where 1 - rho has
    # rounded to 0, and the prior density on the internal scale stays finite
    ragged = GroupedDesign(group_sizes=(5, 1, 9, 2))
    for model in (EXCH, AR1):
        prior = PCPrior.from_quantile(model, ragged, 0.5, 0.5)
        for t in (40.0, 200.0):
            slope = _internal_kernel(model, ragged, t)[1]
            assert np.isfinite(slope)
            assert_allclose(slope, -13.0, rtol=1e-14)
            assert np.isfinite(prior.log_density_internal(t))
    # OU at phi = exp(-700): every gap term sits at its limit 1
    ou = GroupModel(Family.OU)
    ragged_ou = GroupedDesign(group_sizes=(5, 1, 9, 2), positions=tuple(
        tuple(np.cumsum(np.full(m, 0.5)).tolist()) for m in (5, 1, 9, 2)))
    prior = PCPrior.from_quantile(ou, ragged_ou, np.log(2.0), 0.5)
    slope = _internal_kernel(ou, ragged_ou, -700.0)[1]
    assert np.isfinite(slope)
    assert_allclose(slope, 13.0, rtol=1e-14)
    assert np.isfinite(prior.log_density_internal(-700.0))


def test_dlogdet_dinternal_matches_chain_rule_and_differences():
    rng = np.random.default_rng(5)
    d = random_design(rng, with_positions=True)
    for model in (EXCH, AR1, GroupModel(Family.OU)):
        for t in (-6.0, -1.0, 0.5, 4.0):
            h = 1e-6
            fd = (_internal_kernel(model, d, t + h)[0]
                  - _internal_kernel(model, d, t - h)[0]) / (2 * h)
            assert_allclose(_internal_kernel(model, d, t)[1], fd, rtol=2e-6)


def _row_length(design):
    """Elements in a node's row of the OU walk: the distinct gap values
    where the design has at most 21 of them, else every gap."""
    distinct = _distinct_gaps(design)
    return distinct[0].size if distinct else design.gaps.size


def _gap_values_design(values, rng, n_groups=30):
    """``n_groups`` groups of 1-12 rows whose gaps are drawn from
    ``values``, each value taken at least once (in the first groups);
    exact binary fractions as values make the gaps exactly the values."""
    values = np.asarray(values, dtype=float)
    sizes = [int(v) for v in rng.integers(1, 13, n_groups)]
    gaps = [rng.choice(values, m - 1) for m in sizes]
    flat = np.concatenate(gaps)
    flat[:values.size] = rng.permutation(values)
    gaps = np.split(flat, np.cumsum([m - 1 for m in sizes])[:-1])
    return GroupedDesign(group_sizes=tuple(sizes), positions=tuple(
        tuple(np.cumsum(np.append(0.25, g)).tolist()) for g in gaps))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_ou_closed_forms_are_chunk_invariant(chunk, monkeypatch):
    # the OU sums over gaps run a block of nodes at a time, one contiguous
    # row of gaps (or of distinct gap values) per node: every node's sum
    # is the same, bit for bit, whatever its block, and a scalar phi gives
    # its batched value
    rng = np.random.default_rng(11)
    sizes = tuple(int(v) for v in rng.integers(1, 13, 30))
    ragged = GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.3, 1.8, m)).tolist()) for m in sizes))
    repeated = _gap_values_design([0.5, 1.0, 2.5], rng)
    ou = GroupModel(Family.OU)
    for design, n in itertools.product(
            (ragged, repeated), (1, chunk, chunk + 1, 3 * chunk + 1, 40)):
        t = rng.uniform(-4.0, 4.0, n)
        phi = np.exp(t)
        whole = (*_internal_kernel(ou, design, t),
                 log_det(ou, design, phi.reshape(1, n))[0],
                 dlogdet_dparam(ou, design, phi))
        monkeypatch.setattr("grouppc.corr._OU_BLOCK",
                            chunk * _row_length(design))
        parts = (*_internal_kernel(ou, design, t),
                 log_det(ou, design, phi.reshape(1, n))[0],
                 dlogdet_dparam(ou, design, phi))
        monkeypatch.undo()
        for a, b in zip(whole, parts):
            assert a.shape == b.shape
            assert_array_equal(a, b)
        for i in range(n):
            one = (*_internal_kernel(ou, design, t[i]),
                   log_det(ou, design, phi[i]),
                   dlogdet_dparam(ou, design, phi[i]))
            assert one == tuple(a[i] for a in whole)
    assert not _distinct_gaps(ragged) and len(_distinct_gaps(repeated)[0]) == 3


def _exchangeable_loop(design, p, log1m_rho, j):
    """Oracle: the exchangeable kernel summed class by class in a loop."""
    log1m_plus = _log1pmx(-p, log1m_rho)
    log_det = slope = np.zeros(np.shape(p))
    for m, c in design.size_classes:
        if m > 1:
            log_det = log_det + c * (_log1pmx((m - 1) * p)
                                     + (m - 1) * log1m_plus)
            slope = slope - c * m * (m - 1) * p * j / (1.0 + (m - 1) * p)
    return log_det, slope


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("nodes", [1, 2, 5, None])
def test_exchangeable_kernel_equals_a_per_class_loop(nodes, monkeypatch):
    # one (classes x nodes) pass, a block of nodes at a time, gives the
    # class-by-class loop's sums bit for bit: at every block size (a
    # block of one node included), for scalar and array rho, on both
    # scales, down to rho = 1e-300 and up to rho = 1 (log|R| = -inf)
    if nodes is not None:   # _OU_BLOCK / (8 x 18 classes) nodes a block
        monkeypatch.setattr("grouppc.corr._OU_BLOCK", 8 * 18 * nodes)
    rng = np.random.default_rng(24)
    sizes = rng.permutation(np.rint(np.linspace(1, 19, 60)).astype(int))
    ragged = GroupedDesign(group_sizes=tuple(sizes.tolist()))
    assert len(ragged.size_classes) == 19
    rho = np.array([0.0, 1e-300, 1e-9, 0.5, 0.99, 1.0 - 2.0 ** -53, 1.0])
    t = np.array([-745.0, -40.0, -1e-3, 0.0, 3.0, 36.7])
    for design in (ragged, balanced_design(4, 7), GroupedDesign((1, 1, 1))):
        for p in [*rho, *map(float, rho), rho, rho.reshape(1, -1, 1)]:
            with np.errstate(divide="ignore"):
                want = _exchangeable_loop(design, p, np.log1p(-p),
                                          np.reciprocal(1.0 - p))
                got = _param_kernel(EXCH, design, p, True)
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(p)
                assert_array_equal(_bits(a), _bits(b))
        for x in [*t, t, t.reshape(2, 3)]:
            r = internal_to_param(EXCH, x)
            want = _exchangeable_loop(design, r, -np.logaddexp(0.0, x), r)
            for a, b in zip(_internal_kernel(EXCH, design, x), want):
                assert np.shape(a) == np.shape(x)
                assert_array_equal(_bits(a), _bits(b))
    assert log_det(EXCH, ragged, 1.0) == -np.inf
    assert_array_equal(log_det(EXCH, ragged, rho)[-1:], [-np.inf])
    singletons = GroupedDesign((1, 1, 1))
    for p in (1.0, rho, rho.reshape(7, 1)):
        for a in _param_kernel(EXCH, singletons, p, True):
            assert np.shape(a) == np.shape(p)
            assert_array_equal(_bits(a), _bits(np.zeros(np.shape(p))))


def _ragged_ou_dataset(seed, n_groups=25, p=3):
    """OU data on groups of 1-12 rows, two singletons first, gaps
    U(0.2, 2.5), X with the intercept and p - 1 covariates."""
    rng = np.random.default_rng(seed)
    sizes = (1, 1) + tuple(int(v) for v in rng.integers(1, 13, n_groups - 2))
    design = GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.2, 2.5, m)).tolist()) for m in sizes))
    M = design.total_size
    X = np.column_stack([np.ones(M), rng.standard_normal((M, p - 1))])
    return Dataset(y=rng.standard_normal(M) * 2.1 + 1.0, X=X, design=design,
                   column_names=("intercept",) + tuple(
                       f"x{k}" for k in range(1, p)))


def test_ou_stats_equal_dense_precision_per_node():
    # Z'R^-1 Z from the gap walk against dense per-group inverses of
    # corr_matrix's R, over nodes from strong correlation to underflowed
    # gap correlations.  The oracle takes R's entries in 30 digits: R
    # rounded to doubles is itself off by up to 4e-12 of the largest
    # entry at s = -12, as conditioned as R is there
    ou = GroupModel(Family.OU)
    s = np.linspace(-12.0, 12.0, 17)
    for seed in (1, 2):
        ds = _ragged_ou_dataset(seed, n_groups=10)
        phi = np.exp(s)
        assert (np.exp(-phi * (2.0 * ds.design.gaps).min()) == 0.0).sum() >= 3
        Z = np.column_stack([ds.y, ds.X])
        (log_det_s, slope), W = _kernel_and_stats(ds, ou, s)
        assert_array_equal(log_det_s, _internal_kernel(ou, ds.design, s)[0])
        assert_array_equal(slope, _internal_kernel(ou, ds.design, s)[1])
        for k, p in enumerate(phi):
            with mpmath.workdps(30):
                p_mp, want = mpmath.mpf(p), mpmath.zeros(Z.shape[1])
                for j, rows in enumerate(ds.design.group_slices()):
                    pos = [mpmath.mpf(v) for v in ds.design.positions[j]]
                    R = mpmath.matrix([[mpmath.exp(-p_mp * abs(a - b))
                                        for b in pos] for a in pos])
                    assert_allclose(corr_matrix(ou, ds.design, j, p),
                                    np.array(R.tolist(), dtype=float),
                                    rtol=1e-12, atol=1e-300)
                    Zj = mpmath.matrix(Z[rows].tolist())
                    want += Zj.T * mpmath.inverse(R) * Zj
                want = np.array(want.tolist(), dtype=float)
            err = np.abs(W[k] - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (s[k], err)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_ou_stats_are_chunk_invariant(chunk, monkeypatch):
    # each node's Z'QZ comes from its own matrix-vector products, so it is
    # the same, bit for bit, whatever the block it was walked in, and a
    # single node gives its row of a batch; also where the pair products
    # are summed per distinct gap value first
    ou = GroupModel(Family.OU)
    rng = np.random.default_rng(12)
    repeated = _on_design(_gap_values_design(
        [0.5, 1.0, 2.5], np.random.default_rng(3)), 3)
    for ds, n in itertools.product((_ragged_ou_dataset(3), repeated),
                                   (1, chunk, chunk + 1, 3 * chunk + 1, 40)):
        s = np.append(rng.uniform(-12.0, 12.0, n - 1), 11.0)
        (_, _), whole = _kernel_and_stats(ds, ou, s)
        monkeypatch.setattr("grouppc.corr._OU_BLOCK",
                            chunk * _row_length(ds.design))
        (_, _), parts = _kernel_and_stats(ds, ou, s)
        monkeypatch.undo()
        assert whole.tobytes() == parts.tobytes()
        for i in range(n):
            one = _kernel_and_stats(ds, ou, s[i:i + 1])[1]
            assert one.tobytes() == whole[i:i + 1].tobytes()


def test_ou_stats_of_underflowed_nodes_equal_their_walk():
    # nodes whose gap correlations all underflow share one walked row of
    # Z'QZ: bit for bit what each one's own walk gives, and Z'Z, as R = I
    ds = _ragged_ou_dataset(4)
    ou = GroupModel(Family.OU)
    s = np.linspace(-12.0, 12.0, 201)
    dead = np.exp(-np.exp(s) * (2.0 * ds.design.gaps).min()) == 0.0
    assert 20 <= dead.sum() < s.size
    (log_det_s, slope), W = _kernel_and_stats(ds, ou, s)
    for sums in (log_det_s, slope):
        assert not sums[dead].any() and not np.signbit(sums[dead]).any()
    for k in np.flatnonzero(dead):
        alone = _kernel_and_stats(ds, ou, s[k:k + 1])[1]
        assert alone.tobytes() == W[k:k + 1].tobytes()
    Z = np.column_stack([ds.y, ds.X])
    assert_allclose(W[dead], np.broadcast_to(Z.T @ Z, W[dead].shape),
                    rtol=1e-14)


def _ou_reference_terms(x):
    """Per-gap log(1 - e^-x) and x / (e^x - 1) at x > 0, term by term."""
    log_term = np.piecewise(x, [x < np.log(2.0)], [
        lambda v: np.log(-np.expm1(-v)), lambda v: np.log1p(-np.exp(-v))])
    return log_term, x * np.exp(-x) / -np.expm1(-x)


def test_ou_gap_sums_are_accurate_on_18000_gaps():
    # pairwise sums of contiguous rows stay within 1e-14 of the exactly
    # rounded sum (math.fsum) of the same terms, scaled by sum |term|
    rng = np.random.default_rng(21)
    design = GroupedDesign(group_sizes=(10,) * 2000, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.7, 1.3, 10)).tolist())
        for _ in range(2000)))
    assert design.gaps.size == 18000
    ou = GroupModel(Family.OU)
    t = np.concatenate([np.linspace(-6.0, 6.0, 25), [-40.0]])
    log_det_t, slope_t = _internal_kernel(ou, design, t)
    for k, phi in enumerate(np.exp(t)):
        x = 2.0 * design.gaps * phi
        if t[k] == -40.0:
            assert x.max() < 1e-12
        for got, terms in zip((log_det_t[k], slope_t[k]),
                              _ou_reference_terms(x)):
            assert (abs(got - math.fsum(terms))
                    <= 1e-14 * math.fsum(np.abs(terms)))


def test_ou_closed_forms_at_the_edges():
    rng = np.random.default_rng(4)
    design = random_design(rng, with_positions=True)
    ou = GroupModel(Family.OU)
    assert log_det(ou, design, 0.0) == -np.inf
    assert_array_equal(log_det(ou, design, np.array([0.0, 1.0]))[0], -np.inf)
    assert log_det(ou, design, np.inf) == 0.0
    assert dlogdet_dparam(ou, design, np.inf) == 0.0
    assert _internal_kernel(ou, design, np.inf) == (0.0, 0.0)
    # every x below 1e-12: each slope term is its limit 1
    log_det_tiny, slope_tiny = _internal_kernel(ou, design, -40.0)
    assert np.isfinite(log_det_tiny)
    assert slope_tiny == design.gaps.size
    for t in (np.empty(0), np.empty((2, 0))):
        for out in (*_internal_kernel(ou, design, t), log_det(ou, design, t)):
            assert out.shape == t.shape
    t = rng.uniform(-3.0, 3.0, (3, 4))
    for grid, flat in zip(_internal_kernel(ou, design, t),
                          _internal_kernel(ou, design, t.ravel())):
        assert grid.shape == (3, 4)
        assert_array_equal(grid.ravel(), flat)
    no_gaps = GroupedDesign(group_sizes=(1, 1, 1),
                            positions=((0.0,), (1.0,), (2.0,)))
    assert log_det(ou, no_gaps, 0.5) == 0.0
    assert dlogdet_dparam(ou, no_gaps, 0.5) == 0.0
    assert_array_equal(log_det(ou, no_gaps, np.array([0.5, 2.0])), 0.0)
    assert_array_equal(_internal_kernel(ou, no_gaps, np.zeros((2, 2)))[1], 0.0)


def test_ou_gap_sums_hold_no_block_of_all_nodes():
    # 1,024 density-grid nodes on a 1,800-gap transect design; one
    # nodes x gaps block would take 14.7 MB
    rng = np.random.default_rng(8)
    sizes = rng.permutation(np.rint(np.linspace(1, 19, 200)).astype(int))
    design = GroupedDesign(group_sizes=tuple(int(m) for m in sizes),
                           positions=tuple(
        tuple(np.cumsum(rng.uniform(0.4, 1.6, m)).tolist()) for m in sizes))
    assert design.gaps.size == 1800
    phi = np.exp(np.linspace(-6.0, 6.0, 1024))
    tracemalloc.start()
    try:
        _ou_gap_sums(design, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_ou_gap_sums_fill_rows_whose_terms_all_underflow():
    # on a 30 x 20 design with U(0.7, 1.3) gaps, about a quarter of the
    # default grid's nodes have e^-x = 0 at every gap; their sums skip the
    # walk and still equal the walk's, bit for bit and sign of zero too
    rng = np.random.default_rng(7)
    design = GroupedDesign(group_sizes=(20,) * 30, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.7, 1.3, 20)).tolist())
        for _ in range(30)))
    phi = np.append(np.exp(np.linspace(-12.0, 12.0, 201)), np.inf)
    dead = np.exp(-phi * (2.0 * design.gaps).min()) == 0.0
    assert 40 <= dead.sum() < phi.size
    x = np.multiply.outer(phi, 2.0 * design.gaps)
    walked = _ou_terms(x, np.empty_like(x), np.empty_like(x),
                       np.empty(x.shape, dtype=bool))
    for got, want in zip(_ou_gap_sums(design, phi), walked):
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[dead]).any() and not got[dead].any()


# ----------------------------------------------------------------------
# OU series regime: nodes whose largest x = 2 gap phi is at most 2
# ----------------------------------------------------------------------

def _transect_design(rng):
    """200 transects of 1-19 rows with U(0.4, 1.6) gaps: 1,800 gaps."""
    sizes = rng.permutation(np.rint(np.linspace(1, 19, 200)).astype(int))
    return GroupedDesign(group_sizes=tuple(int(m) for m in sizes),
                         positions=tuple(
        tuple(np.cumsum(rng.uniform(0.4, 1.6, m)).tolist()) for m in sizes))


def _spread_design(rng):
    """40 groups of 2-11 rows with gaps 10^U(-3, 3): u = gap / max gap
    reaches about 1e-6, so u^-1 is about 1e6 and u^24 about 1e-144."""
    sizes = tuple(int(v) for v in rng.integers(2, 12, 40))
    return GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, m)).tolist())
        for m in sizes))


def _equal_gap_design(rng):
    """30 groups of 2-10 rows, every gap 0.75 to within 1e-12 relative:
    u = gap / max gap is about 1 at every gap, where the series' leading
    terms cancel most.  The gaps take more distinct values than the
    distinct-gap sums serve, so the series still sums them."""
    sizes = tuple(int(v) for v in rng.integers(2, 11, 30))
    return GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(0.75 + 1e-13 * rng.standard_normal(m)).tolist())
        for m in sizes))


def _on_design(design, seed):
    """Intercept-and-slope data on ``design``."""
    rng = np.random.default_rng(seed)
    M = design.total_size
    return Dataset(y=rng.standard_normal(M) * 1.7 + 0.5,
                   X=np.column_stack([np.ones(M), rng.standard_normal(M)]),
                   design=design, column_names=("intercept", "x1"))


def _ou_mp_reference(ds, phi):
    """(sum log(1 - e^-x), sum |.|, sum x / (e^x - 1), sum |.|, Z'QZ) at
    x = 2 gap phi, the terms and pair weights in 40 digits.  Z'QZ sums the
    Markov pair terms with math.fsum, the weights rounded to doubles: good
    to a few ulps of its largest entry.  The first rows and the pairs are
    cut group by group, apart from `_markov_rows`."""
    Z = np.column_stack([ds.y, ds.X])
    groups = [Z[rows] for rows in ds.design.group_slices()]
    first = np.array([g[0] for g in groups])
    D = np.concatenate([g[1:] - g[:-1] for g in groups])
    A = np.concatenate([g[:-1] for g in groups])
    with mpmath.workdps(40):
        logs, ratios, weights = [], [], []
        for gap in ds.design.gaps:
            x = 2 * mpmath.mpf(phi) * mpmath.mpf(gap)
            e, r = mpmath.exp(-x), mpmath.exp(-x / 2)
            logs.append(mpmath.log(1 - e))
            ratios.append(x * e / (1 - e))
            weights.append((1 / (1 - e), 1 / (1 + r), (1 - r) / (1 + r)))
        sums = [float(f(v)) for v in (logs, ratios)
                for f in (mpmath.fsum, lambda v: mpmath.fsum(map(abs, v)))]
    w = np.array(weights, dtype=float)
    q = first.shape[1]
    W = np.empty((q, q))
    for a in range(q):
        for b in range(q):
            W[a, b] = math.fsum(np.concatenate([
                first[:, a] * first[:, b], w[:, 0] * D[:, a] * D[:, b],
                w[:, 1] * (D[:, a] * A[:, b] + A[:, a] * D[:, b]),
                w[:, 2] * A[:, a] * A[:, b]]))
    return (*sums, W)


def test_ou_series_coefficients_are_rounded_bernoulli_terms():
    # b_n = B_2n / (2n)!, a_n = b_n / (2n), c_n = 4 (1 - 4^-n) b_n, each
    # the double nearest its exact value
    with mpmath.workdps(40):
        for n, (a, b, c) in enumerate(zip(_OU_A, _OU_B, _OU_C), start=1):
            exact = mpmath.bernoulli(2 * n) / mpmath.factorial(2 * n)
            assert b == float(exact)
            assert a == float(exact / (2 * n))
            assert c == float(4 * (1 - mpmath.mpf(4) ** -n) * exact)


def _singleton_edged_design(rng):
    """40 groups of 1-9 rows, with two singletons first and two last, and
    U(0.3, 1.7) gaps."""
    sizes = (1, 1) + tuple(int(v) for v in rng.integers(1, 10, 36)) + (1, 1)
    return GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.3, 1.7, m)).tolist()) for m in sizes))


@pytest.mark.parametrize("make", [_transect_design, _spread_design,
                                  _equal_gap_design, _singleton_edged_design])
def test_ou_series_nodes_match_a_40_digit_reference(make):
    # every node here has x_max <= 2 at all gaps, so log|R|, its slope and
    # Z'QZ come from the series over gap power moments; the nodes with
    # x_max in (1, 2] carry the most cancellation
    design = make(np.random.default_rng(8))
    ds = _on_design(design, 3)
    ou = GroupModel(Family.OU)
    two_max = 2.0 * design.gaps.max()
    t = np.concatenate([np.linspace(-40.0, -math.log(two_max) - 1e-9, 6),
                        np.log(np.array([1.2, 1.5, 1.8, 2.0 - 1e-12])
                               / two_max)])
    assert np.all(np.exp(t) * two_max <= _OU_SERIES_MAX)
    assert np.sum(np.exp(t) * two_max > 1.0) == 4
    (log_det_t, slope_t), W = _kernel_and_stats(ds, ou, t)
    # too many distinct gaps for the distinct-gap sums: the series ran
    assert design._distinct_gaps == () and design._ou_moments is not None
    for k, phi in enumerate(np.exp(t)):
        log_det_ref, log_scale, ratio_ref, ratio_scale, W_ref = (
            _ou_mp_reference(ds, phi))
        assert abs(log_det_t[k] - log_det_ref) <= 1e-14 * log_scale
        assert abs(slope_t[k] - ratio_ref) <= 1e-14 * ratio_scale
        assert np.all(np.isfinite(W[k]))
        assert (np.abs(W[k] - W_ref).max()
                <= 1e-12 * np.abs(W_ref).max()), (t[k], W[k], W_ref)


def test_ou_series_and_walk_agree_at_the_switch():
    # at the last phi with x_max <= _OU_SERIES_MAX and the first beyond
    # it, the kernel agrees with the walk called directly on the same phi
    rng = np.random.default_rng(9)
    design = _transect_design(rng)
    ds = _on_design(design, 4)
    ou = GroupModel(Family.OU)
    first, D, A = _markov_rows(ds)
    a, b = np.triu_indices(first.shape[1])
    pairs = np.stack([D.T[a] * D.T[b], D.T[a] * A.T[b] + A.T[a] * D.T[b],
                      A.T[a] * A.T[b]])
    two_max = 2.0 * design.gaps.max()
    below = _OU_SERIES_MAX / two_max
    while below * two_max > _OU_SERIES_MAX:
        below = np.nextafter(below, 0.0)
    above = np.nextafter(below, np.inf)
    assert below * two_max <= _OU_SERIES_MAX < above * two_max
    for phi in (below, above):
        log_det_p, ratio, upper = _log_det_slope(ou, design, np.array([phi]),
                                                 None, 1.0, pairs)
        walked = _ou_gap_sums(design, np.array([phi]), pairs)
        x = 2.0 * design.gaps * phi
        for got, want, terms in zip((log_det_p, ratio), walked,
                                    _ou_reference_terms(x)):
            assert abs(got[0] - want[0]) <= 1e-14 * np.abs(terms).sum()
        assert (np.abs(upper - walked[2]).max()
                <= 1e-14 * np.abs(walked[2]).max())
        if phi == above:
            for got, want in zip((log_det_p, ratio, upper), walked):
                assert got.tobytes() == want.tobytes()
    # phi = 0 is a series node: log|R| = -inf and every slope term is 1,
    # alone or beside other nodes
    log_det_0, ratio_0 = _log_det_slope(ou, design, 0.0, None, 1.0)
    assert log_det_0 == -np.inf and ratio_0 == design.gaps.size
    batch = _log_det_slope(ou, design, np.array([0.0, below, above, 3.0]),
                           None, 1.0)
    assert (batch[0][0], batch[1][0]) == (log_det_0, ratio_0)
    no_gaps = GroupedDesign(group_sizes=(1, 1), positions=((0.0,), (1.0,)))
    assert _log_det_slope(ou, no_gaps, 0.0, None, 1.0) == (0.0, 0.0)


def test_ou_series_nodes_are_not_walked(monkeypatch):
    # the walk sees only the nodes with x_max > _OU_SERIES_MAX, and none
    # when there are none
    design = _transect_design(np.random.default_rng(10))
    ou = GroupModel(Family.OU)
    walked = []
    walk = _ou_gap_sums

    def counted(design, phi, pairs=None):
        walked.append(np.array(phi, dtype=float))
        return walk(design, phi, pairs)

    monkeypatch.setattr("grouppc.corr._ou_gap_sums", counted)
    t = np.linspace(-12.0, 12.0, 201)
    series = np.exp(t) * 2.0 * design.gaps.max() <= _OU_SERIES_MAX
    assert 90 <= series.sum() < t.size
    _internal_kernel(ou, design, t)
    assert len(walked) == 1
    assert_array_equal(walked[0], np.exp(t)[~series])
    walked.clear()
    _kernel_and_stats(_on_design(design, 5), ou, t[series])
    assert not walked


def test_ou_series_moments_are_built_once_per_design(monkeypatch):
    # the gap power rows and S_2n depend on the design alone: the first
    # series call derives them, later calls on the design reuse them, and
    # an equal design built anew derives its own
    built = []

    def counted(design):
        built.append(design)
        return _ou_moments(design)

    monkeypatch.setattr("grouppc.corr._ou_moments", counted)
    design = _transect_design(np.random.default_rng(11))
    ds = _on_design(design, 6)
    ou = GroupModel(Family.OU)
    t = np.linspace(-12.0, 12.0, 41)
    for _ in range(3):
        _internal_kernel(ou, design, t)
        _kernel_and_stats(ds, ou, t)
        _kernel_and_stats(ds, ou, t[:1])
    assert len(built) == 1 and built[0] is design
    odd, even, *_ = design._ou_moments
    assert not odd.flags.writeable and not even.flags.writeable
    again = GroupedDesign(design.group_sizes, design.positions)
    _internal_kernel(ou, again, t)
    assert len(built) == 2 and built[1] is again


def test_ou_series_sums_equal_on_a_fresh_and_a_reused_design():
    # the call that derives the design's moments, a later call that reuses
    # them and a call on an equal design built anew agree bit for bit
    design = _transect_design(np.random.default_rng(12))
    first, D, A = _markov_rows(_on_design(design, 7))
    a, b = np.triu_indices(first.shape[1])
    pairs = np.stack([D.T[a] * D.T[b], D.T[a] * A.T[b] + A.T[a] * D.T[b],
                      A.T[a] * A.T[b]])
    x_max = np.array([1e-3, 0.3, 1.5, 2.0])
    for with_pairs in (pairs, None):
        design = GroupedDesign(design.group_sizes, design.positions)
        assert design._ou_moments is None
        deriving = _ou_series_sums(design, x_max, with_pairs)
        reusing = _ou_series_sums(design, x_max, with_pairs)
        fresh = _ou_series_sums(
            GroupedDesign(design.group_sizes, design.positions), x_max,
            with_pairs)
        assert len(deriving) == (2 if with_pairs is None else 3)
        for got in (reusing, fresh):
            for u, v in zip(deriving, got):
                assert u.tobytes() == v.tobytes()


# ----------------------------------------------------------------------
# distinct-gap sums: designs with at most 21 distinct gap values
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_values", [1, 3, 21])
def test_ou_distinct_gap_sums_match_a_40_digit_reference(n_values,
                                                          monkeypatch):
    # gaps k / 4, k = 1 .. n_values, exact in binary: every node sums
    # the distinct values' terms weighted by their counts, never the
    # series nor a walk over every gap, from x_max near 0 through the
    # series' range to x_min = 40; Z'QZ takes the pair products summed per
    # value first.  The bounds are those of the series nodes
    design = _gap_values_design(np.arange(1, n_values + 1) / 4.0,
                                np.random.default_rng(13))
    assert np.unique(design.gaps).size == n_values

    def refused(*args):
        raise AssertionError("the series ran on a distinct-gap design")

    monkeypatch.setattr("grouppc.corr._ou_series_sums", refused)
    ds = _on_design(design, 8)
    ou = GroupModel(Family.OU)
    two_max, two_min = 2.0 * design.gaps.max(), 2.0 * design.gaps.min()
    t = np.concatenate([np.linspace(-40.0, -math.log(two_max), 5),
                        np.log(np.array([1.5, 2.0, 2.5, 8.0]) / two_max),
                        [math.log(40.0 / two_min)]])
    (log_det_t, slope_t), W = _kernel_and_stats(ds, ou, t)
    assert design._ou_moments is None
    assert _distinct_gaps(design)[1].sum() == design.gaps.size
    for k, phi in enumerate(np.exp(t)):
        log_det_ref, log_scale, ratio_ref, ratio_scale, W_ref = (
            _ou_mp_reference(ds, phi))
        assert abs(log_det_t[k] - log_det_ref) <= 1e-14 * log_scale
        assert abs(slope_t[k] - ratio_ref) <= 1e-14 * ratio_scale
        assert (np.abs(W[k] - W_ref).max()
                <= 1e-12 * np.abs(W_ref).max()), (t[k], W[k], W_ref)
    # nodes whose terms all underflow give +0.0, as on the walk
    for sums in _internal_kernel(ou, design, np.array([10.0, np.inf])):
        assert not sums.any() and not np.signbit(sums).any()


def test_ou_sums_on_22_distinct_gaps_take_the_series_and_the_walk(
        monkeypatch):
    # one value past the distinct-gap sums: the design keeps the series at
    # x_max <= 2 and the walk over every gap beyond, while 21 values never
    # reach either
    calls = []
    series, walk = _ou_series_sums, _ou_gap_sums

    def counted_series(design, x_max, pairs=None):
        calls.append("series")
        return series(design, x_max, pairs)

    def counted_walk(design, phi, pairs=None, distinct=()):
        calls.append("distinct" if distinct else "walk")
        return walk(design, phi, pairs, distinct)

    monkeypatch.setattr("grouppc.corr._ou_series_sums", counted_series)
    monkeypatch.setattr("grouppc.corr._ou_gap_sums", counted_walk)
    ou = GroupModel(Family.OU)
    t = np.linspace(-6.0, 3.0, 9)
    bound = len(_OU_COEFS)
    for n_values, want in ((bound + 1, ["series", "walk"]),
                           (bound, ["distinct"])):
        design = _gap_values_design(np.arange(1, n_values + 1) / 4.0,
                                    np.random.default_rng(14))
        assert np.unique(design.gaps).size == n_values
        _internal_kernel(ou, design, t)
        _kernel_and_stats(_on_design(design, 9), ou, t)
        assert calls == want * 2
        calls.clear()
        assert (_distinct_gaps(design) == ()) is (n_values > bound)


def test_distinct_gaps_are_kept_read_only_outside_equality():
    # derived on the first OU kernel call and kept on the design, read-only;
    # neither ==, hash nor repr sees them
    design = _gap_values_design([0.5, 1.0, 2.5], np.random.default_rng(15))
    fresh = GroupedDesign(design.group_sizes, design.positions)
    assert design._distinct_gaps is None
    _internal_kernel(GroupModel(Family.OU), design, np.zeros(3))
    kept = design._distinct_gaps
    values, counts, order, bounds = kept
    assert values.tolist() == [0.5, 1.0, 2.5]
    assert counts.sum() == design.gaps.size and bounds[-1] == design.gaps.size
    for run, value in zip(np.split(design.gaps[order], bounds[1:-1]), values):
        assert np.all(run == value)
    assert not values.flags.writeable and not counts.flags.writeable
    assert not order.flags.writeable
    _internal_kernel(GroupModel(Family.OU), design, np.zeros(3))
    assert design._distinct_gaps is kept
    assert design == fresh and hash(design) == hash(fresh)
    assert repr(design) == repr(fresh)


def _log1pmx_where(x, log1p_x=None):
    """`_log1pmx` as np.where over the whole array, the form it replaced."""
    out = (np.log1p(x) if log1p_x is None else log1p_x) - x
    near = np.abs(x) < 0.1
    if near.ndim == 0:
        return _log1pmx_near(x) if near else out
    return np.where(near, _log1pmx_near(x), out) if near.any() else out


def test_log1pmx_takes_the_series_on_near_elements_bitwise():
    # the series runs on the elements within 0.1 of 0 only: bit for bit
    # the np.where form on mixed arrays, all-near and all-far ones, 0-d
    # input, +-0 and a caller's log(1 + x)
    rng = np.random.default_rng(16)
    mixed = np.concatenate([rng.uniform(-0.2, 0.2, 40), [0.0, -0.0, 0.1,
                            -0.1, np.nextafter(0.1, 0), -0.999, 1e-300]])
    for x in (mixed, mixed.reshape(-1, 1) * np.ones(3), mixed[np.abs(mixed)
              < 0.1], mixed[np.abs(mixed) >= 0.1], np.array([0.0, -0.0])):
        for log1p_x in (None, np.log1p(x)):
            got, want = _log1pmx(x, log1p_x), _log1pmx_where(x, log1p_x)
            assert got.shape == want.shape
            assert _bits(got).tobytes() == _bits(want).tobytes()
    for x in (0.0, -0.0, 0.05, -0.3, np.float64(-0.0), np.array(0.05),
              np.array(-0.0)):
        assert _bits(_log1pmx(x)) == _bits(_log1pmx_where(x))
    assert np.signbit(_log1pmx(np.array([-0.0])))[0]
