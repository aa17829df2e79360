"""Correlation structures: closed forms against dense linear algebra."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from grouppc import (
    ConfigurationError,
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
    _ou_gap_sums,
    dlogdet_finite_difference,
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
        for cached in (d.offsets, d.gaps, d.spacings(0), d.all_spacings()):
            with pytest.raises(ValueError):
                cached[...] = 0.0
        # the cached arrays are derived, not part of the design's identity
        twin = GroupedDesign(group_sizes=d.group_sizes, positions=d.positions)
        assert twin == d and hash(twin) == hash(d)
        assert "gaps" not in repr(d) and "offsets" not in repr(d)


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


def test_design_size_classes_count_each_size():
    d = GroupedDesign(group_sizes=(3, 1, 3, 2, 3, 1))
    assert d.size_classes == ((1, 2), (2, 1), (3, 3))
    assert all(type(v) is int for pair in d.size_classes for v in pair)
    assert d.total_size == 13 and type(d.total_size) is int
    assert "size_classes" not in repr(d)
    assert d == GroupedDesign(group_sizes=d.group_sizes)


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
    d = balanced_design(3, 7)
    for rho in (0.05, 0.4, 0.95):
        assert_allclose(log_det(OU_UNIT, d, -np.log(rho)),
                        log_det(AR1, d, rho), rtol=1e-13)


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


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_ou_closed_forms_are_chunk_invariant(chunk, monkeypatch):
    # the OU sums over gaps run a block of nodes at a time, one contiguous
    # row of gaps per node: every node's sum is the same, bit for bit,
    # whatever its block, and a scalar phi gives its batched value
    rng = np.random.default_rng(11)
    sizes = tuple(int(v) for v in rng.integers(1, 13, 30))
    design = GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.3, 1.8, m)).tolist()) for m in sizes))
    ou = GroupModel(Family.OU)
    for n in (1, chunk, chunk + 1, 3 * chunk + 1, 40):
        t = rng.uniform(-4.0, 4.0, n)
        phi = np.exp(t)
        whole = (*_internal_kernel(ou, design, t),
                 log_det(ou, design, phi.reshape(1, n))[0],
                 dlogdet_dparam(ou, design, phi))
        monkeypatch.setattr("grouppc.corr._OU_BLOCK",
                            chunk * design.gaps.size)
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
