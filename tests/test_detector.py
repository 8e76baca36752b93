"""Detector response model: frozen values, exact limits, oracle equivalence."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countfix.detector import (
    ConditionalMatrix,
    DetectorParams,
    build_matrix,
    _poisson_table,
    _poisson_tail_quantile,
    _tail_table,
)
from oracles import (
    conv_column,
    enum_conditional,
    poisson_pmf_exact,
    poisson_tail_quantile,
    poisson_text_errors,
)

# smallest q with P(Poisson(lam) > q) <= 1e-10, checked against the exact mpmath tail
EXPECTED_QUANTILES = {0.0: 0, 0.5: 10, 1.0: 12, 2.0: 16, 5.0: 25, 10.0: 36}


def entry(params, m, n):
    """P(m|n), read from the smallest built matrix that holds row m and column n."""
    return build_matrix(params, max(m, n)).entries[m, n]


def pmf(lam, d):
    """Poisson(lam) pmf at d, read from column 0 of P(m|n)."""
    return entry(DetectorParams(p_loss=0.0, lam=lam), d, 0)


def test_poisson_pmf_frozen_value():
    assert pmf(2.0, 3) == pytest.approx(0.18044704431548359, rel=1e-14)


def test_poisson_pmf_degenerate_rate():
    assert pmf(0.0, 0) == 1.0
    assert pmf(0.0, 4) == 0.0


def test_poisson_pmf_zero_count():
    assert pmf(5.0, 0) == pytest.approx(math.exp(-5.0), rel=1e-15)


@given(lam=st.floats(1e-6, 50.0), d=st.integers(0, 150))
def test_poisson_pmf_matches_scipy(lam, d):
    # the id predates the exact reference, which replaced scipy's pmf
    assert pmf(lam, d) == pytest.approx(
        float(poisson_pmf_exact(lam, d)), rel=1e-11, abs=1e-300
    )


def test_conditional_frozen_value():
    params = DetectorParams(p_loss=0.3, lam=0.5)
    assert entry(params, 1, 2) == pytest.approx(0.28203675676637454, rel=5e-15)


def test_conditional_single_photon_half_loss():
    params = DetectorParams(p_loss=0.5, lam=0.0)
    assert entry(params, 1, 1) == 0.5


def test_conditional_ideal_is_identity():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.0), 7)
    for n in range(6):
        for m in range(8):
            assert mat.entries[m, n] == (1.0 if m == n else 0.0)


def test_conditional_total_loss_is_pure_dark_counts():
    mat = build_matrix(DetectorParams(p_loss=1.0, lam=1.7), 4)
    for n in range(5):
        for m in range(6):
            assert mat.entries[m, n] == pmf(1.7, m)


def test_conditional_no_loss_is_shifted_dark_counts():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.8), 3)
    for n in range(4):
        for m in range(8):
            expected = pmf(0.8, m - n) if m >= n else 0.0
            assert mat.entries[m, n] == expected


def test_poisson_pmf_keeps_a_tiny_rate():
    assert pmf(1e-300, 1) == 1e-300


def test_poisson_pmf_is_zero_outside_the_table():
    # rows 242..312 of column 0 lie past the table's upper edge, count 241
    hi = _tail_table(1.0)[1]
    column = build_matrix(DetectorParams(p_loss=0.5, lam=1.0), 300).entries[:, 0]
    assert len(column) > hi + 1
    assert np.all(column[hi + 1 :] == 0.0)


def test_poisson_table_is_built_once_per_rate():
    # a caller that builds matrices of one rate, as a run's size check and build do, pays for one table
    _poisson_table.cache_clear()
    lo = _tail_table(2500.0)[0]
    table = _poisson_table(2500.0)[2400 - lo : 2601 - lo]
    column = build_matrix(DetectorParams(p_loss=0.3, lam=2500.0), 6).entries[:, 0]
    assert column[[2400, 2500, 2600]].tolist() == table[::100].tolist()
    assert _poisson_table.cache_info().misses == 1
    assert not _poisson_table(2500.0).flags.writeable
    # -0.0 reads as 0.0: whether or not 0.0's table is held, no zero is -0.0
    _poisson_table.cache_clear()
    assert math.copysign(1.0, pmf(-0.0, 1)) == 1.0
    assert math.copysign(1.0, pmf(0.0, 1)) == 1.0
    assert math.copysign(1.0, pmf(-0.0, 1)) == 1.0


def test_no_dark_counts_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = build_matrix(DetectorParams(p_loss=0.3, lam=0.0), 5)
    assert mat.m_max == 5


# Every count whose pmf is a normal double at lam 5, 100 and 800; at lam 1e5,
# every 7th count within 2000 of the mode (572 cells).
@pytest.mark.parametrize("lam", [5.0, 100.0, 800.0, 1e5])
def test_poisson_cells_print_their_correctly_rounded_text(lam):
    lo, hi = _tail_table(lam)
    counts = range(98000, 102001, 7) if lam == 1e5 else range(lo, hi + 1)
    values = _poisson_table(lam)[counts.start - lo : counts.stop - lo : counts.step]
    wrong, worst = poisson_text_errors(lam, counts, values)
    assert wrong == 0
    assert worst <= 2e-14


# The table holds every pmf value a double can carry: past either edge the
# pmf is below the smallest subnormal, 2^-1074. The largest such value,
# e^-759.4, is just past the upper edge near lam 323.
@pytest.mark.parametrize("lam", [1e-300, 1e-6, 1.0, 10.0, 300.0, 2000.0, 1e4, 1e6, 1e8])
def test_poisson_table_misses_no_representable_value(lam):
    lo, hi = _tail_table(lam)
    edges = [hi + 1] + ([lo - 1] if lo > 0 else [])
    for d in edges:
        assert poisson_pmf_exact(lam, d) < 2.0**-1074, d


@settings(max_examples=200, deadline=None)
@given(
    p_loss=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 6.0),
    n=st.integers(0, 6),
    m=st.integers(0, 10),
)
def test_conditional_matches_enumeration(p_loss, lam, n, m):
    params = DetectorParams(p_loss=p_loss, lam=lam)
    assert entry(params, m, n) == pytest.approx(
        enum_conditional(p_loss, lam, m, n), abs=1e-12
    )


@pytest.mark.parametrize("p_loss", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_matrix_matches_convolution_oracle(p_loss, lam):
    mat = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), 10)
    for n in range(11):
        expected = conv_column(p_loss, lam, n, mat.m_max)
        np.testing.assert_allclose(mat.entries[:, n], expected, atol=1e-12)


# Relative tolerance 2e-12 on every entry above 1e-250; the worst measured
# was 9.1e-13. Where the oracle is at or below 1e-250, entries stay at most 2e-250.
@pytest.mark.parametrize("p_loss, lam", [(0.3, 2.5), (0.99, 100.0), (0.5, 5.0), (0.0, 1.0), (1.0, 3.0)])
def test_large_matrix_matches_convolution_oracle(p_loss, lam):
    mat = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), 400)
    for n in (0, 133, 266, 400):
        actual = mat.entries[:, n]
        expected = conv_column(p_loss, lam, n, mat.m_max)
        big = expected > 1e-250
        np.testing.assert_allclose(actual[big], expected[big], rtol=2e-12, err_msg=f"n={n}")
        assert np.all(actual[~big] <= 2e-250), f"n={n}"


def test_no_dark_counts_is_pure_binomial_loss():
    mat = build_matrix(DetectorParams(p_loss=0.4, lam=0.0), 6)
    for n in range(6):
        for m in range(n + 1):
            expected = math.comb(n, m) * 0.6**m * 0.4 ** (n - m)
            assert mat.entries[m, n] == pytest.approx(expected, rel=1e-14)
        assert mat.entries[n + 1, n] == 0.0


def test_tightening_tail_never_shrinks_matrix():
    depths = [
        build_matrix(DetectorParams(p_loss=0.2, lam=3.0, tail_epsilon=eps), 4).m_max
        for eps in (1e-4, 1e-8, 1e-12)
    ]
    assert depths == sorted(depths)
    assert depths[0] < depths[-1]


@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.5, 1.0, 5.0, 10.0, 100.0, 800.0, 1e3, 1e4])
@pytest.mark.parametrize("epsilon", [1e-4, 1e-10, 1e-12, 1e-15])
def test_tail_quantile_matches_incomplete_gamma_search(lam, epsilon):
    assert _poisson_tail_quantile(lam, epsilon) == poisson_tail_quantile(lam, epsilon)


def test_matrix_row_depth_uses_frozen_dark_quantiles():
    for lam, q in EXPECTED_QUANTILES.items():
        mat = build_matrix(DetectorParams(p_loss=0.2, lam=lam), 0)
        assert mat.m_max == q, f"lam={lam}"


def test_matrix_ideal_is_identity():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.0), 19)
    assert mat.m_max == 19
    np.testing.assert_array_equal(mat.entries, np.eye(20))


def test_half_loss_without_dark_counts_is_exact_binomial():
    # every entry is the dyadic C(n, m) / 2^n; halving and adding dyadics is exact
    mat = build_matrix(DetectorParams(p_loss=0.5, lam=0.0), 19)
    assert mat.m_max == 19
    for n in range(20):
        for m in range(20):
            exact = math.comb(n, m) * 2.0**-n
            assert mat.entries[m, n] == exact, (m, n)


def test_matrix_total_loss_concentrates_at_zero():
    mat = build_matrix(DetectorParams(p_loss=1.0, lam=0.0), 4)
    np.testing.assert_array_equal(mat.entries[0], np.ones(5))
    assert np.all(mat.entries[1:] == 0.0)


# An entry does not depend on the size of its matrix: n_max 6's entries equal
# n_max 30's bit for bit. (0, 0.8) and (1, 1.7) reach the exact no-loss and
# total-loss branches, and (0.99, 800) the dark-count-swamped regime with a deep
# m range. At lam 2500 and 1e4 the Poisson table starts above count 0; there
# every row within 10 of its lower edge is checked, and every 41st row elsewhere.
@pytest.mark.parametrize(
    "p_loss, lam", [(0.35, 1.3), (0.0, 0.8), (1.0, 1.7), (0.99, 800.0), (0.3, 2500.0), (0.99, 1e4)]
)
def test_matrix_entries_match_scalar_evaluation_bitwise(p_loss, lam):
    params = DetectorParams(p_loss=p_loss, lam=lam)
    mat = build_matrix(params, 6)
    large = build_matrix(params, 30)
    lo = _tail_table(lam)[0]
    rows = range(mat.m_max + 1)
    if lo > 0:
        rows = sorted({*range(lo - 10, lo + 10), *rows[::41]})
    for n in range(7):
        for m in rows:
            assert mat.entries[m, n] == large.entries[m, n]


@pytest.mark.parametrize("p_loss, lam", [(0.4, 2.0), (0.0, 0.8), (1.0, 1.7), (0.99, 800.0)])
def test_matrix_grows_consistently_with_n_max(p_loss, lam):
    params = DetectorParams(p_loss=p_loss, lam=lam)
    small = build_matrix(params, 6)
    large = build_matrix(params, 9)
    np.testing.assert_array_equal(
        large.entries[: small.m_max + 1, :7], small.entries
    )


@pytest.mark.parametrize("p_loss", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
def test_matrix_columns_nearly_normalized(p_loss, lam):
    mat = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), 12)
    for n in range(13):
        s = math.fsum(mat.entries[:, n].tolist())
        assert s <= 1.0 + 1e-12
        assert s >= 1.0 - 1e-10


@settings(max_examples=60, deadline=None)
@given(
    p_loss=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 20.0),
    n=st.integers(0, 12),
    tail_eps=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_matrix_truncation_bounded_by_tail(p_loss, lam, n, tail_eps):
    params = DetectorParams(p_loss=p_loss, lam=lam, tail_epsilon=tail_eps)
    mat = build_matrix(params, n)
    s = math.fsum(mat.entries[:, n].tolist())
    assert 1.0 - tail_eps - 1e-12 <= s <= 1.0 + 1e-12


def test_matrix_entries_are_immutable():
    mat = build_matrix(DetectorParams(p_loss=0.5, lam=1.0), 3)
    assert not mat.entries.flags.writeable
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 0.5


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_matrix_build_peaks_near_its_result(lam):
    # the result is built in place and adopted, not copied to be validated
    tracemalloc.start()
    try:
        mat = build_matrix(DetectorParams(p_loss=0.5, lam=lam), 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * mat.entries.nbytes


def test_matrix_copies_every_callers_entries():
    writable = np.eye(3)
    mat = ConditionalMatrix(entries=writable)
    assert writable.flags.writeable
    assert not np.shares_memory(mat.entries, writable)
    frozen_view = np.eye(4)[:3, :3]
    frozen_view.setflags(write=False)
    assert not np.shares_memory(ConditionalMatrix(entries=frozen_view).entries, frozen_view)
    frozen = np.eye(3)
    frozen.setflags(write=False)
    assert not np.shares_memory(ConditionalMatrix(entries=frozen).entries, frozen)


def test_matrix_keeps_its_entries_when_the_caller_thaws_its_array():
    a = np.eye(3)
    a.setflags(write=False)
    mat = ConditionalMatrix(entries=a)
    a.setflags(write=True)
    a[0, 0] = 7.0
    assert mat.entries[0, 0] == 1.0
    assert not mat.entries.flags.writeable


def test_matrix_shape_validation():
    good = np.eye(3)
    ConditionalMatrix(entries=good)
    tall = ConditionalMatrix(entries=np.full((4, 2), 0.25))  # the sizes are read from the shape
    assert (tall.n_max, tall.m_max) == (1, 3)
    for bad_shape in (np.ones(3), np.ones((1, 1, 1)), np.empty((0, 3)), np.empty((3, 0))):
        with pytest.raises(ValueError, match="nonempty 2-d"):
            ConditionalMatrix(entries=bad_shape)
    with pytest.raises(ValueError):
        ConditionalMatrix(entries=good + 0.9)
    bad = good.copy()
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        ConditionalMatrix(entries=bad)


def test_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(p_loss=-0.1, lam=0.0)
    with pytest.raises(ValueError):
        DetectorParams(p_loss=1.1, lam=0.0)
    with pytest.raises(ValueError):
        DetectorParams(p_loss=0.5, lam=-1.0)
    with pytest.raises(ValueError):
        DetectorParams(p_loss=0.5, lam=0.0, tail_epsilon=0.0)
    with pytest.raises(ValueError):
        DetectorParams(p_loss=0.5, lam=0.0, tail_epsilon=1.0)
    with pytest.raises(ValueError):
        DetectorParams(p_loss=math.nan, lam=0.0)


def test_negative_zero_params_are_stored_as_zero():
    params = DetectorParams(p_loss=-0.0, lam=-0.0)
    assert math.copysign(1.0, params.p_loss) == 1.0
    assert math.copysign(1.0, params.lam) == 1.0


def test_params_frozen():
    params = DetectorParams(p_loss=0.5, lam=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.p_loss = 0.2


def test_count_arguments_validated():
    params = DetectorParams(p_loss=0.5, lam=1.0)
    with pytest.raises(ValueError):
        build_matrix(params, -1)
    with pytest.raises(ValueError):
        build_matrix(params, 2.5)
    for flag in (True, False):  # a bool is not a count, though it indexes as one
        with pytest.raises(ValueError):
            build_matrix(params, flag)
