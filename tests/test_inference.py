"""Bayesian inversion and signature optimisation against the enumeration oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from countfix.detector import ConditionalMatrix, DetectorParams, build_matrix
from countfix.inference import OptimisationReport, PosteriorMatrix, optimisation_map, posterior
from countfix.montecarlo import EmpiricalColumn
from countfix.priors import NumberPrior, custom_prior, pdc_prior, uniform_prior
from oracles import (
    argmax_smallest,
    dark_avg_fidelity_raw,
    dark_mean,
    dark_optmap,
    enum_posterior,
    loss_avg_fidelity_raw,
    loss_odds,
    loss_optmap,
    pdc_marginal_exact,
    pdc_raw_fidelity_exact,
)

LOSSY = DetectorParams(p_loss=0.5, lam=0.0)
NOISY = DetectorParams(p_loss=0.3, lam=1.2)


def test_ideal_posterior_is_identity_full_support():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.0), 19)
    post = posterior(mat, pdc_prior(0.7, n_max=19))
    assert post.defined.all()
    np.testing.assert_allclose(post.entries, np.eye(20), atol=1e-15)


def test_ideal_posterior_truncated_prior_leaves_tail_undefined():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.0), 19)
    post = posterior(mat, uniform_prior(0, 9))
    np.testing.assert_array_equal(post.defined, np.arange(20) <= 9)
    np.testing.assert_allclose(post.entries[:10, :10], np.eye(10), atol=1e-15)
    assert np.all(post.entries[:, 10:] == 0.0)


def test_total_loss_posterior_reproduces_prior_at_zero():
    mat = build_matrix(DetectorParams(p_loss=1.0, lam=0.0), 6)
    prior = pdc_prior(0.6, n_max=6)
    post = posterior(mat, prior)
    np.testing.assert_array_equal(post.defined, [True] + [False] * 6)
    np.testing.assert_allclose(post.entries[:, 0], prior.probs, rtol=1e-14)
    assert post.outcome_marginal[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p_loss", [0.3, 0.7])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_posterior_matches_enumeration_oracle(p_loss, lam):
    params = DetectorParams(p_loss=p_loss, lam=lam)
    mat = build_matrix(params, 4)
    prior = pdc_prior(0.6, n_max=4)
    post = posterior(mat, prior)
    expected, marginal, defined = enum_posterior(p_loss, lam, prior.probs, mat.m_max)
    np.testing.assert_array_equal(post.defined, defined)
    np.testing.assert_allclose(post.entries, expected, atol=1e-12)
    np.testing.assert_allclose(post.outcome_marginal, marginal, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    p_loss=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 4.0),
    chi=st.floats(0.0, 0.9),
    n_max=st.integers(0, 5),
)
def test_posterior_oracle_property(p_loss, lam, chi, n_max):
    mat = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), n_max)
    prior = pdc_prior(chi, n_max=n_max)
    post = posterior(mat, prior)
    expected, marginal, defined = enum_posterior(p_loss, lam, prior.probs, mat.m_max)
    np.testing.assert_array_equal(post.defined, defined)
    np.testing.assert_allclose(post.entries, expected, atol=1e-12)
    np.testing.assert_allclose(post.outcome_marginal, marginal, atol=1e-12)


def test_posterior_columns_normalized_and_marginal_mass_retained():
    mat = build_matrix(NOISY, 12)
    for prior in (pdc_prior(0.7, n_max=12), uniform_prior(0, 9)):
        post = posterior(mat, prior)
        for m in np.flatnonzero(post.defined):
            s = math.fsum(post.entries[:, m].tolist())
            assert s == pytest.approx(1.0, abs=1e-12)
        mass = math.fsum(post.outcome_marginal.tolist())
        assert 1.0 - 2e-10 <= mass <= 1.0 + 1e-12


def test_short_prior_is_zero_padded():
    mat = build_matrix(LOSSY, 6)
    short = posterior(mat, uniform_prior(0, 3))
    padded = posterior(mat, custom_prior([1, 1, 1, 1, 0, 0, 0]))
    np.testing.assert_array_equal(short.entries[:4], padded.entries[:4])
    assert np.all(padded.entries[4:] == 0.0)
    np.testing.assert_array_equal(short.outcome_marginal, padded.outcome_marginal)


def test_long_prior_with_zero_excess_is_truncated():
    mat = build_matrix(LOSSY, 2)
    post = posterior(mat, custom_prior([1, 1, 1, 0, 0]))
    assert post.n_max == 2


def test_long_prior_with_mass_beyond_matrix_rejected():
    mat = build_matrix(LOSSY, 2)
    with pytest.raises(ValueError, match="n_max"):
        posterior(mat, uniform_prior(0, 4))


def test_undefined_outcomes_are_flagged_not_fatal():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=0.0), 6)
    post = posterior(mat, uniform_prior(0, 3))
    report = optimisation_map(post)
    undefined = np.arange(7) > 3
    np.testing.assert_array_equal(~post.defined, undefined)
    assert np.all(post.outcome_marginal[undefined] == 0.0)
    assert np.all(report.map[undefined] == -1)
    assert np.all(np.isnan(report.fidelity_raw[undefined]))
    assert np.all(np.isnan(report.fidelity_opt[undefined]))


def test_exact_tie_resolves_to_smallest_n():
    entries = np.full((2, 2), 0.5)
    mat = ConditionalMatrix(entries=entries)
    report = optimisation_map(posterior(mat, uniform_prior(0, 1)))
    np.testing.assert_array_equal(report.map, [0, 0])
    assert report.tie.all()
    np.testing.assert_allclose(report.fidelity_opt, [0.5, 0.5], rtol=1e-15)


def test_map_values_stay_inside_prior_support():
    mat = build_matrix(NOISY, 9)
    post = posterior(mat, pdc_prior(0.7, n_max=9))
    report = optimisation_map(post)
    defined = post.defined
    assert np.all(report.map[defined] >= 0)
    assert np.all(report.map[defined] <= 9)


def test_optimised_fidelity_is_posterior_at_mapped_signature():
    mat = build_matrix(NOISY, 9)
    post = posterior(mat, pdc_prior(0.7, n_max=9))
    report = optimisation_map(post)
    for m in np.flatnonzero(post.defined):
        chosen = post.entries[report.map[m], m]
        if report.tie[m]:
            assert report.fidelity_opt[m] == pytest.approx(chosen, rel=2e-12)
        else:
            assert report.fidelity_opt[m] == chosen
        assert report.fidelity_opt[m] == post.entries[:, m].max()


def test_fidelity_improvement_pointwise():
    for params in (LOSSY, NOISY, DetectorParams(p_loss=0.0, lam=5.0)):
        mat = build_matrix(params, 12)
        for prior in (pdc_prior(0.7, n_max=12), uniform_prior(0, 9)):
            post = posterior(mat, prior)
            report = optimisation_map(post)
            defined = np.flatnonzero(post.defined)
            assert np.all(
                report.fidelity_opt[defined] >= report.fidelity_raw[defined]
            )
            assert report.avg_fidelity_opt >= report.avg_fidelity_raw


def test_raw_fidelity_zero_beyond_prior_support():
    mat = build_matrix(DetectorParams(p_loss=0.0, lam=5.0), 4)
    post = posterior(mat, uniform_prior(0, 4))
    report = optimisation_map(post)
    beyond = np.flatnonzero(post.defined & (np.arange(mat.m_max + 1) > 4))
    assert beyond.size > 0
    assert np.all(report.fidelity_raw[beyond] == 0.0)


def test_average_fidelities_are_marginal_weighted():
    mat = build_matrix(NOISY, 9)
    post = posterior(mat, uniform_prior(0, 9))
    report = optimisation_map(post)
    defined = np.flatnonzero(post.defined)
    raw = math.fsum(
        (post.outcome_marginal[m] * report.fidelity_raw[m] for m in defined)
    )
    opt = math.fsum(
        (post.outcome_marginal[m] * report.fidelity_opt[m] for m in defined)
    )
    assert report.avg_fidelity_raw == pytest.approx(raw, rel=1e-13)
    assert report.avg_fidelity_opt == pytest.approx(opt, rel=1e-13)


@pytest.mark.parametrize(
    "p_loss, lam, n_max, chi",
    # OpenBLAS's SkylakeX ddot put one average of each 1 ulp from its correctly rounded sum
    [(0.0, 10.0, 19, 0.7), (0.3, 2.5, 400, 0.9), (0.99, 800.0, 60, 0.745072)],
)
def test_averages_are_correctly_rounded_sums(p_loss, lam, n_max, chi):
    post = posterior(build_matrix(DetectorParams(p_loss=p_loss, lam=lam), n_max), pdc_prior(chi, n_max=n_max))
    report = optimisation_map(post)
    defined = np.flatnonzero(post.defined).tolist()
    p_m = post.outcome_marginal
    assert report.avg_fidelity_raw == math.fsum(p_m[m] * report.fidelity_raw[m] for m in defined)
    assert report.avg_fidelity_opt == math.fsum(p_m[m] * report.fidelity_opt[m] for m in defined)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 20.0, exclude_min=True), chi=st.floats(0.1, 0.9), n_max=st.integers(0, 59))
@example(lam=2.0, chi=0.5, n_max=30)  # mu = 8: m - 8 ties with m - 7
@example(lam=4.5, chi=0.75, n_max=40)  # mu = 8, with ties rounded apart by an ulp or so
@example(lam=0.25, chi=0.5, n_max=5)  # mu = 1: every m >= 1 but the capped ones ties
@example(lam=0.01, chi=0.9, n_max=10)  # mu < 1: the identity, capped at n_max
@example(lam=20.0, chi=0.1, n_max=59)  # mu near 2000: every outcome maps to 0
@example(lam=20.0, chi=0.5, n_max=59)  # mu = 80: m >= 80 maps down by 80, with a tie
@example(lam=5e-324, chi=0.9, n_max=59)
def test_pure_dark_counts_match_their_closed_form(lam, chi, n_max):
    """Maps, ties and the mean raw fidelity at p_loss 0 against oracles.dark_optmap.

    A mu within 1e-9 of a whole number k <= m_max, but not whole, puts two
    hypotheses of outcome m >= k within TIE_RTOL of each other while the
    closed form ranks them apart, so such draws are skipped; a whole mu is
    kept, ties and all.
    """
    post = posterior(build_matrix(DetectorParams(p_loss=0.0, lam=lam), n_max), pdc_prior(chi, n_max=n_max))
    mu = dark_mean(lam, chi)
    assume(mu.denominator == 1 or abs(mu - round(mu)) > 1e-9 * mu or round(mu) > post.m_max)
    report = optimisation_map(post)
    assert post.defined.all()
    maps, ties = dark_optmap(lam, chi, n_max, post.m_max)
    assert report.map.tolist() == maps
    assert report.tie.tolist() == ties
    assert report.avg_fidelity_raw == pytest.approx(dark_avg_fidelity_raw(lam), rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(p_loss=st.floats(0.01, 0.99), chi=st.floats(0.1, 0.9), n_max=st.integers(0, 59))
@example(p_loss=0.5, chi=0.5, n_max=30)  # x = 1/8: t = (m - 7) / 7 ties at m = 7, 14, 21 and 28
@example(p_loss=0.5, chi=0.5, n_max=14)  # the tie at m = 14 is capped
@example(p_loss=0.01, chi=0.1, n_max=59)  # x = 1e-4: the identity
@example(p_loss=0.99, chi=0.9, n_max=59)  # x near 0.8: every m >= 1 maps to n_max
@example(p_loss=0.99, chi=0.1, n_max=0)
def test_pure_loss_matches_its_closed_form(p_loss, chi, n_max):
    """Maps, ties and the mean raw fidelity at lam 0 against oracles.loss_optmap.

    A neighbour ratio P(n+1|m) / P(n|m) within 1e-9 of 1, but not 1, puts
    two hypotheses within TIE_RTOL of each other while the closed form ranks
    them apart, so such draws are skipped; an exact tie is kept.
    """
    x = loss_odds(p_loss, chi)
    assume(all(not 0 < abs(x * (n + 1) / (n + 1 - m) - 1) < 1e-9 for m in range(n_max + 1) for n in range(m, n_max)))
    post = posterior(build_matrix(DetectorParams(p_loss=p_loss, lam=0.0), n_max), pdc_prior(chi, n_max=n_max))
    report = optimisation_map(post)
    assert post.m_max == n_max
    assert post.defined.all()
    maps, ties = loss_optmap(p_loss, chi, n_max)
    assert report.map.tolist() == maps
    assert report.tie.tolist() == ties
    assert report.avg_fidelity_raw == pytest.approx(loss_avg_fidelity_raw(p_loss, chi, n_max), rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(p_loss=st.floats(0.0, 1.0), lam=st.floats(0.0, 50.0), chi=st.floats(0.1, 0.9), n_max=st.integers(0, 79))
@example(p_loss=0.9, lam=0.1, chi=0.9, n_max=60)  # a precision from x alone was off by 1.7e-7 at m = 66
@example(p_loss=1.0, lam=0.0, chi=0.5, n_max=10)  # y = 0: every m > 0 is impossible
@example(p_loss=0.5, lam=50.0, chi=0.9, n_max=79)  # the widest draw: m_max 180
def test_pdc_channel_matches_its_closed_form(p_loss, lam, chi, n_max):
    """P(m) and F_raw with both loss and dark counts against
    oracles.pdc_marginal_exact and pdc_raw_fidelity_exact.

    Values are compared on the outcomes whose marginal and diagonal joint
    cell P(m|m) P(n = m) are both normal doubles. Every outcome the reference
    calls impossible is flagged undefined; the converse does not hold yet, as
    a possible outcome whose marginal underflows is flagged too.
    """
    matrix = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), n_max)
    prior = pdc_prior(chi, n_max=n_max)
    post = posterior(matrix, prior)
    report = optimisation_map(post)
    marginal = pdc_marginal_exact(p_loss, lam, chi, n_max, post.m_max)
    fidelity = pdc_raw_fidelity_exact(p_loss, lam, chi, n_max, post.m_max)
    joint = np.zeros(post.m_max + 1)
    joint[: n_max + 1] = np.diagonal(matrix.entries) * prior.probs
    normal = (post.outcome_marginal >= np.finfo(float).tiny) & (joint >= np.finfo(float).tiny)
    for m in range(post.m_max + 1):
        if marginal[m] == 0:
            assert not post.defined[m], m
        if normal[m]:
            assert post.outcome_marginal[m] == pytest.approx(float(marginal[m]), rel=1e-13), m
            assert report.fidelity_raw[m] == pytest.approx(float(fidelity[m]), rel=1e-13), m


def test_prior_scaling_by_power_of_two_is_bit_identical():
    weights = [0.3, 1.7, 0.9, 0.2]
    mat = build_matrix(NOISY, 3)
    base = posterior(mat, custom_prior(weights))
    scaled = posterior(mat, custom_prior([4.0 * w for w in weights]))
    np.testing.assert_array_equal(base.entries, scaled.entries)
    np.testing.assert_array_equal(base.outcome_marginal, scaled.outcome_marginal)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 10))
def test_prior_scaling_leaves_map_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(5) + 1e-3
    mat = build_matrix(NOISY, 4)
    base = optimisation_map(posterior(mat, custom_prior(weights.tolist())))
    scaled = optimisation_map(
        posterior(mat, custom_prior((scale * weights).tolist()))
    )
    np.testing.assert_array_equal(base.map, scaled.map)
    np.testing.assert_allclose(base.fidelity_opt, scaled.fidelity_opt, rtol=1e-12)


def test_argmax_agrees_with_oracle_tie_rule():
    mat = build_matrix(DetectorParams(p_loss=0.5, lam=0.0), 9)
    post = posterior(mat, uniform_prior(0, 9))
    report = optimisation_map(post)
    for m in np.flatnonzero(post.defined):
        idx, tied = argmax_smallest(post.entries[:, m])
        assert report.map[m] == idx
        assert report.tie[m] == tied


def test_posterior_arrays_immutable():
    mat = build_matrix(NOISY, 4)
    post = posterior(mat, uniform_prior(0, 4))
    for arr in (post.entries, post.outcome_marginal, post.defined):
        assert not arr.flags.writeable


# result type -> (its array fields, each naming the caller's array it is given; other fields)
_RESULTS = {
    NumberPrior: ({"probs": "probs"}, {"label": "given"}),
    ConditionalMatrix: ({"entries": "square"}, {}),
    EmpiricalColumn: ({"counts": "map"}, {"n": 0, "total": 2}),
    PosteriorMatrix: ({"entries": "square", "outcome_marginal": "probs", "defined": "flags"}, {}),
    OptimisationReport: (
        {"map": "map", "fidelity_raw": "probs", "fidelity_opt": "probs", "tie": "flags"},
        {"avg_fidelity_raw": 0.5, "avg_fidelity_opt": 0.5},
    ),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["writable", "frozen"])
@pytest.mark.parametrize("kind", _RESULTS, ids=lambda kind: kind.__name__)
def test_results_copy_the_callers_arrays(kind, frozen):
    given = {"probs": np.array([0.5, 0.25, 0.25]), "square": np.eye(3),
             "flags": np.ones(3, dtype=bool), "map": np.array([0, 1, 1])}
    for arr in given.values():
        arr.setflags(write=not frozen)
    arrays, others = _RESULTS[kind]
    result = kind(**{field: given[key] for field, key in arrays.items()}, **others)
    for field, key in arrays.items():
        arr = getattr(result, field)
        assert not arr.flags.writeable, field
        assert not any(np.shares_memory(arr, g) for g in given.values()), field
        np.testing.assert_array_equal(arr, given[key])
    for key, arr in given.items():
        assert arr.flags.writeable is not frozen, key


def _with_negative_zeros(value):
    """`value` with each zero of a float array made -0.0; anything else as it is."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return np.where(value == 0.0, -0.0, value)
    return value


def _negative_zero_fields(result):
    """The float array fields of a result that hold a -0.0."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return [name for name, value in fields.items()
            if isinstance(value, np.ndarray) and value.dtype.kind == "f"
            and np.signbit(value[value == 0.0]).any()]


_ZEROS = st.sampled_from([-0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    p_loss=_ZEROS | st.floats(0.01, 1.0),
    lam=_ZEROS | st.floats(0.01, 3.0),
    weights=st.lists(_ZEROS | st.floats(0.01, 2.0), min_size=1, max_size=5).filter(lambda w: max(w) > 0),
)
@example(p_loss=0.5, lam=0.0, weights=[-0.0, 1.0, 1.0])  # a prior [-0.0, 0.5, 0.5] once gave P(0|m) = -0.0
def test_no_result_array_holds_a_negative_zero(p_loss, lam, weights):
    w = np.array(weights)
    prior = NumberPrior(probs=w / w.sum(), label="given")
    built = build_matrix(DetectorParams(p_loss=p_loss, lam=lam), prior.n_max)
    given_matrix = ConditionalMatrix(_with_negative_zeros(built.entries))
    results = [prior, built, given_matrix]
    for matrix in (built, given_matrix):
        post = posterior(matrix, prior)
        report = optimisation_map(post)
        results += [post, report]
        results += [type(r)(**{f.name: _with_negative_zeros(getattr(r, f.name)) for f in dataclasses.fields(r)})
                    for r in (post, report)]
    for result in results:
        assert _negative_zero_fields(result) == [], type(result).__name__


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_posterior_peaks_near_its_result(lam):
    # the joint is divided in place: one result-sized array, no copies
    mat = build_matrix(DetectorParams(p_loss=0.5, lam=lam), 500)
    prior = pdc_prior(0.9, n_max=500)
    tracemalloc.start()
    try:
        post = posterior(mat, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert post.entries.nbytes == mat.entries.nbytes
    assert peak <= 1.2 * mat.entries.nbytes
