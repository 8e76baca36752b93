"""Photon-number priors: geometric shape, exact uniform weights, validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countfix.priors import NumberPrior, custom_prior, pdc_prior, uniform_prior


def test_pdc_unnormalized_weights_frozen():
    # raw geometric weights for chi=0.7: 0.51, 0.2499, 0.122451, ...
    raw = [0.51, 0.2499, 0.122451]
    prior = pdc_prior(0.7, n_max=2)
    expected = np.array(raw) / math.fsum(raw)
    np.testing.assert_allclose(prior.probs, expected, rtol=1e-14)


def test_pdc_geometric_ratio_exact():
    prior = pdc_prior(0.7, n_max=6)
    ratios = prior.probs[1:] / prior.probs[:-1]
    np.testing.assert_allclose(ratios, 0.49, rtol=1e-13)


def test_pdc_normalization_over_truncated_support():
    prior = pdc_prior(0.7, n_max=9)
    # geometric series: P(0) = (1 - 0.49) / (1 - 0.49**10)
    assert prior.probs[0] == pytest.approx(0.51 / (1.0 - 0.49**10), rel=1e-13)
    assert math.fsum(prior.probs.tolist()) == pytest.approx(1.0, abs=1e-13)


def test_pdc_default_support_is_tail_bounded():
    prior = pdc_prior(0.7)
    n_max = prior.n_max
    # support ends at the first n where the untruncated tail drops to 1e-10
    assert 0.49 ** (n_max + 1) <= 1e-10 < 0.49**n_max
    assert n_max == 32


def test_pdc_chi_zero_is_vacuum():
    prior = pdc_prior(0.0)
    np.testing.assert_array_equal(prior.probs, [1.0])


def test_pdc_is_monotone_nonincreasing():
    for chi in (0.0, 0.3, 0.7, 0.95):
        probs = pdc_prior(chi, n_max=20).probs
        assert np.all(np.diff(probs) <= 0.0)


def test_custom_round_trips_pdc_weights():
    pdc = pdc_prior(0.7, n_max=8)
    again = custom_prior(pdc.probs.tolist())
    np.testing.assert_allclose(again.probs, pdc.probs, atol=1e-12)


def test_pdc_validation():
    with pytest.raises(ValueError):
        pdc_prior(-0.1)
    with pytest.raises(ValueError):
        pdc_prior(1.0)
    with pytest.raises(ValueError):
        pdc_prior(0.5, n_max=-1)
    with pytest.raises(ValueError):
        pdc_prior(0.7, n_max=2.5)


def test_pdc_label():
    assert pdc_prior(0.7, n_max=4).label == "pdc(chi=0.7)"


def test_uniform_weights_exact():
    prior = uniform_prior(0, 9)
    np.testing.assert_array_equal(prior.probs, np.full(10, 0.1))
    assert prior.n_max == 9
    assert prior.label == "uniform(0..9)"


def test_uniform_offset_range():
    prior = uniform_prior(3, 5)
    np.testing.assert_array_equal(prior.probs, [0, 0, 0, 1 / 3, 1 / 3, 1 / 3])


def test_uniform_single_point():
    np.testing.assert_array_equal(uniform_prior(2, 2).probs, [0, 0, 1.0])


def test_uniform_validation():
    with pytest.raises(ValueError):
        uniform_prior(-1, 3)
    with pytest.raises(ValueError):
        uniform_prior(4, 3)
    with pytest.raises(ValueError):
        uniform_prior(0.5, 3)
    with pytest.raises(ValueError):
        uniform_prior(0, 3.9)
    for lo, hi in [(False, True), (0, True), (False, 3)]:
        with pytest.raises(ValueError):
            uniform_prior(lo, hi)


def test_custom_normalizes_weights():
    prior = custom_prior([2.0, 0.0, 6.0])
    np.testing.assert_allclose(prior.probs, [0.25, 0.0, 0.75], rtol=1e-15)
    assert prior.label == "custom"


def test_custom_prior_holds_one_copy_of_its_weights():
    weights = np.ones(2_000_000)
    tracemalloc.start()
    try:
        prior = custom_prior(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * prior.probs.nbytes


def test_custom_validation():
    with pytest.raises(ValueError):
        custom_prior([])
    with pytest.raises(ValueError):
        custom_prior([0.0, 0.0])
    with pytest.raises(ValueError):
        custom_prior([0.5, -0.1])
    with pytest.raises(ValueError):
        custom_prior([0.5, math.inf])


def test_prior_probs_are_immutable():
    prior = uniform_prior(0, 4)
    assert not prior.probs.flags.writeable
    with pytest.raises(ValueError):
        prior.probs[0] = 0.9


def test_prior_invariants_enforced():
    NumberPrior(probs=np.array([0.5, 0.5]), label="ok")
    with pytest.raises(ValueError):
        NumberPrior(probs=np.array([0.7, 0.7]), label="unnormalized")
    with pytest.raises(ValueError):
        NumberPrior(probs=np.array([1.5, -0.5]), label="negative")
    with pytest.raises(ValueError):
        NumberPrior(probs=np.array([]), label="empty")


@settings(max_examples=100, deadline=None)
@given(chi=st.floats(0.0, 0.95), n_max=st.integers(0, 60))
def test_pdc_properties(chi, n_max):
    prior = pdc_prior(chi, n_max=n_max)
    assert len(prior.probs) == n_max + 1
    assert math.fsum(prior.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    if chi == 0:
        assert np.all(prior.probs[1:] == 0.0)
        return
    # geometric decay wherever the weights stay clear of the subnormal
    # range, where floats lose relative precision
    positive = (prior.probs[:-1] > 1e-290) & (prior.probs[1:] > 1e-290)
    ratios = prior.probs[1:][positive] / prior.probs[:-1][positive]
    np.testing.assert_allclose(ratios, chi * chi, rtol=1e-10)
    # decay is monotone, so once a weight underflows the rest stay zero
    dead = np.flatnonzero(prior.probs == 0.0)
    if dead.size:
        assert np.all(prior.probs[dead.min():] == 0.0)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(0, 20), span=st.integers(0, 20))
def test_uniform_properties(lo, span):
    prior = uniform_prior(lo, lo + span)
    assert math.fsum(prior.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(prior.probs[:lo] == 0.0)
    assert len(set(prior.probs[lo:].tolist())) == 1
    # shifting the range moves the support without reweighting it
    shifted = uniform_prior(lo + 3, lo + span + 3)
    np.testing.assert_array_equal(shifted.probs[3:], prior.probs)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40).filter(
        lambda w: sum(w) > 0
    )
)
def test_custom_properties(weights):
    prior = custom_prior(weights)
    assert math.fsum(prior.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(prior.probs >= 0.0)
