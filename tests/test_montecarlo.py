"""Seeded histogram simulation: determinism, stream layout, statistics."""

import inspect
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from countfix import montecarlo
from countfix.detector import DetectorParams, build_matrix
from countfix.inference import posterior
from countfix.montecarlo import (
    EmpiricalColumn,
    ShotConfig,
    column_stream,
    empirical_joint,
    empirical_matrix,
    joint_stream,
)
from countfix.priors import custom_prior, pdc_prior, uniform_prior
from oracles import conv_column, poisson_tail_quantile, tv_distance

NOISY = DetectorParams(p_loss=0.5, lam=1.0)


def test_ideal_channel_is_noiseless():
    params = DetectorParams(p_loss=0.0, lam=0.0)
    for col in empirical_matrix(ShotConfig(params=params, seed=0, shots=100), 5):
        assert col.counts[col.n] == 100
    joint = empirical_joint(ShotConfig(params=params, seed=0, shots=100), pdc_prior(0.7, n_max=5))
    assert joint.trace() == 100


def test_total_loss_always_reads_zero():
    params = DetectorParams(p_loss=1.0, lam=0.0)
    for col in empirical_matrix(ShotConfig(params=params, seed=3, shots=100), 4):
        assert col.counts[0] == 100
    joint = empirical_joint(ShotConfig(params=params, seed=3, shots=100), pdc_prior(0.7, n_max=4))
    assert joint[:, 0].sum() == 100


def test_shot_mean_and_variance_match_model():
    # E[m] = n(1 - p_loss) + lam; Var[m] = n p(1-p) + lam
    params = DetectorParams(p_loss=0.3, lam=0.5)
    shots = 10**6
    [col] = [
        c
        for c in empirical_matrix(ShotConfig(params=params, seed=0, shots=shots), 4)
        if c.n == 4
    ]
    m = np.arange(len(col.counts))
    mean = float((m * col.frequencies).sum())
    var = float(((m - mean) ** 2 * col.frequencies).sum())
    sigma = math.sqrt(4 * 0.7 * 0.3 + 0.5)
    assert mean == pytest.approx(3.3, abs=3 * sigma / math.sqrt(shots))
    assert var == pytest.approx(sigma**2, rel=0.02)


def _pmf(cdf):
    """The law that an inverse-CDF draw from cdf samples."""
    return np.diff(np.minimum(cdf, 1.0), prepend=0.0)


def _draw(stream, shots, pmf):
    """{category: count} from one multinomial call over pmf's positive
    categories, in increasing order."""
    drawn = [k for k in range(len(pmf)) if pmf[k] > 0]
    return dict(zip(drawn, stream.multinomial(shots, pmf[drawn]).tolist()))


def _add_shots(stream, shots, n, params, out):
    """Add to out the histogram of `shots` shots with n incident photons, in
    the documented call order: the survivor counts, then in one call a
    dark-count row for each survivor number with shots, over the dark
    counts in decreasing probability."""
    survivors = _draw(stream, shots, _pmf(montecarlo._binomial_cdf(1.0 - params.p_loss, n)))
    dark_pmf = _pmf(montecarlo._poisson_cdf(params.lam))
    # sorted() is stable: equally likely dark counts keep increasing order
    dark = sorted((d for d in range(len(dark_pmf)) if dark_pmf[d] > 0), key=lambda d: -dark_pmf[d])
    rows = [s for s, c in survivors.items() if c]
    for s, row in zip(rows, stream.multinomial([survivors[s] for s in rows], dark_pmf[dark])):
        for d, c in zip(dark, row.tolist()):
            out[s + d] += c


def _column_by_layout(seed, n, shots, params, size):
    counts = np.zeros(size, dtype=np.int64)
    _add_shots(column_stream(seed, n), shots, n, params, counts)
    return counts


def _joint_by_layout(seed, shots, prior, params, shape):
    """counts[n, m] from joint_stream: the incident numbers, then the shots
    of each drawn n in increasing order."""
    stream = joint_stream(seed)
    counts = np.zeros(shape, dtype=np.int64)
    for n, c in _draw(stream, shots, _pmf(montecarlo._prior_cdf(prior.probs))).items():
        if c:
            _add_shots(stream, c, n, params, counts[n])
    return counts


@pytest.mark.parametrize("p_loss", [0.0, 0.3, 0.5, 1.0])
def test_matrix_columns_follow_stream_layout(p_loss):
    params = DetectorParams(p_loss=p_loss, lam=1.3)
    for col in empirical_matrix(ShotConfig(params=params, seed=21, shots=3000), 6):
        np.testing.assert_array_equal(col.counts, _column_by_layout(21, col.n, 3000, params, len(col.counts)))


@pytest.mark.parametrize("p_loss", [0.0, 0.3, 0.5, 1.0])
def test_joint_follows_stream_layout(p_loss):
    # uniform_prior(5, 300) leaves n < 5 without a shot
    params = DetectorParams(p_loss=p_loss, lam=1.3)
    for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 300)):
        counts = empirical_joint(ShotConfig(params=params, seed=21, shots=3000), prior)
        np.testing.assert_array_equal(counts, _joint_by_layout(21, 3000, prior, params, counts.shape))


def test_large_dark_rate_follows_stream_layout():
    # at lam 800 a dark-count row spans hundreds of counts, drawn from the mode outward
    params = DetectorParams(p_loss=0.3, lam=800.0)
    config = ShotConfig(params=params, seed=21, shots=3000)
    for col in empirical_matrix(config, 6):
        np.testing.assert_array_equal(col.counts, _column_by_layout(21, col.n, 3000, params, len(col.counts)))
    for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 40)):
        counts = empirical_joint(config, prior)
        np.testing.assert_array_equal(counts, _joint_by_layout(21, 3000, prior, params, counts.shape))


def test_joint_never_draws_a_zero_weight_number():
    # numpy gives a multinomial's rounding remainder to its last category:
    # handed the weights [1/3, 1/3, 1/3, 0] as they are, 10**17 shots put
    # about 20 of them on n = 3
    for weights in ([1.0, 1.0, 1.0, 0.0], [0.1] * 10 + [0.0], [0.0, 0.3, 0.0, 0.3, 0.4, 0.0, 0.0]):
        prior = custom_prior(weights)
        for seed in range(20):
            counts = empirical_joint(ShotConfig(params=NOISY, seed=seed, shots=10**17), prior)
            assert counts.sum() == 10**17
            assert not counts[prior.probs == 0.0].any(), (weights, seed)


def test_sampler_shares_no_code_with_the_detector():
    # the Monte Carlo checks the analytic path, so it only takes its parameters
    from_detector = {
        name for name, obj in vars(montecarlo).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == "countfix.detector"
    }
    assert from_detector == {"DetectorParams"}


def test_large_photon_numbers_survive_underflow():
    # 0.01**1000 underflows, so the survivor table must not start from it
    params = DetectorParams(p_loss=0.01, lam=0.0)
    shots = 10**4
    counts = empirical_joint(ShotConfig(params=params, seed=4, shots=shots), uniform_prior(1000, 1000))
    assert counts[1000].sum() == shots
    mean = float(np.arange(counts.shape[1]) @ counts[1000]) / shots
    sigma = math.sqrt(1000 * 0.99 * 0.01)
    assert mean == pytest.approx(990.0, abs=3 * sigma / math.sqrt(shots))


@pytest.mark.parametrize("lam", [1e-3, 0.5, 1.0, 10.0, 100.0, 800.0])
def test_dark_count_table_is_cut_at_its_tail_quantile(lam):
    # draws stop at the smallest q with P(D > q) <= 1e-12
    [col] = empirical_matrix(ShotConfig(params=DetectorParams(0.0, lam), seed=0, shots=1), 0)
    assert len(col.counts) == poisson_tail_quantile(lam, 1e-12) + 1


def test_equal_seeds_reproduce_bitwise():
    a = empirical_matrix(ShotConfig(params=NOISY, seed=42, shots=2000), 5)
    b = empirical_matrix(ShotConfig(params=NOISY, seed=42, shots=2000), 5)
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.counts, cb.counts)


def test_different_seeds_differ():
    a = empirical_matrix(ShotConfig(params=NOISY, seed=1, shots=2000), 3)
    b = empirical_matrix(ShotConfig(params=NOISY, seed=2, shots=2000), 3)
    assert any(not np.array_equal(ca.counts, cb.counts) for ca, cb in zip(a, b))


def test_chunk_layout_never_changes_results():
    # a run is laid out as one substream per column, so how many columns it
    # holds changes none of them
    config = ShotConfig(params=NOISY, seed=7, shots=4096)
    reference = empirical_matrix(config, 9)
    for n_max in (0, 1, 4, 9):
        columns = empirical_matrix(config, n_max)
        assert [col.n for col in columns] == list(range(n_max + 1))
        for col, ref in zip(columns, reference):
            np.testing.assert_array_equal(col.counts, ref.counts)


def test_joint_chunk_layout_never_changes_results():
    # zero weights after the last positive one widen the histogram but hand
    # numpy the same categories, so every count stays; the weights sum to 1
    # exactly, so the padded priors hold the same probabilities
    config = ShotConfig(params=NOISY, seed=7, shots=4096)
    weights = [0.5, 0.25, 0.125, 0.0625, 0.0625]
    reference = empirical_joint(config, custom_prior(weights))
    for zeros in (1, 2, 37):
        counts = empirical_joint(config, custom_prior(weights + [0.0] * zeros))
        assert counts.shape == (len(weights) + zeros, reference.shape[1] + zeros)
        np.testing.assert_array_equal(counts[: len(weights), : reference.shape[1]], reference)
        assert counts.sum() == reference.sum()


def _on_threads(task, workers):
    """[task(0), ..., task(workers - 1)], each on its own thread, started
    together and with a short switch interval so that the threads interleave
    often; the first error raised on a thread is re-raised."""
    results, errors = [None] * workers, []
    barrier = threading.Barrier(workers)

    def run(i):
        try:
            barrier.wait(timeout=30)
            results[i] = task(i)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a sampler thread never finished"
    if errors:
        raise errors[0]
    return results


def test_thread_count_never_changes_results():
    # the sampler keeps no state between calls, so callers on several threads
    # at once each get the columns of a lone call; a column lost, or drawn
    # from another call's stream, shows
    params = DetectorParams(p_loss=0.3, lam=1.3)
    config = ShotConfig(params=params, seed=21, shots=3000)
    for workers in (1, 2, 3):
        for columns in _on_threads(lambda i: empirical_matrix(config, 6), workers):
            assert [col.n for col in columns] == list(range(7))
            for col in columns:
                np.testing.assert_array_equal(
                    col.counts, _column_by_layout(21, col.n, 3000, params, len(col.counts))
                )


def test_joint_thread_count_never_changes_results():
    params = DetectorParams(p_loss=0.3, lam=1.3)
    config = ShotConfig(params=params, seed=21, shots=3000)
    for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 300)):
        for workers in (1, 2, 3):
            for counts in _on_threads(lambda i: empirical_joint(config, prior), workers):
                np.testing.assert_array_equal(counts, _joint_by_layout(21, 3000, prior, params, counts.shape))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_runner_returns_the_task_results_in_index_order(workers):
    # concurrent calls with different seeds share no stream: caller i gets
    # the histograms of seed i, its columns in increasing n
    def task(i):
        config = ShotConfig(params=NOISY, seed=i, shots=2000)
        return empirical_matrix(config, 5), empirical_joint(config, pdc_prior(0.7, n_max=5))

    for i, (columns, joint) in enumerate(_on_threads(task, workers)):
        alone, alone_joint = task(i)
        assert [col.n for col in columns] == list(range(6))
        for col, ref in zip(columns, alone):
            np.testing.assert_array_equal(col.counts, ref.counts)
        np.testing.assert_array_equal(joint, alone_joint)


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the sampler started a thread")


def test_one_worker_starts_no_thread(monkeypatch):
    # both samplers draw on the calling thread alone, whatever the shots and columns
    assert not hasattr(montecarlo, "threading")
    monkeypatch.setattr(threading, "Thread", _NoThread)
    before = threading.active_count()
    config = ShotConfig(params=NOISY, seed=0, shots=10**6)
    assert len(empirical_matrix(config, 30)) == 31
    assert empirical_joint(config, uniform_prior(0, 30)).sum() == 10**6
    assert threading.active_count() == before


class _FailingDraw:
    """Wraps a stream; its multinomial call number `call` raises `error`."""

    def __init__(self, stream, call, error):
        self._stream, self._calls, self._call, self._error = stream, 0, call, error

    def multinomial(self, *args, **kwargs):
        self._calls += 1
        if self._calls == self._call:
            raise self._error
        return self._stream.multinomial(*args, **kwargs)


@pytest.mark.parametrize("failing", [1, 2, 3])
def test_column_errors_reach_the_caller(monkeypatch, failing):
    # column `failing` cannot open its stream: the caller gets that error,
    # and no later column opens one
    error = ValueError(f"no stream for n = {failing}")
    opened = []

    def stream(seed, n):
        opened.append(n)
        if n == failing:
            raise error
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error
    assert opened == list(range(failing + 1))


def test_the_first_failure_is_the_one_raised(monkeypatch):
    # columns 3 and 6 both fail in their dark-count draw, the second
    # multinomial call: column 3's error is raised and column 6 is never drawn
    errors = {3: ValueError("column 3 failed"), 6: ValueError("column 6 failed")}
    opened = []

    def stream(seed, n):
        opened.append(n)
        if n in errors:
            return _FailingDraw(column_stream(seed, n), 2, errors[n])
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is errors[3]
    assert opened == [0, 1, 2, 3]


class _Stop(BaseException):
    pass


def test_helper_base_exceptions_reach_the_caller(monkeypatch):
    # an exception that is not an Exception, like KeyboardInterrupt, raised
    # in a draw still reaches the caller unchanged, from either sampler
    error = _Stop()
    monkeypatch.setattr(montecarlo, "column_stream", lambda seed, n: _FailingDraw(column_stream(seed, n), 1, error))
    monkeypatch.setattr(montecarlo, "joint_stream", lambda seed: _FailingDraw(joint_stream(seed), 3, error))
    config = ShotConfig(params=NOISY, seed=0, shots=100)
    with pytest.raises(_Stop) as caught:
        empirical_matrix(config, 9)
    assert caught.value is error
    with pytest.raises(_Stop) as caught:
        empirical_joint(config, pdc_prior(0.7, n_max=5))
    assert caught.value is error


def test_joint_helper_thread_errors_reach_the_caller(monkeypatch):
    # the joint stream's draws are the incident numbers (call 1), then the
    # survivors and dark counts of each drawn n; an error in any of them
    # reaches the caller unchanged
    config = ShotConfig(params=NOISY, seed=0, shots=100)
    prior = pdc_prior(0.7, n_max=5)
    calls = 1 + 2 * np.count_nonzero(empirical_joint(config, prior).sum(axis=1))
    for call in range(1, calls + 1):
        error = ValueError(f"draw {call} failed")
        monkeypatch.setattr(montecarlo, "joint_stream", lambda seed: _FailingDraw(joint_stream(seed), call, error))
        with pytest.raises(ValueError) as caught:
            empirical_joint(config, prior)
        assert caught.value is error
    monkeypatch.setattr(montecarlo, "joint_stream", lambda seed: _FailingDraw(joint_stream(seed), calls + 1, error))
    assert empirical_joint(config, prior).sum() == 100  # no draw past the last one


def _peak(draw):
    """The least traced peak of three calls of draw, after three untraced
    ones, so that first-call allocations and caches stay out of it."""
    for _ in range(3):
        draw()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            draw()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_threads_keep_the_shots_in_flight():
    # a histogram is drawn whole, so no shot is ever held in memory: the
    # draws take memory in the support, whose every cell 2**56 shots already
    # reach, and 64 times the shots peak no higher
    small, large = (ShotConfig(params=NOISY, seed=0, shots=shots) for shots in (2**56, 2**62))
    assert _peak(lambda: empirical_matrix(large, 7)) <= 1.1 * _peak(lambda: empirical_matrix(small, 7))


def test_joint_threads_keep_the_shots_in_flight():
    small, large = (ShotConfig(params=NOISY, seed=0, shots=shots) for shots in (2**56, 2**62))
    prior = pdc_prior(0.7, n_max=7)
    assert _peak(lambda: empirical_joint(large, prior)) <= 1.1 * _peak(lambda: empirical_joint(small, prior))


def _assert_binomial_cells(samples, probs, shots):
    """Across seeds (axis 0), each cell has the mean shots * P and the
    variance shots * P * (1 - P) of a Binomial(shots, P) count, within 5
    standard errors; probs holds P per cell."""
    seeds = len(samples)
    mean = shots * probs
    var = mean * (1.0 - probs)
    fourth = var * (1.0 + 3.0 * (shots - 2) * probs * (1.0 - probs))  # central moment
    np.testing.assert_array_less(np.abs(samples.mean(axis=0) - mean), 5.0 * np.sqrt(var / seeds) + 1e-12)
    np.testing.assert_array_less(
        np.abs(samples.var(axis=0, ddof=1) - var), 5.0 * np.sqrt((fourth - var**2) / seeds) + 1e-12
    )


def test_seed_ensemble_matches_binomial_cell_moments():
    # over many seeds, the count in each cell is Binomial(shots, P): a sampler
    # that rounds expected counts has too little variance, and one that
    # reuses a stream across seeds has none, or correlates its columns
    params = DetectorParams(p_loss=0.3, lam=0.5)
    shots, n_max, seeds = 10, 3, 2000
    prior = pdc_prior(0.7, n_max=n_max)
    matrix, joint = [], []
    for seed in range(seeds):
        config = ShotConfig(params=params, seed=seed, shots=shots)
        columns = empirical_matrix(config, n_max)
        size = len(columns[-1].counts)
        matrix.append([np.pad(c.counts, (0, size - len(c.counts))) for c in columns])
        joint.append(empirical_joint(config, prior))
    matrix, joint = np.array(matrix), np.array(joint)
    conditional = np.array([conv_column(params.p_loss, params.lam, n, size - 1) for n in range(n_max + 1)])
    _assert_binomial_cells(matrix, conditional, shots)
    _assert_binomial_cells(joint, prior.probs[:, np.newaxis] * conditional, shots)
    # the columns' mean counts are uncorrelated across seeds
    means = matrix @ np.arange(size) / shots
    r = np.corrcoef(means[:, 1:], rowvar=False)  # column 0 is the same law for every n
    assert np.all(np.abs(r[~np.eye(n_max, dtype=bool)]) < 5.0 / math.sqrt(seeds))


def test_joint_memory_stays_near_its_result():
    # a wide prior's shots are drawn one incident number at a time
    tracemalloc.start()
    try:
        counts = empirical_joint(ShotConfig(params=NOISY, seed=0, shots=10**4), uniform_prior(0, 2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * counts.nbytes


@pytest.mark.parametrize(
    "prior, rows",
    [(uniform_prior(1000, 1000), [1000]), (custom_prior([0.0, 0.5, 0.0, 0.5, 0.0]), [1, 3])],
)
def test_joint_builds_survivor_rows_only_for_drawn_numbers(monkeypatch, prior, rows):
    built = []
    binomial_cdf = montecarlo._binomial_cdf
    monkeypatch.setattr(montecarlo, "_binomial_cdf", lambda q, n: built.append(n) or binomial_cdf(q, n))
    assert empirical_joint(ShotConfig(params=NOISY, seed=0, shots=100), prior).sum() == 100
    assert built == rows


def test_column_and_joint_streams_are_disjoint():
    assert column_stream(5, 0).random() != joint_stream(5).random()
    assert column_stream(5, 0).random() != column_stream(5, 1).random()


def test_empirical_columns_approach_analytic_columns():
    mat = build_matrix(NOISY, 5)
    cols = empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=10**5), 5)
    for col in cols:
        assert tv_distance(col.frequencies, mat.entries[:, col.n]) < 0.02


def test_tv_distance_halves_when_shots_quadruple():
    mat = build_matrix(NOISY, 5)
    small = empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=10**4), 5)
    large = empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=4 * 10**4), 5)
    tv_small = np.mean(
        [tv_distance(c.frequencies, mat.entries[:, c.n]) for c in small]
    )
    tv_large = np.mean(
        [tv_distance(c.frequencies, mat.entries[:, c.n]) for c in large]
    )
    assert tv_large < 0.75 * tv_small


def test_joint_conditional_frequencies_follow_posterior():
    prior = pdc_prior(0.7, n_max=9)
    post = posterior(build_matrix(NOISY, 9), prior)
    counts = empirical_joint(ShotConfig(params=NOISY, seed=0, shots=2 * 10**5), prior)
    totals = counts.sum(axis=0)
    for m in range(min(counts.shape[1], post.m_max + 1)):
        if post.defined[m] and post.outcome_marginal[m] >= 0.02:
            emp = counts[:, m] / totals[m]
            assert tv_distance(emp, post.entries[:, m]) < 0.03, f"m={m}"


def test_joint_counts_total_and_prior_marginal():
    prior = pdc_prior(0.7, n_max=6)
    shots = 10**5
    counts = empirical_joint(ShotConfig(params=NOISY, seed=3, shots=shots), prior)
    assert counts.sum() == shots
    n_freq = counts.sum(axis=1) / shots
    assert tv_distance(n_freq, prior.probs) < 0.01


def test_large_dark_rate_table_is_usable():
    # inverse-CDF table keeps working far above the usual rates
    params = DetectorParams(p_loss=0.0, lam=50.0)
    [col] = empirical_matrix(ShotConfig(params=params, seed=0, shots=10**4), 0)
    m = np.arange(len(col.counts))
    mean = float((m * col.frequencies).sum())
    assert mean == pytest.approx(50.0, abs=3 * math.sqrt(50.0 / 10**4))


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(params=NOISY, seed=-1, shots=10)
    with pytest.raises(ValueError):
        ShotConfig(params=NOISY, seed=2**64, shots=10)
    with pytest.raises(ValueError):
        ShotConfig(params=NOISY, seed=0, shots=0)
    for seed, shots in [(1.5, 10), (0, 2.7), ("0", 10), (True, 10), (0, True), (False, 10), (True, True)]:
        with pytest.raises(ValueError):
            ShotConfig(params=NOISY, seed=seed, shots=shots)
    config = ShotConfig(params=NOISY, seed=0, shots=10)
    for n_max in (-1, 2.5):
        with pytest.raises(ValueError):
            empirical_matrix(config, n_max)


def test_matrix_memory_stays_near_its_result():
    # the survivor CDFs are built one column at a time, never as an (n_max+1)^2 table
    tracemalloc.start()
    try:
        columns = empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=1), 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(col.counts.nbytes for col in columns)


def test_empirical_column_checks_totals():
    EmpiricalColumn(n=0, counts=np.array([3, 7]), total=10)
    with pytest.raises(ValueError):
        EmpiricalColumn(n=0, counts=np.array([3, 7]), total=11)
    # counts are not cast to whole numbers, and none is negative
    with pytest.raises(ValueError):
        EmpiricalColumn(n=0, counts=[1.5, 8.5], total=9)
    with pytest.raises(ValueError):
        EmpiricalColumn(n=0, counts=[-1, 11], total=10)
    # n is a count, and counts is one column over m = 0..n + q
    # total is a count of at least one shot: 0 would give NaN frequencies
    for n, counts, total in [(-1.5, [3], 3), (5, [3], 3), (0, [[1, 2], [3, 4]], 10), (0, [0], 0),
                             (0, [3], 3.0)]:
        with pytest.raises(ValueError):
            EmpiricalColumn(n=n, counts=counts, total=total)
    assert type(EmpiricalColumn(n=0, counts=[3, 7], total=np.int64(10)).total) is int


def test_shots_cost_work_in_the_support_not_in_the_shots():
    # the per-shot sampler would have needed about a day for these draws
    config = ShotConfig(params=NOISY, seed=0, shots=10**15)
    start = time.perf_counter()
    columns = empirical_matrix(config, 19)
    assert time.perf_counter() - start < 0.5
    mat = build_matrix(NOISY, 19)
    for col in columns:
        assert col.counts.sum() == 10**15
        assert tv_distance(col.frequencies, mat.entries[:, col.n]) < 1e-6


def test_shots_beyond_int64_are_refused():
    # numpy counts the shots in int64, so a ShotConfig holds fewer than 2**63
    with pytest.raises(ValueError, match=r"2\*\*63"):
        ShotConfig(params=NOISY, seed=0, shots=2**63)
    prior = pdc_prior(0.7, n_max=3)
    most = ShotConfig(params=NOISY, seed=0, shots=2**63 - 1)
    assert all(col.total == 2**63 - 1 for col in empirical_matrix(most, 3))
    assert empirical_joint(most, prior).sum() == 2**63 - 1
