"""Seeded histogram simulation: determinism, stream layout, statistics."""

import inspect
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from countfix import montecarlo
from countfix.detector import DetectorParams, build_matrix
from countfix.inference import posterior
from countfix.montecarlo import EmpiricalColumn, ShotConfig, empirical_joint, empirical_matrix
from countfix.priors import custom_prior, pdc_prior, uniform_prior
from oracles import conv_column, conv_law, poisson_tail_exact, tv_distance

NOISY = DetectorParams(p_loss=0.5, lam=1.0)

# The substreams of the countfix.montecarlo docstring: the seed is the Philox
# key, the column stream of incident number n starts at counter
# (0 << 192) | (n << 128), and the joint stream at (1 << 192).
_COLUMNS, _JOINT = 0, 1


def _documented_stream(seed, namespace, n=0):
    return np.random.Generator(np.random.Philox(key=seed, counter=(namespace << 192) | (n << 128)))


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


def _draw(stream, shots, weights, out):
    """Add to out the counts of the documented call: one multinomial over
    the positive weights divided by their sum, in increasing probability."""
    p = weights / weights.sum()
    # sorted() is stable: equal weights keep increasing index
    drawn = sorted((i for i in range(len(p)) if p[i] > 0), key=lambda i: p[i])
    for i, c in zip(drawn, stream.multinomial(shots, p[drawn]).tolist()):
        out[i] += c


def _add_shots(stream, shots, n, params, out):
    """Add to out the histogram of `shots` shots with n incident photons:
    one draw over the sampler's binomial pmf convolved with its Poisson
    pmf."""
    binomial = montecarlo._binomial_pmf(params.p_loss, n, np.arange(1.0, n + 1))
    _draw(stream, shots, np.convolve(binomial, montecarlo._poisson_pmf(params.lam)), out)


def _column_by_layout(seed, n, shots, params, size):
    counts = np.zeros(size, dtype=np.int64)
    _add_shots(_documented_stream(seed, _COLUMNS, n), shots, n, params, counts)
    return counts


def _joint_by_layout(seed, shots, prior, params, shape):
    """counts[n, m] from the joint stream: the incident numbers, then the
    shots of each drawn n in increasing order."""
    stream = _documented_stream(seed, _JOINT)
    incident = np.zeros(len(prior.probs), dtype=np.int64)
    _draw(stream, shots, prior.probs, incident)
    counts = np.zeros(shape, dtype=np.int64)
    for n in range(len(incident)):
        if incident[n]:
            _add_shots(stream, incident[n], n, params, counts[n])
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
    # at lam 800 a column's law spans hundreds of counts, drawn from the mode outward
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
    # the table is not cut at a quantile: it runs to the end of its window,
    # d < lam + 12 sqrt(lam) + 40, past which lies less than 1e-30 of the
    # mass, below 1e-11 of a shot at 2**63 shots
    [col] = empirical_matrix(ShotConfig(params=DetectorParams(0.0, lam), seed=0, shots=1), 0)
    assert len(col.counts) == math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0)
    assert poisson_tail_exact(lam, len(col.counts) - 1) < 1e-30


def _assert_counts_follow(counts, law, shots):
    """counts as drawn from shots * law: each cell expected to hold at least
    25 shots lies within 6 standard errors of its expectation, and the
    cells expected to hold fewer hold together a count that a Poisson law
    of their summed expectation reaches on either side at a rate above
    half the false-alarm rate of _assert_binomial_cells."""
    expected = shots * law
    common = expected >= 25.0
    z = (counts - expected)[common] / np.sqrt(expected * (1.0 - law))[common]
    assert np.all(np.abs(z) < 6.0), z
    total, mean = int(counts[~common].sum()), float(expected[~common].sum())
    at_least = poisson_tail_exact(mean, total - 1) if total else 1
    assert min(at_least, 1 - poisson_tail_exact(mean, total)) > _FALSE_ALARM / 2, (total, mean)


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 100.0])
def test_tail_beyond_seven_sigma_is_drawn_at_its_exact_rate(lam):
    # at 2**62 shots, a Poisson table cut at its 1 - 1e-12 quantile leaves
    # about 10**6 expected shots undrawn past the cut, and m listed in
    # decreasing probability puts hundreds of shots where fewer than 1e-40
    # are expected; the law of m is compared up to d = 2 lam + 100, past
    # any table the sampler builds
    p_loss, shots, q = 0.3, 2**62, int(2 * lam) + 100
    columns = empirical_matrix(ShotConfig(params=DetectorParams(p_loss, lam), seed=0, shots=shots), 20)
    for n in (0, 3, 20):
        counts = np.zeros(n + q + 1, dtype=np.int64)
        counts[: len(columns[n].counts)] = columns[n].counts
        start = math.floor(n * (1 - p_loss) + lam + 7.0 * math.sqrt(n * p_loss * (1 - p_loss) + lam)) + 1
        _assert_counts_follow(counts[start:], conv_law(p_loss, lam, n, q)[start:], shots)


@pytest.mark.parametrize("p_loss", [1e-17, 1e-16, 1e-12])
def test_a_small_loss_is_drawn_at_its_exact_rate(p_loss):
    # odds read through 1 - (1 - p_loss) lose a loss of 1e-17 altogether and
    # misread one of 1e-16 by 11 %, which 2**62 shots show at m = n - 1
    shots = 2**62
    counts = empirical_matrix(ShotConfig(params=DetectorParams(p_loss, 0.0), seed=0, shots=shots), 300)[300].counts
    law = conv_law(p_loss, 0.0, 300, 0)
    assert shots * law[299] > 10**4
    _assert_counts_follow(counts[:300], law[:300], shots)


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

    def stream(seed, namespace, n):
        opened.append((namespace, n))
        if n == failing:
            raise error
        return _documented_stream(seed, namespace, n)

    monkeypatch.setattr(montecarlo, "_stream", stream)
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error
    assert opened == [(_COLUMNS, n) for n in range(failing + 1)]


def test_the_first_failure_is_the_one_raised(monkeypatch):
    # columns 3 and 6 both fail in their draw, their one multinomial call:
    # column 3's error is raised and column 6 is never drawn
    errors = {3: ValueError("column 3 failed"), 6: ValueError("column 6 failed")}
    opened = []

    def stream(seed, namespace, n):
        opened.append((namespace, n))
        if n in errors:
            return _FailingDraw(_documented_stream(seed, namespace, n), 1, errors[n])
        return _documented_stream(seed, namespace, n)

    monkeypatch.setattr(montecarlo, "_stream", stream)
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is errors[3]
    assert opened == [(_COLUMNS, 0), (_COLUMNS, 1), (_COLUMNS, 2), (_COLUMNS, 3)]


class _Stop(BaseException):
    pass


def test_helper_base_exceptions_reach_the_caller(monkeypatch):
    # an exception that is not an Exception, like KeyboardInterrupt, raised
    # in a draw still reaches the caller unchanged, from either sampler
    error = _Stop()
    failing = {_COLUMNS: 1, _JOINT: 3}  # the multinomial call that raises, per stream
    monkeypatch.setattr(montecarlo, "_stream", lambda seed, namespace, n: _FailingDraw(
        _documented_stream(seed, namespace, n), failing[namespace], error))
    config = ShotConfig(params=NOISY, seed=0, shots=100)
    with pytest.raises(_Stop) as caught:
        empirical_matrix(config, 9)
    assert caught.value is error
    with pytest.raises(_Stop) as caught:
        empirical_joint(config, pdc_prior(0.7, n_max=5))
    assert caught.value is error


def test_joint_helper_thread_errors_reach_the_caller(monkeypatch):
    # the joint stream's draws are the incident numbers (call 1), then the
    # measured counts of each drawn n; an error in any of them reaches the
    # caller unchanged
    config = ShotConfig(params=NOISY, seed=0, shots=100)
    prior = pdc_prior(0.7, n_max=5)
    calls = 1 + np.count_nonzero(empirical_joint(config, prior).sum(axis=1))
    for call in range(1, calls + 1):
        error = ValueError(f"draw {call} failed")
        monkeypatch.setattr(montecarlo, "_stream", lambda seed, namespace, n: _FailingDraw(
            _documented_stream(seed, namespace, n), call, error))
        with pytest.raises(ValueError) as caught:
            empirical_joint(config, prior)
        assert caught.value is error
    monkeypatch.setattr(montecarlo, "_stream", lambda seed, namespace, n: _FailingDraw(
        _documented_stream(seed, namespace, n), calls + 1, error))
    assert empirical_joint(config, prior).sum() == 100  # no draw past the last one


class _Recording:
    """Wraps a stream and records the pvals of each multinomial call. With
    ranks set, every call after the first returns the rank of each category
    (1, 2, ...) instead of drawing, so a histogram shows which category
    each probability belongs to."""

    def __init__(self, stream, calls, ranks=False):
        self._stream, self._calls, self._ranks = stream, calls, ranks

    def multinomial(self, shots, pvals):
        self._calls.append(np.array(pvals))
        if self._ranks and len(self._calls) > 1:
            return np.arange(1, len(pvals) + 1)
        return self._stream.multinomial(shots, pvals)


def _recorded_streams(per_column, joint_calls, joint_ranks=False):
    """A stand-in for montecarlo._stream whose streams record their calls:
    column n's in per_column[n], the joint stream's in joint_calls, which
    answers with ranks when joint_ranks is set."""
    def stream(seed, namespace, n):
        if namespace == _COLUMNS:
            return _Recording(_documented_stream(seed, namespace, n), per_column.setdefault(n, []))
        return _Recording(_documented_stream(seed, namespace, n), joint_calls, joint_ranks)

    return stream


def test_one_multinomial_per_column_and_per_drawn_number(monkeypatch):
    # a column is one draw over its law of m, and the joint stream draws the
    # incident numbers and then each drawn number's column
    config = ShotConfig(params=NOISY, seed=0, shots=10**4)
    prior = pdc_prior(0.7, n_max=9)
    per_column, joint_calls = {}, []
    monkeypatch.setattr(montecarlo, "_stream", _recorded_streams(per_column, joint_calls))
    for n_max in (0, 1, 9):
        per_column.clear()
        empirical_matrix(config, n_max)
        assert {n: len(calls) for n, calls in per_column.items()} == {n: 1 for n in range(n_max + 1)}
    counts = empirical_joint(config, prior)
    assert len(joint_calls) == 1 + np.count_nonzero(counts.sum(axis=1))


_GRID_N = (0, 1, 19, 300, 999)


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 800.0, 2500.0])
def test_each_law_handed_to_numpy_is_the_convolution(monkeypatch, lam):
    # a prior on the grid's incident numbers draws each of them, and the
    # stream answers each column's call with ranks, so counts[n, m] names
    # the probability handed to numpy for m
    weights = dict(zip(_GRID_N, (3.0, 1.0, 4.0, 1.0, 5.0)))
    prior = custom_prior([weights.get(n, 0.0) for n in range(_GRID_N[-1] + 1)])
    for p_loss in (0.0, 1e-9, 0.5, 0.99, 1.0):
        config = ShotConfig(params=DetectorParams(p_loss, lam), seed=0, shots=10**6)
        calls, per_column = [], {}
        monkeypatch.setattr(montecarlo, "_stream", _recorded_streams(per_column, calls, joint_ranks=True))
        counts = empirical_joint(config, prior)
        assert len(calls) == 1 + len(_GRID_N)
        # the prior's draw: its positive weights over their sum, in increasing
        # probability, ties in increasing n
        np.testing.assert_array_equal(calls[0], prior.probs[[1, 300, 0, 19, 999]] / prior.probs.sum())
        q = counts.shape[1] - len(prior.probs)  # the last dark count of the table
        for n, pvals in zip(_GRID_N, calls[1:]):
            ranks = counts[n, : n + q + 1]
            assert not counts[n, n + q + 1 :].any()
            m = np.argsort(ranks)[np.count_nonzero(ranks == 0) :]  # m in the order handed to numpy
            np.testing.assert_array_equal(ranks[m], np.arange(1, len(pvals) + 1))
            # no zero, non-decreasing, and ties in increasing m
            assert np.all(pvals > 0.0)
            assert np.all((pvals[1:] > pvals[:-1]) | ((pvals[1:] == pvals[:-1]) & (m[1:] > m[:-1])))
            law = np.zeros(n + q + 1)
            law[m] = pvals
            expected = conv_law(p_loss, lam, n, q)
            seen = expected > 1e-250
            np.testing.assert_allclose(law[seen], expected[seen], rtol=1e-12, atol=0, err_msg=f"{p_loss}, {n}")
        # each column of empirical_matrix hands numpy the same law
        empirical_matrix(config, 19)
        for n, pvals in zip(_GRID_N[:3], calls[1:]):
            np.testing.assert_array_equal(per_column[n][0], pvals)


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


# the two-sided false-alarm rate of a 5 standard error bound, about 5.7e-7
_FALSE_ALARM = 2.0 * stats.norm.sf(5.0)


def _assert_binomial_cells(samples, probs, shots):
    """Across seeds (axis 0), each cell has the mean shots * P and the
    variance shots * P * (1 - P) of a Binomial(shots, P) count, within 5
    standard errors; probs holds P per cell.

    A cell expected to hold fewer than 25 shots over the whole ensemble has
    a 5 standard error band reaching below 0 shots, so the normal bound does
    not hold there. Its ensemble total, exactly Binomial(seeds * shots, P),
    must instead lie within both tails of that law at the same two-sided
    false-alarm rate.
    """
    seeds = len(samples)
    mean = shots * probs
    var = mean * (1.0 - probs)
    fourth = var * (1.0 + 3.0 * (shots - 2) * probs * (1.0 - probs))  # central moment
    rare = seeds * mean < 25.0
    common = ~rare
    np.testing.assert_array_less(
        np.abs(samples.mean(axis=0) - mean)[common], (5.0 * np.sqrt(var / seeds) + 1e-12)[common]
    )
    np.testing.assert_array_less(
        np.abs(samples.var(axis=0, ddof=1) - var)[common],
        (5.0 * np.sqrt((fourth - var**2) / seeds) + 1e-12)[common],
    )
    total, p = samples.sum(axis=0)[rare], probs[rare]
    tails = np.minimum(stats.binom.sf(total - 1, seeds * shots, p), stats.binom.cdf(total, seeds * shots, p))
    np.testing.assert_array_less(_FALSE_ALARM / 2.0, tails)


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
    binomial_pmf = montecarlo._binomial_pmf
    monkeypatch.setattr(montecarlo, "_binomial_pmf", lambda p_loss, n, k: built.append(n) or binomial_pmf(p_loss, n, k))
    assert empirical_joint(ShotConfig(params=NOISY, seed=0, shots=100), prior).sum() == 100
    assert built == rows


def test_column_and_joint_streams_are_disjoint():
    # each documented substream has 2**128 counters to itself: column n's start
    # at n << 128, and the joint stream's at 1 << 192, past every n below 2**64
    assert _documented_stream(5, _COLUMNS, 0).random() != _documented_stream(5, _JOINT).random()
    assert _documented_stream(5, _COLUMNS, 0).random() != _documented_stream(5, _COLUMNS, 1).random()


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
    # the Poisson table keeps working far above the usual rates
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
    # the binomial pmfs are built one column at a time, never as an (n_max+1)^2 table
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
