"""Seeded shot simulation: determinism, layout independence, statistics."""

import inspect
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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
from oracles import poisson_tail_quantile, tv_distance

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


def _measured(u_survive, u_dark, n, params):
    """scipy's inverse CDFs: survivors out of n plus dark counts."""
    survivors = stats.binom.ppf(u_survive, n, 1.0 - params.p_loss)
    return (survivors + stats.poisson.ppf(u_dark, params.lam)).astype(int)


def _joint_by_layout(u, prior, params, shape):
    """counts[n, m] from scipy's inverse CDFs on the rows u of the joint stream."""
    n = np.searchsorted(np.cumsum(prior.probs), u[:, 0], side="right")
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (n, _measured(u[:, 1], u[:, 2], n, params)), 1)
    return counts


@pytest.mark.parametrize("p_loss", [0.0, 0.3, 0.5, 1.0])
def test_matrix_columns_follow_stream_layout(monkeypatch, p_loss):
    # shot i of column n reads row i of column_stream(seed, n).random((shots, 2))
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1000)
    params = DetectorParams(p_loss=p_loss, lam=1.3)
    config = ShotConfig(params=params, seed=21, shots=3000)
    for col in empirical_matrix(config, 6):
        u = column_stream(21, col.n).random((3000, 2))
        manual = np.bincount(_measured(u[:, 0], u[:, 1], col.n, params), minlength=len(col.counts))
        np.testing.assert_array_equal(col.counts, manual)


@pytest.mark.parametrize("p_loss", [0.0, 0.3, 0.5, 1.0])
def test_joint_follows_stream_layout(monkeypatch, p_loss):
    # shot i reads row i of joint_stream(seed).random((shots, 3)): the incident
    # number from the prior, then survivors and dark counts
    # uniform_prior(5, 300) leaves n < 5, and some other n in each chunk, without a shot
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 999)
    params = DetectorParams(p_loss=p_loss, lam=1.3)
    u = joint_stream(21).random((3000, 3))
    for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 300)):
        counts = empirical_joint(ShotConfig(params=params, seed=21, shots=3000), prior)
        n = np.searchsorted(np.cumsum(prior.probs), u[:, 0], side="right")
        manual = np.zeros_like(counts)
        np.add.at(manual, (n, _measured(u[:, 1], u[:, 2], n, params)), 1)
        np.testing.assert_array_equal(counts, manual)


def test_large_dark_rate_follows_stream_layout(monkeypatch):
    # at lam 800 about 4 % of the dark-count guide buckets hold a CDF entry,
    # so these draws also take the binary-search fallback
    assert (montecarlo._guide(montecarlo._poisson_cdf(800.0))[1] < 0).mean() > 0.01
    params = DetectorParams(p_loss=0.3, lam=800.0)
    config = ShotConfig(params=params, seed=21, shots=3000)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1000)
    for col in empirical_matrix(config, 6):
        u = column_stream(21, col.n).random((3000, 2))
        manual = np.bincount(_measured(u[:, 0], u[:, 1], col.n, params), minlength=len(col.counts))
        np.testing.assert_array_equal(col.counts, manual)
    u = joint_stream(21).random((3000, 3))
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 999)
    for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 300)):
        counts = empirical_joint(config, prior)
        n = np.searchsorted(np.cumsum(prior.probs), u[:, 0], side="right")
        manual = np.zeros_like(counts)
        np.add.at(manual, (n, _measured(u[:, 1], u[:, 2], n, params)), 1)
        np.testing.assert_array_equal(counts, manual)


class _StuckWords:
    """Stands in for a Philox bit generator: every word is 2**64 - 1."""

    def advance(self, delta):
        pass

    def random_raw(self, size):
        return np.full(size, 2**64 - 1, dtype=np.uint64)


class _StuckStream:
    """Stands in for joint_stream: every uniform is the largest double below 1."""

    bit_generator = _StuckWords()  # (2**64 - 1 >> 11) * 2**-53 = 1 - 2**-53

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0**-53)


def test_joint_never_draws_a_zero_weight_number(monkeypatch):
    # the cumulative sum of ten weights 0.1 ends at 1 - 2**-53, so that u
    # would land on n = 10, whose weight is 0
    monkeypatch.setattr(montecarlo, "joint_stream", lambda seed: _StuckStream())
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 2)
    prior = custom_prior([0.1] * 10 + [0.0])
    counts = empirical_joint(ShotConfig(params=NOISY, seed=0, shots=5), prior)
    assert counts[:10].sum() == 5


_BUCKET_EDGES = np.arange(montecarlo._GUIDE_BUCKETS) / montecarlo._GUIDE_BUCKETS

_CDFS = st.one_of(
    st.builds(
        montecarlo._binomial_cdf,
        st.sampled_from([0.0, 1.0, 1e-9, 0.5]) | st.floats(0.0, 1.0),
        st.integers(0, 1000),
    ),
    st.builds(montecarlo._poisson_cdf, st.sampled_from([0.0, 1.0, 800.0, 1e4])),
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=1, max_size=40)
    .filter(any)
    .map(lambda w: montecarlo._prior_cdf(custom_prior(w).probs)),
    st.just(np.ones(1)),
)


@settings(max_examples=200, deadline=None)
@given(cdf=_CDFS, seed=st.integers(0, 2**32 - 1))
def test_guided_draw_equals_binary_search(cdf, seed):
    # a word w stands for the uniform (w >> 11) * 2**-53
    inside = cdf[cdf < 1.0]
    u = np.concatenate([
        inside,
        np.nextafter(inside, 0.0),
        np.nextafter(inside, 1.0),
        _BUCKET_EDGES,
        np.nextafter(_BUCKET_EDGES[1:], 0.0),
        [0.0, 1.0 - 2.0**-53],
    ])
    k = (u[u < 1.0] * 2.0**53).astype(np.uint64)  # the neighbour above 1 - 2**-53 is 1
    threshold = np.ceil(inside * 2.0**53).astype(np.uint64) << 11  # the first word with u >= c
    w = np.concatenate([
        k << 11,  # the smallest and the largest word for each u
        k << 11 | 0x7FF,
        threshold,
        threshold - 1,  # wraps to 2**64 - 1 for a threshold of 0
        threshold + 1,
        np.random.Philox(seed).random_raw(1000),
    ])
    bucket, out = np.empty((2, len(w)), dtype=np.intp)
    np.testing.assert_array_equal(
        montecarlo._draw(montecarlo._guide(cdf), w, bucket, out),
        np.searchsorted(cdf, (w >> 11) * 2.0**-53, side="right"),
    )


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


def test_chunk_layout_never_changes_results(monkeypatch):
    config = ShotConfig(params=NOISY, seed=7, shots=4096)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 4096)
    reference = empirical_matrix(config, 4)
    for chunk in (1, 37, 1000, 65536):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk)
        again = empirical_matrix(config, 4)
        for ca, cb in zip(reference, again):
            np.testing.assert_array_equal(ca.counts, cb.counts)


def test_thread_count_never_changes_results(monkeypatch):
    # each column reads its own substream, so which thread samples it, and
    # with how many shots per draw, changes no count; a short switch interval
    # makes the threads interleave often, so a column lost or written twice shows
    params = DetectorParams(p_loss=0.3, lam=1.3)
    config = ShotConfig(params=params, seed=21, shots=3000)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1000)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda columns, k=workers: k)
            runs.append(empirical_matrix(config, 6))
    finally:
        sys.setswitchinterval(interval)
    for columns in runs:
        assert [col.n for col in columns] == list(range(7))
        for col, ref in zip(columns, runs[0]):
            np.testing.assert_array_equal(col.counts, ref.counts)
    for col in runs[0]:
        u = column_stream(21, col.n).random((3000, 2))
        manual = np.bincount(_measured(u[:, 0], u[:, 1], col.n, params), minlength=len(col.counts))
        np.testing.assert_array_equal(col.counts, manual)


def test_workers_follow_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert montecarlo._workers(1) == 1
    assert montecarlo._workers(10**6) == cpus
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert montecarlo._workers(10**6) == 1


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started for one worker")


def test_one_worker_starts_no_thread(monkeypatch):
    monkeypatch.setattr(montecarlo.threading, "Thread", _NoThread)
    config = ShotConfig(params=NOISY, seed=0, shots=100)
    assert len(empirical_matrix(config, 0)) == 1
    assert empirical_joint(config, pdc_prior(0.7, n_max=5)).sum() == 100  # one chunk
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 1)
    assert len(empirical_matrix(config, 5)) == 6


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_runner_returns_the_task_results_in_index_order(workers):
    def task(i):  # the runner hands a task its index and nothing else
        return f"task {i}"

    assert montecarlo._on_threads(task, 10, workers) == [task(i) for i in range(10)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_column_errors_reach_the_caller(monkeypatch, workers):
    error = ValueError("no stream for n = 5")

    def stream(seed, n):
        if n == 5:
            raise error
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: workers)
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error


def test_thread_start_errors_reach_the_caller(monkeypatch):
    # the second helper cannot be started: the first, already sampling, is
    # stopped and joined before the error reaches the caller
    error = RuntimeError("can't start new thread")
    start = threading.Thread.start
    starts = []

    def failing_start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise error
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=10**5), 30)
    assert caught.value is error
    assert len(starts) == 2
    assert threading.active_count() == before


def test_helper_thread_errors_reach_the_caller(monkeypatch):
    # the calling thread holds its first column until a helper has failed,
    # so the error is raised on a helper thread, never on the caller's
    error = ValueError("helper failed")
    failed = threading.Event()
    opened = []

    def stream(seed, n):
        opened.append(threading.get_ident())
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise error
        assert failed.wait(timeout=30), "no helper thread took a column"
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 2)
    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error
    assert threading.active_count() == before
    # the helper's failure stops the caller: no thread opens a second stream
    assert len(opened) <= 2 and len(set(opened)) == len(opened)


def test_caller_errors_stop_the_helpers(monkeypatch):
    # the helper holds its first column until the caller has failed, so the
    # caller's failure must stop it from taking another
    error = ValueError("caller failed")
    helper_opened = threading.Event()
    caller_failed = threading.Event()
    opened = []

    def stream(seed, n):
        opened.append(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            assert helper_opened.wait(timeout=30), "no helper thread took a column"
            caller_failed.set()
            raise error
        helper_opened.set()
        assert caller_failed.wait(timeout=30), "the caller never failed"
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 2)
    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error
    assert len(opened) == 2 and len(set(opened)) == 2
    assert threading.active_count() == before


def test_the_first_failure_is_the_one_raised(monkeypatch):
    # the helper fails first, then the caller fails after the helper has
    # exited: the helper's error is the one re-raised
    first = ValueError("helper failed first")
    second = ValueError("caller failed second")
    go = threading.Event()

    def stream(seed, n):
        if threading.current_thread() is not threading.main_thread():
            assert go.wait(timeout=30), "the caller never took a column"
            raise first
        go.set()
        deadline = time.monotonic() + 30
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "the helper thread never exited"
            time.sleep(0.001)
        raise second

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 2)
    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is first


class _Stop(BaseException):
    pass


def test_helper_base_exceptions_reach_the_caller(monkeypatch):
    # an exception that is not an Exception, like KeyboardInterrupt, still
    # stops the work and reaches the caller unchanged
    error = _Stop()
    failed = threading.Event()

    def stream(seed, n):
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise error
        assert failed.wait(timeout=30), "no helper thread took a column"
        return column_stream(seed, n)

    monkeypatch.setattr(montecarlo, "column_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda columns: 2)
    before = threading.active_count()
    with pytest.raises(_Stop) as caught:
        empirical_matrix(ShotConfig(params=NOISY, seed=0, shots=100), 9)
    assert caught.value is error
    assert threading.active_count() == before


def test_joint_thread_count_never_changes_results(monkeypatch):
    # each chunk advances its own copy of the joint stream to its first shot,
    # and the threads share only the histogram
    params = DetectorParams(p_loss=0.3, lam=1.3)
    config = ShotConfig(params=params, seed=21, shots=3000)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 999)
    u = joint_stream(21).random((3000, 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for prior in (pdc_prior(0.7, n_max=6), uniform_prior(5, 300)):
            for workers in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_workers", lambda chunks, k=workers: k)
                counts = empirical_joint(config, prior)
                np.testing.assert_array_equal(counts, _joint_by_layout(u, prior, params, counts.shape))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("entries", [1, 64])
def test_joint_table_size_never_changes_results(monkeypatch, entries):
    # a smaller stacked survivor table has fewer buckets per row, down to one
    # bucket that always falls back to the binary search
    monkeypatch.setattr(montecarlo, "_JOINT_TABLE_ENTRIES", entries)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 999)
    params = DetectorParams(p_loss=0.3, lam=1.3)
    prior = pdc_prior(0.7, n_max=6)
    u = joint_stream(21).random((3000, 3))
    counts = empirical_joint(ShotConfig(params=params, seed=21, shots=3000), prior)
    np.testing.assert_array_equal(counts, _joint_by_layout(u, prior, params, counts.shape))


def test_joint_helper_thread_errors_reach_the_caller(monkeypatch):
    error = ValueError("helper failed")
    failed = threading.Event()
    opened = []

    def stream(seed):
        opened.append(threading.get_ident())
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise error
        assert failed.wait(timeout=30), "no helper thread took a chunk"
        return joint_stream(seed)

    monkeypatch.setattr(montecarlo, "joint_stream", stream)
    monkeypatch.setattr(montecarlo, "_workers", lambda chunks: 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 10)
    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        empirical_joint(ShotConfig(params=NOISY, seed=0, shots=100), pdc_prior(0.7, n_max=5))
    assert caught.value is error
    assert threading.active_count() == before
    assert len(opened) <= 2 and len(set(opened)) == len(opened)


def test_joint_threads_keep_the_shots_in_flight(monkeypatch):
    # each of k threads draws _CHUNK_SHOTS // k shots at a time
    config = ShotConfig(params=NOISY, seed=0, shots=2**18)
    prior = pdc_prior(0.7, n_max=7)
    empirical_joint(config, prior)  # first-call allocations stay out of the peaks
    peaks = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_workers", lambda chunks, k=workers: k)
        tracemalloc.start()
        try:
            empirical_joint(config, prior)
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1]


def test_joint_memory_stays_near_its_result():
    # the stacked survivor guide rows of a wide prior get fewer buckets
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


def test_joint_chunk_layout_never_changes_results(monkeypatch):
    config = ShotConfig(params=NOISY, seed=7, shots=4096)
    prior = pdc_prior(0.7, n_max=6)
    monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 4096)
    reference = empirical_joint(config, prior)
    for chunk in (1, 37, 1000, 65536):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk)
        np.testing.assert_array_equal(reference, empirical_joint(config, prior))


@pytest.mark.parametrize("stream", [lambda: column_stream(9, 3), lambda: joint_stream(9)])
def test_uniforms_are_the_top_53_bits_of_raw_words(stream):
    # the samplers read words and rely on numpy's conversion to doubles;
    # 1001 words per call also crosses Philox's 4-word blocks mid-block
    doubles, words = stream(), stream().bit_generator
    for _ in range(2):
        np.testing.assert_array_equal(doubles.random(1001), (words.random_raw(1001) >> 11) * 2.0**-53)


def test_advanced_joint_stream_reproduces_the_full_stream():
    # shot `start` begins at word 3 * start; 3 * start % 4 takes every residue
    full = joint_stream(9).random((40, 3))
    for start in range(8):
        words = joint_stream(9).bit_generator
        words.advance(3 * start // 4)
        words.random_raw(3 * start % 4)
        np.testing.assert_array_equal((words.random_raw((40 - start, 3)) >> 11) * 2.0**-53, full[start:])


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


def test_threads_keep_the_shots_in_flight(monkeypatch):
    # each of k threads draws _CHUNK_SHOTS // k shots at a time
    config = ShotConfig(params=NOISY, seed=0, shots=2**18)
    empirical_matrix(config, 7)  # first-call allocations stay out of the peaks
    peaks = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_workers", lambda columns, k=workers: k)
        tracemalloc.start()
        try:
            empirical_matrix(config, 7)
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1]


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
