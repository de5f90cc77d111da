import numpy as np
import pytest

from bench.stats import MIN_BEYOND, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (10, None), (11, 9), (20, 52), (100, 90), (160, 94), (999, 99), (50_000, 99)],
)
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_keeps_ten_samples_beyond_and_is_the_highest():
    for n in range(11, 2_500):
        samples = np.arange(n, dtype=np.float64)
        p = tail_percentile(n)
        assert np.count_nonzero(samples > np.percentile(samples, p)) >= MIN_BEYOND, n
        if p < 99:
            assert np.count_nonzero(samples > np.percentile(samples, p + 1)) < MIN_BEYOND, n


def test_summarize_small_sample_uses_the_maximum():
    summary = summarize([3.0, 1.0, 2.0])
    assert (summary.n, summary.median, summary.min, summary.max) == (3, 2.0, 1.0, 3.0)
    assert summary.tail_percentile is None and summary.tail == 3.0


def test_summarize_quartiles_and_tail():
    summary = summarize(np.arange(101, dtype=np.float64))
    assert (summary.q1, summary.median, summary.q3) == (25.0, 50.0, 75.0)
    assert summary.tail_percentile == 90 and summary.tail == 90.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])
