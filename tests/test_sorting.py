"""``stable_argsort`` and ``stable_lexsort``: bitwise equal to numpy's sorts.

Construction routes every whole-column stable sort through
``stable_argsort``, and the query engine orders its hits with
``stable_lexsort``, so their permutations must equal
``np.argsort(kind="stable")`` and ``np.lexsort`` exactly — ties in
position order, ``-0.0`` tied with ``+0.0``, NaNs last — for every key
dtype they sort, at the sizes where the packed-key layout changes
(``n`` = 0, 1, 2), on spans that need one LSD pass and more, and on both
sides of the size below which both defer to numpy.  Small inputs never
reach the packed passes through the public kernels, so the packed path
(``packed_lexsort``) is tested directly at every size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.sorting import (
    PACKED_SORT_MIN_SIZE,
    packed_lexsort,
    stable_argsort,
    stable_lexsort,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SIZES = st.integers(min_value=0, max_value=200)


def assert_matches_numpy(keys: np.ndarray) -> None:
    """The packed path and the public kernel both equal numpy's stable argsort."""
    expected = np.argsort(keys, kind="stable")
    for order in (packed_lexsort([keys]), stable_argsort(keys)):
        assert order.dtype == np.int64
        assert np.array_equal(order, expected)


def assert_lexsort_matches_numpy(columns: list[np.ndarray]) -> None:
    """The packed path and the public kernel both equal ``np.lexsort``."""
    expected = np.lexsort(columns)
    for order in (packed_lexsort(columns), stable_lexsort(columns)):
        assert order.dtype == np.int64
        assert np.array_equal(order, expected)


def _with_ties(values: st.SearchStrategy, pool: list) -> st.SearchStrategy:
    """Draws from a small pool (many ties, extremes) or the full range."""
    return st.one_of(st.sampled_from(pool), values)


class TestMatchesNumpyStableArgsort:
    @given(hnp.arrays(np.bool_, SIZES))
    def test_bool(self, keys):
        assert_matches_numpy(keys)

    @given(hnp.arrays(np.uint8, SIZES))
    def test_uint8(self, keys):
        assert_matches_numpy(keys)

    @given(
        hnp.arrays(
            np.int32,
            SIZES,
            elements=_with_ties(
                st.integers(-(2**31), 2**31 - 1), [-(2**31), -1, 0, 1, 2**31 - 1]
            ),
        )
    )
    def test_int32(self, keys):
        assert_matches_numpy(keys)

    @given(
        hnp.arrays(
            np.int64,
            SIZES,
            elements=_with_ties(
                st.integers(INT64_MIN, INT64_MAX), [INT64_MIN, -7, -1, 0, 3, INT64_MAX]
            ),
        )
    )
    def test_int64_full_range(self, keys):
        assert_matches_numpy(keys)

    @given(
        hnp.arrays(
            np.uint64,
            SIZES,
            elements=_with_ties(
                st.integers(2**63, 2**64 - 1), [2**63, 2**63 + 1, 2**64 - 1]
            ),
        )
    )
    def test_uint64_at_or_above_two_to_the_63(self, keys):
        assert_matches_numpy(keys)

    @given(
        hnp.arrays(
            np.float64,
            SIZES,
            elements=_with_ties(
                st.floats(allow_nan=False),
                [0.0, -0.0, np.inf, -np.inf, 0.25, -0.25, 5e-324, -5e-324],
            ),
        )
    )
    def test_float64_ties_signed_zeros_and_infinities(self, keys):
        assert_matches_numpy(keys)

    @settings(max_examples=50)
    @given(
        hnp.arrays(
            np.float64,
            SIZES,
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_float64_with_nans(self, keys):
        assert_matches_numpy(keys)

    @pytest.mark.parametrize(
        "dtype", [np.bool_, np.uint8, np.int32, np.int64, np.uint64, np.float64]
    )
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_tiny_columns(self, dtype, size):
        assert_matches_numpy(np.zeros(size, dtype=dtype))
        assert_matches_numpy(np.arange(size, 0, -1).astype(dtype))


class TestPassBoundaries:
    """Spans at the edge of one LSD pass and beyond it.

    A digit holds ``64 - bit_length(n - 1)`` bits; keys spanning exactly
    that many sort in one pass, one more bit needs a second pass.
    """

    @pytest.mark.parametrize("size", [2, 3, 1000, 4097])
    @pytest.mark.parametrize("extra_bits", [0, 1, 2])
    def test_span_around_one_digit(self, size, extra_bits):
        digit_bits = 64 - (size - 1).bit_length()
        span_bits = min(digit_bits + extra_bits, 64)
        rng = np.random.default_rng(size * 7 + extra_bits)
        keys = rng.integers(0, 2**span_bits - 1, size=size, dtype=np.uint64, endpoint=True)
        keys[rng.integers(size)] = 2**span_bits - 1  # span reaches its top bit
        keys[rng.integers(size)] = 0
        keys[rng.permutation(size)[: size // 3]] = keys[0]  # ties across passes
        assert_matches_numpy(keys)

    def test_full_width_signed_and_unsigned(self):
        rng = np.random.default_rng(5)
        signed = rng.integers(INT64_MIN, INT64_MAX, size=5000, dtype=np.int64)
        signed[::7] = signed[3]
        assert_matches_numpy(signed)
        assert_matches_numpy(signed.view(np.uint64))

    def test_hash_like_floats_in_unit_interval(self):
        rng = np.random.default_rng(9)
        keys = rng.random(20_000)
        keys[::5] = keys[11]
        assert_matches_numpy(keys)


class TestNaNAndInputContract:
    def test_nans_sort_last_in_position_order(self):
        # Every NaN bit pattern — negative, signalling, with payload —
        # ranks equal to every other NaN and above +inf, as in numpy.
        nan_patterns = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        ).view(np.float64)
        keys = np.array([1.0, np.inf, -np.inf, -0.0, 0.0, -3.5])
        keys = np.concatenate([nan_patterns[:2], keys, nan_patterns[2:], keys[::-1]])
        order = packed_lexsort([keys])
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.isnan(keys[order[-4:]]).all()
        assert order[-4:].tolist() == [0, 1, 8, 9]

    def test_does_not_modify_keys(self):
        keys = np.array([3, -1, 2, -1], dtype=np.int64)
        floats = np.array([np.nan, -0.0, 2.0])
        unsigned = np.array([2**63 + 5, 7, 2**64 - 1], dtype=np.uint64)
        for sort in (stable_argsort, lambda column: packed_lexsort([column])):
            sort(keys)
            sort(floats)
            sort(unsigned)
        packed_lexsort([unsigned, floats, keys[:3]])
        assert keys.tolist() == [3, -1, 2, -1]
        assert np.signbit(floats[1]) and np.isnan(floats[0])
        assert unsigned.tolist() == [2**63 + 5, 7, 2**64 - 1]

    def test_rejects_two_dimensional_keys(self):
        with pytest.raises(ValueError):
            stable_argsort(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize(
        "keys", [np.array(["b", "a"]), np.array([1, 2], dtype=object), np.array([1j, 0j])]
    )
    def test_rejects_unordered_dtypes(self, keys):
        with pytest.raises(TypeError):
            stable_argsort(keys)


#: Pools of key values per dtype, many ties and every extreme included.
KEY_POOLS = {
    np.bool_: st.booleans(),
    np.int32: _with_ties(
        st.integers(-(2**31), 2**31 - 1), [-(2**31), -1, 0, 1, 2**31 - 1]
    ),
    np.int64: _with_ties(
        st.integers(INT64_MIN, INT64_MAX), [INT64_MIN, -7, -1, 0, 3, INT64_MAX]
    ),
    np.uint64: _with_ties(
        st.integers(2**63, 2**64 - 1), [2**63, 2**63 + 1, 2**64 - 1]
    ),
    np.float64: _with_ties(
        st.floats(allow_nan=True, allow_infinity=True),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 0.25, -0.25, 5e-324],
    ),
}
LEXSORT_SIZES = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=PACKED_SORT_MIN_SIZE - 3, max_value=PACKED_SORT_MIN_SIZE + 3),
    st.integers(min_value=2 * PACKED_SORT_MIN_SIZE, max_value=5 * PACKED_SORT_MIN_SIZE),
)


@st.composite
def key_columns(draw) -> list[np.ndarray]:
    """One to three equal-length columns of mixed dtypes.

    Each column draws its values from a small pool, so ties run across
    columns and sizes well above :data:`PACKED_SORT_MIN_SIZE` stay cheap.
    """
    size = draw(LEXSORT_SIZES)
    columns = []
    for dtype in draw(st.lists(st.sampled_from(list(KEY_POOLS)), min_size=1, max_size=3)):
        pool = np.array(draw(st.lists(KEY_POOLS[dtype], min_size=1, max_size=12)), dtype=dtype)
        picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        columns.append(pool[picks.integers(pool.size, size=size)])
    return columns


class TestMatchesNumpyLexsort:
    @settings(max_examples=150, deadline=None)
    @given(key_columns())
    def test_mixed_key_columns(self, columns):
        assert_lexsort_matches_numpy(columns)

    @pytest.mark.parametrize("size", [0, 1, 2])
    @pytest.mark.parametrize("num_keys", [1, 2, 3])
    def test_tiny_columns(self, size, num_keys):
        columns = [np.arange(size, 0, -1) % 2, -np.arange(size, dtype=np.float64)]
        assert_lexsort_matches_numpy((columns * 2)[:num_keys])

    def test_hit_order_keys(self):
        # The engine's three keys: record ids, negated scores, query ids.
        rng = np.random.default_rng(4)
        size = 50_000
        ids = rng.integers(0, 40_000, size)
        scores = rng.integers(1, 300, size) / rng.integers(70, 2_000, size)
        queries = np.sort(rng.integers(0, 256, size))
        assert_lexsort_matches_numpy([ids, -scores, queries])

    def test_unequal_lengths_raise_like_numpy(self):
        columns = [np.arange(3), np.arange(2)]
        with pytest.raises(ValueError):
            np.lexsort(columns)
        with pytest.raises(ValueError):
            stable_lexsort(columns)

    def test_no_columns_raise_like_numpy(self):
        with pytest.raises(TypeError):
            np.lexsort([])
        with pytest.raises(TypeError):
            stable_lexsort([])

    def test_rejects_two_dimensional_and_unordered_columns(self):
        with pytest.raises(ValueError):
            stable_lexsort([np.zeros((2, 2), dtype=np.int64)])
        with pytest.raises(TypeError):
            stable_lexsort([np.arange(2), np.array(["b", "a"])])


class TestSizeDispatch:
    """Both public kernels equal numpy on each side of the cutoff."""

    @pytest.mark.parametrize("size", [PACKED_SORT_MIN_SIZE - 1, PACKED_SORT_MIN_SIZE])
    def test_public_kernels_on_both_sides(self, size):
        rng = np.random.default_rng(size)
        ids = rng.integers(0, size // 4, size)
        scores = rng.random(size).round(2)
        assert np.array_equal(stable_argsort(ids), np.argsort(ids, kind="stable"))
        assert np.array_equal(
            stable_lexsort((ids, -scores)), np.lexsort((ids, -scores))
        )
