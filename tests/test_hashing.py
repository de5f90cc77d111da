"""Unit tests for the hashing substrate (repro.hashing.hash_functions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError
from repro.hashing import (
    MAX_UINT64,
    UnitHash,
    element_fingerprint,
    fingerprint_many,
    hash_to_unit,
    mix64,
    mix64_many,
)
from repro.hashing.hash_functions import VECTOR_HASH_MIN_SIZE

#: Every batch size from empty to twice the scalar/vectorised dispatch.
DISPATCH_SIZES = range(2 * VECTOR_HASH_MIN_SIZE + 1)


class TestMix64:
    def test_output_in_range(self):
        for value in (0, 1, 12345, MAX_UINT64, 2**63):
            assert 0 <= mix64(value) <= MAX_UINT64

    def test_deterministic(self):
        assert mix64(987654321) == mix64(987654321)

    def test_distinct_inputs_give_distinct_outputs(self):
        outputs = {mix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_only_low_64_bits_matter(self):
        assert mix64(5) == mix64(5 + 2**64)

    def test_avalanche_changes_many_bits(self):
        a = mix64(0)
        b = mix64(1)
        differing = bin(a ^ b).count("1")
        assert differing > 10

    def test_mix64_many_matches_scalar(self):
        values = np.concatenate(
            [
                np.arange(2_000, dtype=np.uint64),
                np.array([MAX_UINT64, 2**63, 2**40 + 7], dtype=np.uint64),
            ]
        )
        batch = mix64_many(values)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [mix64(int(value)) for value in values.tolist()]

    def test_mix64_many_accepts_signed_input(self):
        # int64 ids reinterpret through the same 64-bit wrap the scalar
        # path applies.
        assert mix64_many(np.arange(100, dtype=np.int64)).tolist() == [
            mix64(i) for i in range(100)
        ]


class TestElementFingerprint:
    def test_int_maps_to_itself_mod_2_64(self):
        assert element_fingerprint(42) == 42
        assert element_fingerprint(2**64 + 3) == 3

    def test_negative_int_wraps(self):
        assert element_fingerprint(-1) == MAX_UINT64

    def test_bool_is_treated_as_int(self):
        assert element_fingerprint(True) == 1
        assert element_fingerprint(False) == 0

    def test_numpy_integer_supported(self):
        assert element_fingerprint(np.int64(7)) == 7

    def test_string_and_bytes_agree_on_utf8(self):
        assert element_fingerprint("abc") == element_fingerprint(b"abc")

    def test_different_strings_differ(self):
        assert element_fingerprint("abc") != element_fingerprint("abd")

    def test_unsupported_type_raises(self):
        with pytest.raises(ConfigurationError):
            element_fingerprint(1.5)

    def test_empty_string_is_valid(self):
        assert 0 <= element_fingerprint("") <= MAX_UINT64


class TestHashToUnit:
    def test_range(self):
        assert hash_to_unit(0) == 0.0
        assert 0.0 <= hash_to_unit(MAX_UINT64) < 1.0

    def test_monotone_in_value(self):
        assert hash_to_unit(10) < hash_to_unit(2**40)


class TestUnitHash:
    def test_deterministic_across_instances(self):
        assert UnitHash(seed=3)("token") == UnitHash(seed=3)("token")

    def test_different_seeds_differ(self):
        assert UnitHash(seed=1)("token") != UnitHash(seed=2)("token")

    def test_output_in_unit_interval(self, hasher):
        values = [hasher(i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_roughly_uniform(self, hasher):
        values = np.array([hasher(i) for i in range(5000)])
        # Mean of U(0,1) is 0.5 with std ~0.29/sqrt(5000) ≈ 0.004.
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(np.quantile(values, 0.25) - 0.25) < 0.03

    def test_hash_many_matches_scalar_for_ints(self, hasher):
        elements = [0, 5, 17, 2**40, 999999]
        vectorised = hasher.hash_many(elements)
        scalar = np.array([hasher(e) for e in elements])
        np.testing.assert_allclose(vectorised, scalar, rtol=0, atol=1e-15)

    def test_hash_many_matches_scalar_for_strings(self, hasher):
        elements = ["a", "bb", "ccc"]
        vectorised = hasher.hash_many(elements)
        scalar = np.array([hasher(e) for e in elements])
        np.testing.assert_allclose(vectorised, scalar)

    def test_hash_many_empty(self, hasher):
        assert hasher.hash_many([]).size == 0

    def test_hash_many_matches_scalar_for_mixed_batch(self, hasher):
        elements = [1, "a", b"bytes", True, -7, 2**70]
        vectorised = hasher.hash_many(elements)
        scalar = np.array([hasher(e) for e in elements])
        assert np.array_equal(vectorised, scalar)

    def test_hash_many_matches_scalar_for_negative_ints(self, hasher):
        # The old integer fast path overflowed on negatives; the
        # fingerprint-array pass must wrap exactly like the scalar path.
        elements = [-1, -12345, 0, 7]
        vectorised = hasher.hash_many(elements)
        scalar = np.array([hasher(e) for e in elements])
        assert np.array_equal(vectorised, scalar)

    def test_hash_many_rejects_unsupported_types(self, hasher):
        with pytest.raises(ConfigurationError):
            hasher.hash_many([1.5])
        with pytest.raises(ConfigurationError):
            hasher.hash_many([1, 2.5])

    def test_hash_fingerprints_matches_hash_int(self, hasher):
        fingerprints = np.array([0, 1, 2**63, MAX_UINT64], dtype=np.uint64)
        vectorised = hasher.hash_fingerprints(fingerprints)
        scalar = np.array([hasher.hash_int(int(fp)) for fp in fingerprints])
        assert np.array_equal(vectorised, scalar)
        assert hasher.hash_fingerprints(np.empty(0, dtype=np.uint64)).size == 0

    def test_string_hashing_process_independent_constant(self):
        # Pin a concrete value so accidental changes to the fingerprinting
        # scheme (which would invalidate stored sketches) are caught.
        assert UnitHash(seed=0)("element") == 0.9395936612052355

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (
                0,
                [0.6524484863740322, 0.03401170130434639, 0.3262610137346482, 0.1790798029343914],
            ),
            (
                99,
                [0.5080615638574505, 0.8675922450125001, 0.7745578680976901, 0.17562190344163553],
            ),
        ],
    )
    def test_fingerprint_hashing_pinned_values(self, seed, expected):
        # Every stored sketch holds these values: the mixer must not drift,
        # on either side of the scalar/vectorised dispatch.
        fingerprints = np.array([0, 1, 2**63, MAX_UINT64], dtype=np.uint64)
        hasher = UnitHash(seed=seed)
        assert hasher.hash_fingerprints(fingerprints).tolist() == expected
        assert [hasher.hash_int(int(fp)) for fp in fingerprints] == expected
        repeats = -(-VECTOR_HASH_MIN_SIZE // fingerprints.size)
        vectorised = hasher.hash_fingerprints(np.tile(fingerprints, repeats))
        assert vectorised.size >= VECTOR_HASH_MIN_SIZE
        assert vectorised.tolist() == expected * repeats

    @pytest.mark.parametrize("seed", [0, 99])
    def test_hash_fingerprints_equals_hash_int_across_the_dispatch(self, seed):
        hasher = UnitHash(seed=seed)
        edges = [0, 1, 2**63, 2**64 - 1, 2**63 - 1, 2**32]
        rng = np.random.default_rng(seed)
        pool = edges + rng.integers(0, 2**64, 2 * VECTOR_HASH_MIN_SIZE, dtype=np.uint64).tolist()
        for size in DISPATCH_SIZES:
            fingerprints = np.array(pool[:size], dtype=np.uint64)
            hashes = hasher.hash_fingerprints(fingerprints)
            assert hashes.dtype == np.float64 and hashes.shape == (size,)
            assert hashes.tolist() == [hasher.hash_int(fp) for fp in pool[:size]], size

    @pytest.mark.parametrize("seed", [0, 99])
    @pytest.mark.parametrize("kind", ["int", "negative", "str", "bytes", "mixed"])
    def test_hash_many_equals_call_across_the_dispatch(self, seed, kind):
        hasher = UnitHash(seed=seed)
        ints = [0, 1, 2**63, 2**64 - 1, 7, 2**40 + 3]
        ints += list(range(100, 100 + 2 * VECTOR_HASH_MIN_SIZE))
        pool = {
            "int": ints,
            "negative": [-1, -(2**63), 0, -12345] + [-value for value in ints[4:]],
            "str": ["", "a", "element"] + [f"w{value}" for value in ints],
            "bytes": [b"", b"a", b"\xff"] + [b"b%d" % value for value in ints],
            "mixed": [0, "a", b"a", True, -7, 2**64 - 1, 2**70] + ints,
        }[kind]
        for size in DISPATCH_SIZES:
            hashes = hasher.hash_many(pool[:size])
            assert hashes.dtype == np.float64 and hashes.shape == (size,)
            assert hashes.tolist() == [hasher(element) for element in pool[:size]], size

    def test_pack_unpack_roundtrip(self):
        hasher = UnitHash(seed=123456789)
        assert UnitHash.unpack(hasher.pack()) == hasher

    def test_unpack_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            UnitHash.unpack(b"abc")

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigurationError):
            UnitHash(seed="not-an-int")  # type: ignore[arg-type]


class TestFingerprintMany:
    def test_matches_scalar_for_every_supported_type(self):
        elements = [0, 5, -1, 2**63, 2**70, True, False, "token", b"raw", ""]
        batch = fingerprint_many(elements)
        scalar = np.array([element_fingerprint(e) for e in elements], dtype=np.uint64)
        assert np.array_equal(batch, scalar)

    def test_integer_fast_path_matches_scalar(self):
        elements = list(range(-500, 500))
        batch = fingerprint_many(elements)
        scalar = np.array([element_fingerprint(e) for e in elements], dtype=np.uint64)
        assert np.array_equal(batch, scalar)

    def test_empty(self):
        assert fingerprint_many([]).size == 0
        assert fingerprint_many([]).dtype == np.uint64

    def test_accepts_any_iterable(self):
        assert np.array_equal(
            fingerprint_many(iter([3, 4])), fingerprint_many([3, 4])
        )

    def test_rejects_unsupported_types(self):
        with pytest.raises(ConfigurationError):
            fingerprint_many([object()])
        with pytest.raises(ConfigurationError):
            fingerprint_many([3, 1.25])
