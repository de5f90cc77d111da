"""MinHash substrate: signatures and banded LSH.

The LSH Ensemble baseline (Section III-A) is built from the pieces that
live here:

``MinHashSignature``
    Per-record minwise-hashing signature with the Jaccard estimator of
    Equation 5 and the containment transformation of Equation 14.
``MinHashLSH``
    Classic banded LSH index with ``(b, r)`` parameters and the standard
    candidate-probability model ``1 − (1 − s^r)^b``.
``optimal_lsh_params``
    Numerical minimisation of expected false positives + false negatives
    over feasible ``(b, r)`` pairs for a Jaccard threshold.
"""

from repro.minhash.signature import MinHashSignature
from repro.minhash.lsh import MinHashLSH, candidate_probability, optimal_lsh_params

__all__ = [
    "MinHashSignature",
    "MinHashLSH",
    "candidate_probability",
    "optimal_lsh_params",
]
