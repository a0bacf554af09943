"""Admissible stages and exact compatibility of digit/frequency sets.

(b, D, L) with #D = #L is a Hadamard triple when the normalized exponential
matrix H = (1/sqrt(#D)) [exp(2*pi*i*d*l/b)] is unitary; equivalently every
nonzero difference of L lies in the zero set of the digit mask.  For stage
digit sets D = {0, t, ..., (p-1)t} an admissible partner exists iff

    p | b / gcd(b, t),

and the canonical partner is (b*t'/(t*p)) * {0, ..., p-1} with t' = t/gcd(b,t).

The exact verdict reduces each difference to a vanishing sum of |b|-th roots
of unity; no value here is a float.  The float cross-checks of a stage are
``spectra.weighted_matrix_residual`` and ``DiscreteMeasure.fourier_many``.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .exactmath import digit_sum_vanishes


def is_admissible(b: int, p: int, t: int) -> bool:
    """Whether the stage (b, p, t) admits a compatible partner set.

    Signs of b and t are irrelevant to the divisibility criterion.
    """
    if abs(b) < 2 or p < 2 or t == 0:
        raise ValueError("need |b| >= 2, p >= 2, t != 0")
    bb, tt = abs(b), abs(t)
    return (bb // gcd(bb, tt)) % p == 0


def dual_step(b: int, p: int, t: int) -> int:
    """The canonical partner's step (|b| / gcd(|b|, |t|)) / p, for an admissible stage."""
    bb = abs(b)
    return bb // gcd(bb, abs(t)) // p


def canonical_dual_digits(b: int, p: int, t: int) -> tuple[int, ...]:
    """The canonical partner set (b*t'/(t*p)) * {0, ..., p-1}, all entries integers.

    Only defined for admissible stages; works with |b|, |t| so the result is
    a set of nonnegative integers below |b|, the multiples of dual_step.
    """
    if not is_admissible(b, p, t):
        raise ValueError(f"stage (b={b}, p={p}, t={t}) is not admissible")
    step = dual_step(b, p, t)
    return tuple(step * j for j in range(p))


def is_compatible_pair(b: int, digits: Sequence[int], freqs: Sequence[int]) -> bool:
    """Exact test that (b^{-1} D, L) is a compatible pair.

    For every l1 != l2 in L the sum over d in D of zeta^(d*l), zeta =
    exp(2*pi*i/|b|) and l = l1 - l2, must vanish.  zeta^l is a Galois
    conjugate of zeta^g, g = gcd(|b|, l), as l/g is a unit mod |b|/g, so
    the sum vanishes iff it does at g: one root sum per class g, decided
    exactly (digit_sum_vanishes), at most d(|b|) of them however large L
    is.  Arbitrary integer digit sets are accepted, not only arithmetic
    progressions.
    """
    if abs(b) < 2:
        raise ValueError("need |b| >= 2")
    if len(digits) != len(freqs):
        raise ValueError(f"size mismatch: #D={len(digits)} vs #L={len(freqs)}")
    if len(set(digits)) != len(digits) or len(set(freqs)) != len(freqs):
        return False
    fr = sorted(freqs)
    classes = {gcd(abs(b), fr[j] - fr[i]) for i in range(len(fr)) for j in range(i + 1, len(fr))}
    return all(digit_sum_vanishes(abs(b), digits, g) for g in classes)
