"""Admissible stages and exact compatibility of digit/frequency sets.

(b, D, L) with #D = #L is a Hadamard triple when the normalized exponential
matrix H = (1/sqrt(#D)) [exp(2*pi*i*d*l/b)] is unitary; equivalently every
nonzero difference of L lies in the zero set of the digit mask.  For stage
digit sets D = {0, t, ..., (p-1)t} an admissible partner exists iff

    p | b / gcd(b, t),

and the canonical partner is (b*t'/(t*p)) * {0, ..., p-1} with t' = t/gcd(b,t).

The exact verdict reduces each difference to a vanishing sum of |b|-th roots
of unity; the numeric unitarity residual is a cross-check, never the judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .exactmath import digit_sum_vanishes


def is_admissible(b: int, p: int, t: int) -> bool:
    """Whether the stage (b, p, t) admits a compatible partner set.

    Signs of b and t are irrelevant to the divisibility criterion.
    """
    if abs(b) < 2 or p < 2 or t == 0:
        raise ValueError("need |b| >= 2, p >= 2, t != 0")
    bb, tt = abs(b), abs(t)
    return (bb // gcd(bb, tt)) % p == 0


def canonical_dual_digits(b: int, p: int, t: int) -> tuple[int, ...]:
    """The canonical partner set (b*t'/(t*p)) * {0, ..., p-1}, all entries integers.

    Only defined for admissible stages; works with |b|, |t| so the result is
    a set of nonnegative integers below |b|.
    """
    if not is_admissible(b, p, t):
        raise ValueError(f"stage (b={b}, p={p}, t={t}) is not admissible")
    bb, tt = abs(b), abs(t)
    s = gcd(bb, tt)
    step = (bb // s) // p
    return tuple(step * j for j in range(p))


def is_compatible_pair(b: int, digits: Sequence[int], freqs: Sequence[int]) -> bool:
    """Exact test that (b^{-1} D, L) is a compatible pair.

    For every l1 != l2 in L the sum over d in D of exp(2*pi*i*d*(l1-l2)/b)
    must vanish; each sum is reduced (order |b|/gcd, reduced exponents) and
    decided exactly as a vanishing root sum.  Arbitrary integer digit sets are
    accepted, not only arithmetic progressions.
    """
    if abs(b) < 2:
        raise ValueError("need |b| >= 2")
    if len(digits) != len(freqs):
        raise ValueError(f"size mismatch: #D={len(digits)} vs #L={len(freqs)}")
    if len(set(digits)) != len(digits) or len(set(freqs)) != len(freqs):
        return False
    fr = sorted(freqs)
    return all(digit_sum_vanishes(abs(b), digits, fr[j] - fr[i])
               for i in range(len(fr)) for j in range(i + 1, len(fr)))


def unitarity_residual(b: int, digits: Sequence[int], freqs: Sequence[int]) -> float:
    """Frobenius norm of H*H - I for the normalized exponential matrix."""
    if len(digits) != len(freqs):
        raise ValueError(f"size mismatch: #D={len(digits)} vs #L={len(freqs)}")
    d = np.array(digits, dtype=float)
    l = np.array(freqs, dtype=float)
    h = np.exp(2j * np.pi * np.outer(d, l) / b) / math.sqrt(len(digits))
    r = h.conj().T @ h - np.eye(len(freqs))
    return float(np.linalg.norm(r))


def parseval_sum(b: int, digits: Sequence[int], freqs: Sequence[int], x: float) -> float:
    """sum_{l in L} |m_D(l/b + x)|^2; identically 1 exactly for compatible pairs."""
    if len(digits) != len(freqs):
        raise ValueError(f"size mismatch: #D={len(digits)} vs #L={len(freqs)}")
    d = np.array(digits, dtype=float)
    total = 0.0
    for l in freqs:
        vals = np.exp(2j * np.pi * d * (l / b + x))
        total += abs(np.sum(vals) / len(digits)) ** 2
    return float(total)


@dataclass(frozen=True)
class TripleCheckReport:
    """Outcome of checking a stage: exact verdict, numeric residual, canonical partner."""

    exact_compatible: bool
    unitarity_residual: float
    canonical: Optional[tuple[int, ...]]


def triple_report(b: int, p: int, t: int) -> TripleCheckReport:
    """Check admissibility of (b, p, t) both exactly and numerically.

    Non-admissible stages have no unitary witness at all; the residual is
    reported as +inf in that case.
    """
    digits = tuple(j * t for j in range(p))
    if not is_admissible(b, p, t):
        return TripleCheckReport(False, math.inf, None)
    canonical = canonical_dual_digits(b, p, t)
    exact = is_compatible_pair(b, digits, canonical)
    resid = unitarity_residual(b, digits, canonical)
    return TripleCheckReport(exact, resid, canonical)
