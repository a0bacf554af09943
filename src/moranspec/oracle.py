"""Independent brute-force cross-checks for the exact decision paths.

These searches exist to catch implementation bugs: the exhaustive partner
search double-checks the admissibility criterion, the exhaustive spectrum
search double-checks tower construction, and the rigidity report replays
the weighted-mean identity the decomposition machinery relies on.  Oracle
verdicts never override exact-theorem verdicts; a disagreement is a test
failure with both certificates printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import RationalLike, digit_sum_vanishes
from .measure import DiscreteMeasure, SymbolicWord, SystemConfig, stage_walk
from .spectra import weighted_matrix_residual


def search_compatible_partners(b: int, p: int, t: int, window: Optional[int] = None,
                               limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """All partner sets L in [0, window) with 0 in L, #L = p, exactly compatible.

    Candidates are pruned by requiring every pairwise difference to be an
    exact zero of the digit mask (scaled by b), which is the compatibility
    condition itself, so every emitted set is exactly compatible.  The
    default window is |b|*p*|t|.  ``limit`` truncates the enumeration for
    the parameter corners where the number of compatible sets explodes
    combinatorially; an unlimited call materializes everything.
    """
    if abs(b) < 2 or p < 2 or t == 0:
        raise ValueError("need |b| >= 2, p >= 2, t != 0")
    if window is None:
        window = abs(b) * p * abs(t)
    if window < abs(b):
        raise ValueError(f"window must be >= |b| = {abs(b)}")
    digits = tuple(j * t for j in range(p))
    singles = [l for l in range(1, window) if digit_sum_vanishes(abs(b), digits, l)]
    single_set = set(singles)
    results: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int) -> bool:
        if len(chosen) == p:
            results.append(tuple(chosen))
            return limit is not None and len(results) >= limit
        for idx in range(start, len(singles)):
            l = singles[idx]
            if all((l - c) in single_set for c in chosen[1:]):
                if extend(chosen + [l], idx + 1):
                    return True
        return False

    extend([0], 0)
    return sorted(results)


def _truncation_zero(config: SystemConfig, word: SymbolicWord, depth: int,
                     delta: Fraction) -> bool:
    """Whether delta is an exact zero of the depth-truncated transform.

    Stage n vanishes at delta iff sum_{j<p} zeta_q^(j*a) = 0, where
    a/q = t*delta/(b_1...b_n) in lowest terms: p times the stage mask at
    delta/(b_1...b_n) is that sum.  It is decided as a vanishing root sum,
    not by the closed form it cross-checks.  The cost grows with q, so
    callers screen candidates numerically first.
    """
    for pr, base in stage_walk(config, word, depth):
        y = Fraction(pr.t * delta, base)
        if digit_sum_vanishes(y.denominator, range(pr.p), y.numerator):
            return True
    return False


def search_spectra(measure: DiscreteMeasure, pool: Sequence[RationalLike],
                   tol: float = 1e-9, config: Optional[SystemConfig] = None,
                   word: Optional[SymbolicWord] = None,
                   depth: Optional[int] = None) -> list[tuple[Fraction, ...]]:
    """All subsets of the pool that are numerically-unitary spectra of the measure.

    Candidates contain 0, have as many elements as the measure has atoms,
    and make the weighted exponential matrix unitary within tol.  When the
    measure came from stages (config/word/depth given), candidate
    differences must additionally pass the exact truncation zero test.
    """
    n_atoms = len(measure.atoms)
    if n_atoms > 64:
        raise ValueError(f"atom count {n_atoms} exceeds the oracle cap of 64")
    pool_f = sorted({Fraction(x) for x in pool})
    if Fraction(0) not in pool_f:
        return []
    if (config is None) != (word is None) or (config is None) != (depth is None):
        raise ValueError("config, word and depth must be given together")

    def pair_ok(delta: Fraction) -> bool:
        if abs(measure.fourier_many([float(delta)])[0]) > tol:
            return False
        if config is not None and not _truncation_zero(config, word, depth, delta):
            return False
        return True

    singles = [x for x in pool_f if x != 0 and pair_ok(x)]
    single_set = set(singles)
    results: list[tuple[Fraction, ...]] = []

    def extend(chosen: list[Fraction], start: int) -> None:
        if len(chosen) == n_atoms:
            if weighted_matrix_residual(measure, chosen) < tol:
                results.append(tuple(chosen))
            return
        for idx in range(start, len(singles)):
            lam = singles[idx]
            if all((lam - c) in single_set or pair_ok(lam - c) for c in chosen[1:]):
                extend(chosen + [lam], idx + 1)

    if n_atoms == 1:
        return [(Fraction(0),)]
    extend([Fraction(0)], 0)
    return sorted(results)


@dataclass(frozen=True)
class RigidityReport:
    """Both sides of the weighted-mean rigidity identity and their agreement."""

    weighted_sum: Fraction
    sum_is_one: bool
    structured: bool
    equivalent: bool


def weighted_mean_rigidity(p_matrix: Sequence[Sequence[RationalLike]],
                           x_matrix: Sequence[Sequence[RationalLike]]) -> RigidityReport:
    """Exact replay of: sum_ij p_ij x_ij = 1 iff rows of x are constant and
    the first column sums to 1.

    Requires p strictly positive with rows summing to exactly 1, and x
    nonnegative with the row maxima summing to at most 1.  Evaluated in
    rational arithmetic; the equivalence is expected to hold on every valid
    instance.
    """
    p = [[Fraction(v) for v in row] for row in p_matrix]
    x = [[Fraction(v) for v in row] for row in x_matrix]
    if len(p) == 0 or len(p) != len(x):
        raise ValueError("matrices must be nonempty with equal row counts")
    n = len(p[0])
    if any(len(row) != n for row in p) or any(len(row) != n for row in x):
        raise ValueError("matrices must be rectangular with equal shapes")
    if any(v <= 0 for row in p for v in row):
        raise ValueError("p entries must be positive")
    if any(sum(row) != 1 for row in p):
        raise ValueError("p rows must sum to exactly 1")
    if any(v < 0 for row in x for v in row):
        raise ValueError("x entries must be nonnegative")
    if sum(max(row) for row in x) > 1:
        raise ValueError("row maxima of x must sum to at most 1")
    total = sum(pv * xv for prow, xrow in zip(p, x) for pv, xv in zip(prow, xrow))
    sum_is_one = (total == 1)
    structured = (sum(row[0] for row in x) == 1
                  and all(all(v == row[0] for v in row) for row in x))
    return RigidityReport(total, sum_is_one, structured, sum_is_one == structured)
