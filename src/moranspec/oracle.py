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
from itertools import islice
from math import gcd
from typing import Callable, Iterator, Optional, Sequence

from .exactmath import RationalLike, digit_sum_vanishes
from .measure import AtomCapExceeded, DiscreteMeasure, SymbolicWord, SystemConfig, stage_walk
from .spectra import weighted_matrix_residual

# most digits the partner search takes when p <= |b|: it nests one Python
# frame per digit, and 100 of the default 1,000 are left to the caller
ORACLE_DIGIT_BOUND = 900


def _cliques(zero, singles: Sequence, size: int,
             compatible: Callable[[object], bool]) -> Iterator[tuple]:
    """Depth-first {zero} plus size - 1 increasing singles, pairwise compatible.

    Every single is taken to be compatible with zero already; compatible(d)
    decides the positive difference d of two chosen singles.  Sets come out
    in lexicographic order.
    """
    def extend(chosen: list, start: int) -> Iterator[tuple]:
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for idx in range(start, len(singles)):
            s = singles[idx]
            if all(compatible(s - c) for c in chosen[1:]):
                yield from extend(chosen + [s], idx + 1)

    return extend([zero], 0)


def search_compatible_partners(b: int, p: int, t: int, window: Optional[int] = None,
                               limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """All partner sets of ``iter_compatible_partners``, or its first ``limit``, as a list."""
    return list(iter_compatible_partners(b, p, t, window, limit))


def iter_compatible_partners(b: int, p: int, t: int, window: Optional[int] = None,
                             limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partner sets L in [0, window) with 0 in L, #L = p, exactly compatible, one at a time.

    Two elements are compatible when their difference is an exact zero of
    the digit mask (scaled by b), which is the compatibility condition
    itself, so every emitted set is exactly compatible.  The root sum of a
    difference l depends only on its residue r = l mod m, m = |b|: it is
    sum_j w^j with w = zeta_m^(t*r), a root of order m/g for
    g = gcd(m, t*r).  Residues with the same g give Galois-conjugate sums,
    which vanish together, so one root sum per class g (at most d(m) of
    them) decides the set V of vanishing residues, kept as a bitmask.

    The depth-first search carries the mask of residues compatible with
    every element chosen so far; adding s ands it with V rotated by
    s mod m.  Elements still to choose have distinct residues in that mask,
    pairwise compatible, so a branch is cut when the mask holds no such
    residue set of the needed size.  That search over residues is memoized
    per call on (mask, need), and it first colors the mask greedily into
    sets of pairwise incompatible residues: a compatible set takes at most
    one residue from each, so fewer colors than needed settle it at once.

    The default window is |b|*p*|t|.  Sets come out in lexicographic order,
    and ``limit`` stops after the first ones.  The arguments are checked
    and the root sums decided when this is called; the search then runs as
    the sets are taken, holding one partial set, never the sets found, so a
    caller that counts them needs no memory for the count.  A p past |b|
    gives no set before any root sum; a p <= |b| past ORACLE_DIGIT_BOUND
    raises AtomCapExceeded.
    """
    if abs(b) < 2 or p < 2 or t == 0:
        raise ValueError("need |b| >= 2, p >= 2, t != 0")
    m = abs(b)
    if window is None:
        window = m * p * abs(t)
    if window < m:
        raise ValueError(f"window must be >= |b| = {m}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if p > m:  # two of p elements agree mod m, and their root sum is p ones
        return iter(())
    if p > ORACLE_DIGIT_BOUND:
        raise AtomCapExceeded(f"partner search on p = {p} digits is past the digit bound; "
                              f"bound is {ORACLE_DIGIT_BOUND}")
    digits = tuple(j * t for j in range(p))
    by_class: dict[int, bool] = {}
    vanishes = []
    for r in range(m):
        g = gcd(m, t * r)
        if g not in by_class:
            by_class[g] = digit_sum_vanishes(m, digits, r)
        vanishes.append(by_class[g])
    residues = [r for r in range(m) if vanishes[r]]
    # bit r of V is set when residue r vanishes; one int() parse stays linear in m
    vanishing = int("".join("1" if v else "0" for v in reversed(vanishes)), 2)
    full = (1 << m) - 1

    def rotated(r: int) -> int:
        """The residues x with x - r mod m in V: those compatible with r."""
        return ((vanishing << r) | (vanishing >> (m - r))) & full

    def colors(mask: int, need: int) -> int:
        """Independent sets a greedy coloring of the mask uses, counted up to need."""
        count, left = 0, mask
        while left and count < need:
            count, free = count + 1, left
            while free:
                low = free & -free
                left ^= low
                free &= ~(low | rotated(low.bit_length() - 1))
        return count

    memo: dict[tuple[int, int], bool] = {}

    def has_clique(mask: int, need: int) -> bool:
        """Whether need residues of the mask are pairwise compatible."""
        if need == 1:
            return mask != 0
        key = (mask, need)
        if key not in memo:
            found = False
            rest = mask if colors(mask, need) == need else 0
            while not found and rest.bit_count() >= need:
                low = rest & -rest
                rest ^= low
                found = has_clique(rest & rotated(low.bit_length() - 1), need - 1)
            memo[key] = found
        return memo[key]

    singles = [q + r for q in range(0, window, m) for r in residues if q + r < window]

    def extend(chosen: list, start: int, mask: int) -> Iterator[tuple]:
        need = p - len(chosen)
        if not has_clique(mask, need):
            return
        if need == 1:  # the last element: one set per single left in the mask
            for idx in range(start, len(singles)):
                s = singles[idx]
                if mask >> (s % m) & 1:
                    yield (*chosen, s)
        else:
            for idx in range(start, len(singles)):
                s = singles[idx]
                if mask >> (s % m) & 1:
                    yield from extend(chosen + [s], idx + 1, mask & rotated(s % m))

    return islice(extend([0], 0, vanishing), limit)


def _truncation_zero(config: SystemConfig, word: SymbolicWord, depth: int,
                     delta: Fraction) -> bool:
    """Whether delta is an exact zero of the depth-truncated transform.

    Stage n vanishes at delta iff sum_{j<p} zeta_q^(j*a) = 0, where
    a/q = t*delta/(b_1...b_n) in lowest terms: p times the stage mask at
    delta/(b_1...b_n) is that sum.  It is decided as a vanishing root sum,
    not by the closed form it cross-checks: trial division factors q, then
    the test takes at most p * 2^omega(q) integer steps.
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
    n_atoms = len(measure.nums)
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
    cliques = _cliques(Fraction(0), singles, n_atoms,
                       lambda delta: delta in single_set or pair_ok(delta))
    return [c for c in cliques if weighted_matrix_residual(measure, c) < tol]


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
