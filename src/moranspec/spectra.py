"""Tower spectra for truncated convolutions and their exact verification.

Depth-k truncations of admissible stage sequences carry finite spectra

    Lambda_k = L_1 + b_1 L_2 + ... + (b_1...b_{k-1}) L_k

assembled from the per-stage canonical partner sets.  Orthogonality is
checked exactly (every nonzero difference must hit a stage mask zero set),
completeness by counting, and the Jorgensen-Pedersen function

    Q(x) = sum_lambda |mu_hat(x + lambda)|^2

is evaluated numerically; for a finite orthonormal basis it is identically 1.
q_function sums it point by point over any candidate.  tower_q sums it
over the canonical tower's digit tree, from tower_stages' list and no word:
stage n's factor depends only on a point's first n digits, since every
later digit moves its argument by an integer, so each factor is evaluated
once per digit prefix, at the prefix's and x's parts of its argument, each
reduced mod 1 in integers; up to RECURRENCE_MAX_P digits its cosine comes
by angle addition from the prefix's cosine and sine, taken once, and x's.

verify_spectrum_finite's numeric residual is a sum over a digit tree on a
tower too, the tree of digit differences: stage n's factor at a difference
depends only on its first n digits, and its argument t_n d / (L B_n) is
reduced mod 1 in integers before any float is formed
(measure.reduced_amplitude), so each factor is taken once per digit prefix
and exactly where a float point would keep no fractional digit, and the
leaves are summed with their pair counts, half of them by symmetry, with no
list of differences, by one recursive walker (_leaf_sum) a table of prefix
sums at a time; any other candidate takes the same kernel at each distinct
difference, in one function (_pairwise_residual), which agrees to rounding.

The residue decomposition splits Lambda/b_1 into classes n/q + Z and
reassembles tail spectra from one partner-slot choice per residue block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .exactmath import over_common_denominator
from .hadamard import dual_step, is_admissible
from .measure import (DEFAULT_ATOM_CAP, MU_HAT_BLOCK, RECURRENCE_MAX_P, AtomCapExceeded,
                      DiscreteMeasure, StagePair, SymbolicWord, SystemConfig, canonical_ratios,
                      chebyshev_amplitude, dirichlet_amplitude, float_quotients, int_width,
                      mask_zero_hit, mu_hat_amplitude, reduced_amplitude, reduced_quotients,
                      runs, stage_walk, sumset, sumset_span)


@dataclass(frozen=True)
class SpectrumCandidate:
    """A finite exponent set nums[i]/den.

    Stored in canonical form: den > 0 and strictly increasing integer
    numerators, reduced by their gcd with den; ``finite`` takes rationals,
    ``lattice`` a symmetric window of digits + period*Z, and ``points`` is
    the Fraction view, built on first use.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        nums, den = canonical_ratios(self.nums, self.den, "spectrum")
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def finite(cls, points) -> "SpectrumCandidate":
        nums, den = over_common_denominator(points)
        return cls(nums=tuple(sorted(nums)), den=den)

    @classmethod
    def lattice(cls, digits, period, window: int) -> "SpectrumCandidate":
        """The window digits + period*{-window..window} of digits + period*Z.

        Digits are reduced mod period; two that agree mod period raise ValueError.
        """
        period = Fraction(period)
        if period <= 0 or window < 0:
            raise ValueError("a lattice needs a positive period and a window >= 0")
        return cls.finite(Fraction(d) % period + period * w for d in digits
                          for w in range(-window, window + 1))

    @functools.cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self) -> int:
        return len(self.nums)


def default_lattice_modulus(config: SystemConfig) -> int:
    """Least common multiple of p*|t| over the alphabet; the canonical q."""
    return math.lcm(*(pr.p * abs(pr.t) for pr in config.pairs))


def tower_stages(config: SystemConfig, word: SymbolicWord, k: int,
                 cap: int) -> list[tuple[StagePair, int, int]]:
    """(pair, step, b_1...b_n) for the stages n = 1..k of the depth-k tower.

    step is b_1...b_{n-1} times the stage's canonical partner step (dual_step), so
    the tower is the sumset of the progressions step*{0, ..., p-1}.  Raises
    ValueError naming the first stage that is not admissible, and
    AtomCapExceeded once the point count would pass cap, before that
    stage's partner is built.
    """
    stages, points = [], 1
    for n, (pr, base) in enumerate(stage_walk(config, word, k), start=1):
        if not is_admissible(pr.b, pr.p, pr.t):
            raise ValueError(
                f"stage {n} = (b={pr.b}, p={pr.p}, t={pr.t}) is not admissible")
        points *= pr.p
        if points > cap:
            raise AtomCapExceeded(f"tower to depth {k} needs {points}+ points; cap is {cap}")
        stages.append((pr, _partner_step(pr, base), base))
    return stages


def _partner_step(pr: StagePair, base: int) -> int:
    """b_1...b_{n-1} times the canonical partner step of the stage pr, base = b_1...b_n."""
    return base // pr.b * dual_step(pr.b, pr.p, pr.t)


def build_tower_spectrum(config: SystemConfig, word: SymbolicWord, k: int) -> SpectrumCandidate:
    """Finite spectrum of the depth-k truncation from per-stage canonical partners.

    Every letter used in positions 1..k must be admissible.  Raises
    AtomCapExceeded, before any point is built, when the point count would
    pass DEFAULT_ATOM_CAP.  No point repeats: digit choices that first differ
    at stage n differ by step*j plus a multiple of b_1...b_n, 0 < |j| < p, and
    |b| = s*p*gcd(b, t), s the canonical partner step, does not divide s*j.
    """
    stages = tower_stages(config, word, k, DEFAULT_ATOM_CAP)
    pts = sumset([(pr.p, step) for pr, step, _ in stages])
    return SpectrumCandidate(nums=tuple(pts.tolist()))


@dataclass(frozen=True)
class SpectrumVerification:
    """Exact verdict plus a numeric unitarity residual.

    offending is the least positive difference that hits no stage zero set.
    unitarity_residual is computed from config, word and k over the
    candidate's ordered pairs of distinct points:
    sqrt(sum_{i != j} |mu_hat_k(lambda_i - lambda_j)|^2), where mu_hat_k is
    the depth-k transform of config/word.  For the depth-k truncation in
    exact arithmetic it equals the Frobenius norm of M*M - I for
    M = [sqrt(w_i) exp(2 pi i lambda_j x_i)] (see weighted_matrix_residual).
    Each factor |D_{p_n}(t_n d / B_n)| is taken at its argument reduced mod 1
    in integers (measure.reduced_amplitude), so the rounding of every factor
    is that of D_p at a point of [0, 1), however large t_n and d are.
    """

    ok: bool
    reason: Optional[str]
    offending: Optional[Fraction]
    unitarity_residual: float


# Past VERIFY_ATOM_BOUND (VERIFY_ATOM_BOUND - 1) / 2 weighted differences
# (_leaf_weight) the pairwise path refuses before allocating: it goes through
# all N(N-1)/2 differences in one sorted array (8.4 million integers at N =
# 4096) and sums the residual over every distinct one; a larger bound needs
# its own memory measurement.  A tower translate takes no difference array
# and is bounded by its digit tree instead (VERIFY_LEAF_BOUND).
VERIFY_ATOM_BOUND = 4096

# weighted digit-tree leaves (tower_leaves) a tower translate's residual may
# take.  An int64 leaf took 11-16 ns with p <= 32 at the last stage and up to
# 25 ns past it, so the slowest tower at the bound takes about 2 s; the rates
# are in the README's paragraph on the leaf bound, from
# scripts/verify_paths.py (two-core Xeon)
VERIFY_LEAF_BOUND = 8 * 10**7

# a leaf whose stage factor may take Python integers weighs WIDE_LEAF_WEIGHT
# int64 leaves and one more per WIDE_LEAF_BITS bits: measured at 166 ns a
# leaf at 64 to 152 bits, 222 ns at 536, 572 ns at 2,072 and 2,006 ns at 8,216
WIDE_LEAF_WEIGHT = 15
WIDE_LEAF_BITS = 48

# prefix sums per array of the tower residual: while a level's children fit
# this many, the walk takes them as one table, so a tower with at most this
# many leaves is one pass over its whole tree; past it the walk goes depth
# first, one table at a time, so memory stays flat
TOWER_LEAF_TABLE = 2**16


def weighted_matrix_residual(measure: DiscreteMeasure, points: Sequence[Fraction]) -> float:
    """Frobenius norm of M*M - I for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)]."""
    xs = np.array([float(x) for x in measure.points])
    ws = np.sqrt(np.array([float(w) for w in measure.weights]))
    ls = np.array([float(l) for l in points])
    m = ws[:, None] * np.exp(2j * np.pi * np.outer(xs, ls))
    r = m.conj().T @ m - np.eye(len(points))
    return float(np.linalg.norm(r))


def tree_levels(walk: Iterable[tuple[StagePair, int]],
                scale: int = 1) -> Iterator[tuple[int, int, int, int]]:
    """(p_n, t_n, scale |step_n|, scale |b_1...b_n|) per (pair, b_1...b_n) of a stage walk.

    The steps are tower_stages', so these are the levels _leaf_sum takes for
    the tower over 1/scale; no stage needs to be admissible.
    """
    for pr, base in walk:
        yield pr.p, pr.t, abs(_partner_step(pr, base)) * scale, abs(base) * scale


def _leaf_weight(top: int) -> int:
    """int64 leaves' worth of one leaf or difference whose integers reach top.

    1 below 2**53, where its sums and residues are int64 and each quotient
    one float division; past that they may take Python integers, and it
    weighs WIDE_LEAF_WEIGHT and one more per WIDE_LEAF_BITS bits of top.
    """
    return 1 if top < 2**53 else WIDE_LEAF_WEIGHT + top.bit_length() // WIDE_LEAF_BITS


def tower_leaves(levels: Iterable[tuple[int, int, int, int]], k: int,
                 bound: float = VERIFY_LEAF_BOUND) -> int:
    """The weighted leaf count of a depth-k tower's residual, from its digit tree's levels.

    levels are (p_n, t_n, step_n, mod_n), tree_levels' or _leaf_sum's: the
    tree has sums of span sum_n (p_n - 1) step_n and prod_{m<=n} (2p_m - 1)
    leaves at level n, each taking stage n's reduced_amplitude at mod_n and
    weighing _leaf_weight of the larger of mod_n and span t', t' t_n's
    residue of least magnitude mod mod_n.  Raises AtomCapExceeded past
    bound, and stops reading levels once the leaves alone pass it, so a walk
    of any depth stops there.
    """
    read, level, leaves, span = [], 1, 0, 0
    for p, t, step, mod in levels:
        level *= 2 * p - 1
        leaves += level
        span += (p - 1) * step
        read.append((level, abs((t + mod // 2) % mod - mod // 2), mod))
        if leaves > bound:  # every leaf weighs 1 at least
            break
    work = sum(level * _leaf_weight(max(span * t, mod)) for level, t, mod in read)
    if work > bound:
        raise AtomCapExceeded(f"the depth-{k} tower's residual needs {work}+ weighted "
                              f"digit-tree leaves; leaf bound is {bound}")
    return work


def tower_translate(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                    k: int) -> Optional[list[tuple[int, int, int, int]]]:
    """tree_levels' list over 1/den when the candidate is a translate of the depth-k tower.

    A translate by any rational: the candidate's numerators over den are the
    sumset of the progressions den*step*{0, ..., p-1} plus one integer, and
    mask_zero_hit finds every stage's differences step*j, j = 1..p-1, over
    b_1...b_n in the stage's zero set (one call on Python integers each,
    exact at any width).  Then every difference of the candidate is
    orthogonal: one whose digits first differ at stage n is step*j plus a
    multiple of b_1...b_n, which leaves stage n's zero test unchanged, so no
    difference is left to test.  The span is checked before any point is
    built.  None when the candidate is no such translate.
    """
    nums, den = candidate.nums, candidate.den
    if not nums:
        return None
    try:
        stages = tower_stages(config, word, k, len(nums))
    except ValueError:  # a stage with no partner, or more tower points than the candidate's
        return None
    if sum((pr.p - 1) * abs(step) * den for pr, step, _ in stages) != nums[-1] - nums[0]:
        return None
    if not all(mask_zero_hit(pr.p, pr.t, step * j, base)
               for pr, step, base in stages for j in range(1, pr.p)):
        return None
    pts = sumset([(pr.p, step * den) for pr, step, _ in stages])
    shift = nums[0] - int(pts[0])  # the numerators less shift, at a width that holds them
    width = int_width(max(-nums[0], nums[-1]) + abs(shift))
    if not np.array_equal(pts, np.fromiter(nums, dtype=width, count=len(nums)) - shift):
        return None
    return list(tree_levels(((pr, base) for pr, _, base in stages), den))


def _tower_residual(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                    k: int) -> Optional[float]:
    """The unitarity residual of a translate of the depth-k tower, from its digit tree.

    None unless tower_translate finds the candidate a translate of the
    tower, whose every difference is then orthogonal.  Past VERIFY_LEAF_BOUND
    weighted leaves (tower_leaves) it raises AtomCapExceeded before any leaf
    is built.

    The ordered differences are the sums s(j) over the stages of
    den*|step|*j_n, |j_n| < p_n, each counted prod (p_n - |j_n|) times (the
    multiset of j*step is symmetric, so |step| serves), and s(j) = 0 only at
    j = 0, as tower points are distinct.  So the residual squared is
    sum_{j != 0} prod (p_n - |j_n|) |mu_hat_k(s(j))|^2, with no sort and no
    merge of equal sums: equal sums share their amplitude and their counts
    add.  With each new digit leading, leaf M - 1 - i of the
    M = prod (2p_n - 1) digit vectors is -j for leaf i, of the same weight
    and, |mu_hat_k| being even, the same amplitude, and the middle leaf is
    j = 0; so _leaf_sum sums the leaves past M/2 and the residual is the
    square root of twice that.  No sum passes the span, so the sumset's
    width holds them.  A table of _leaf_sum's holds TOWER_LEAF_TABLE int64
    values' worth of bits: that many sums on int64, fewer of the span's bit
    length past it.

    Rounding: the tower is orthogonal, so every leaf j != 0 has an exact
    factor 0, at stage m, the first with j_m != 0.  With u = 2**-53 and
    e_n dirichlet_amplitude's bound at |v| < 1, each computed factor is
    within d_n = e_n + pi p_n u / 4 of its value (a correctly rounded
    quotient in [0, 1) is within u/2, times |D_p'| <= pi p / 2), and the
    exact factors of the stages past m, weighted, sum to p_n over each
    prefix's children (the partner is a spectrum of the stage mask).  So the
    residual is at most sqrt(N sum_n (p_n - 1) d_n**2), N = prod p_n, to
    first order in u, however large t_n, the translate and N are.
    """
    levels = tower_translate(candidate, config, word, k)
    if levels is None:
        return None
    tower_leaves(levels, k)
    if not levels:
        return 0.0
    span = candidate.nums[-1] - candidate.nums[0]
    width = int_width(span)
    table = TOWER_LEAF_TABLE if width is np.int64 else max(
        1, TOWER_LEAF_TABLE * 64 // span.bit_length())
    return math.sqrt(2 * _leaf_sum(levels, np.zeros(1, dtype=width), np.ones(1), 0, 0, table))


def _leaf_sum(levels: Sequence[tuple[int, int, int, int]], sums: np.ndarray, prods: np.ndarray,
              reach: int, sign: int, table: int) -> float:
    """sum over the digit tree's leaves past M/2 of prod_n (p_n - |j_n|) D_{p_n}(t_n s_n / mod_n)**2.

    levels holds (p_n, t_n, step_n, mod_n) per stage below sums, a table of
    prefix sums s = sum_m step_m j_m over the stages above, prods their
    weighted products and reach their span.  The sums are exact integers at
    the width of the tower's span (int_width), which bounds every |s_n|.  A
    later term step_m j_m, m > n, times t_n is a multiple of mod_n, so stage
    n's reduced_amplitude at a leaf is its value at the leaf's level-n
    prefix, bit for bit, and is taken once per prefix: prod_{m<=n} (2p_m - 1)
    values for n < k, then (M - 1)/2 for the leaves, each multiplying its
    parent's weighted product.

    sign is that of the highest nonzero digit above the table, 0 if none.
    The leaves past M/2 are those whose highest nonzero digit is positive:
    at the last stage a digit 0 keeps every leaf below a positive sign and
    the table's upper half (indices past len(sums)/2) below sign 0.  Each
    call evaluates the children of as many digits as fit one table of
    table sums (one digit at least), in digit order.  Below sign 0, when all
    2p - 1 digits fit, the children, the new digit leading, are themselves
    such a table, symmetric about its middle, and the walk goes on from it
    once; so a tower whose leaves fit one table is one pass over it, and a
    larger one walks its top stages depth first, one table at a time.
    """
    (p, t, step, mod), rest = levels[0], levels[1:]
    reach += (p - 1) * step
    lo = 1 - p if rest else 0 if sign >= 0 else 1
    skip = 0 if rest or sign else len(sums) // 2 + 1
    per = max(1, table // len(sums))
    total = 0.0
    for first in range(lo, p, per):
        digits = np.arange(first, min(first + per, p))
        pairs = (p - np.abs(digits)).astype(float).reshape(-1, 1)
        children = np.add.outer(np.multiply(digits, step, dtype=sums.dtype), sums).ravel()
        factors = reduced_amplitude(p, t, children[skip:], mod, reach)
        factors *= factors
        if rest:
            rows = factors.reshape(len(digits), -1)
            rows *= pairs
            rows *= prods
            if not sign and len(digits) == 2 * p - 1:  # the whole level is one table
                return _leaf_sum(rest, children, factors, reach, 0, table)
            for j, row, weights in zip(digits.tolist(), children.reshape(rows.shape), rows):
                total += _leaf_sum(rest, row, weights, reach, (j > 0) - (j < 0) or sign, table)
        else:
            factors *= np.multiply.outer(pairs.ravel(), prods).ravel()[skip:]
            total += float(factors.sum())
        skip = 0
    return total


def _pairwise_residual(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                       k: int, atoms: int) -> tuple[float, Optional[Fraction]]:
    """Any candidate's unitarity residual over its distinct differences, and the least offender.

    With the points as integers over L = candidate.den, every |D p t|, D a
    difference and (p, t) a walked pair, is at most the span of the points
    times the largest p|t|, which fixes the integer width (int_width).  The
    max(N, atoms)(max(N, atoms) - 1)/2 differences, each weighing
    _leaf_weight of the larger of that bound and the largest L|b_1...b_n|,
    are refused with AtomCapExceeded past VERIFY_ATOM_BOUND
    (VERIFY_ATOM_BOUND - 1)/2 before anything is allocated.  The N(N-1)/2
    positive differences of the sorted points are written row by row into
    one array of that width, sorted in place and merged into runs.

    One MU_HAT_BLOCK of distinct differences at a time, in increasing order,
    a block adds its share of sqrt(2 sum count |mu_hat_k|^2) (see
    SpectrumVerification), |mu_hat_k| the product of reduced_amplitude at
    each stage's L|b_1...b_n|.  When the candidate has atoms points the
    block is then tested by mask_zero_hit against each (pair,
    L*b_1...b_n) within the bound, as a larger one hits no difference; the
    first block holding a difference no stage hits gives the least offender
    and ends the testing, not the residual.
    """
    nums, scale = candidate.nums, candidate.den
    stages = [(pr, scale * base) for pr, base in stage_walk(config, word, k)]
    reach = max((pr.p * abs(pr.t) for pr, _ in stages), default=1)
    bound = (nums[-1] - nums[0] if nums else 0) * reach
    size = max(len(nums), atoms)
    work = size * (size - 1) // 2 * _leaf_weight(max([bound] + [abs(den) for _, den in stages]))
    if work > VERIFY_ATOM_BOUND * (VERIFY_ATOM_BOUND - 1) // 2:
        raise AtomCapExceeded(f"{size} atoms need {work} weighted differences, past the verify "
                              f"atom bound {VERIFY_ATOM_BOUND}")
    arr = np.array([v - nums[0] for v in nums], dtype=int_width(bound))
    n = len(arr)
    table, pos = np.empty(n * (n - 1) // 2, dtype=arr.dtype), 0
    for i in range(n - 1):
        np.subtract(arr[i + 1:], arr[i], out=table[pos:pos + n - 1 - i])
        pos += n - 1 - i
    table.sort()
    diffs, counts = runs(table)
    walk = [(pr, den) for pr, den in stages if abs(den) <= bound]
    total, offending, complete = 0.0, None, len(nums) == atoms
    for i in range(0, len(diffs), MU_HAT_BLOCK):
        block = diffs[i:i + MU_HAT_BLOCK]
        amp = np.ones(len(block))
        for pr, den in stages:
            amp *= reduced_amplitude(pr.p, pr.t, block, abs(den), int(block[-1]))
        total += float(np.sum(counts[i:i + MU_HAT_BLOCK] * (amp * amp)))
        if complete and offending is None:
            missed = np.ones(len(block), dtype=bool)
            for pr, den in walk:
                missed &= ~mask_zero_hit(pr.p, pr.t, block, den)
            if missed.any():
                offending = Fraction(int(block[missed.argmax()]), scale)
    return math.sqrt(2 * total), offending


def verify_spectrum_finite(measure: DiscreteMeasure, candidate: SpectrumCandidate,
                           config: SystemConfig, word: SymbolicWord,
                           k: int) -> SpectrumVerification:
    """Exact check that a finite candidate is a spectrum of the depth-k truncation.

    Orthogonality: every nonzero difference must land in some stage zero set
    (a factor of the truncated transform vanishes); D/L, D an integer over
    the candidate's denominator L, lands in stage n's when mask_zero_hit
    holds for D over L*b_1...b_n.  Completeness: the candidate size must
    equal the atom count.  A translate of the depth-k tower, over any
    denominator, is checked stage by stage (_tower_residual): p - 1
    differences per stage prove orthogonality, and the residual is a sum
    over the tower's digit tree (_leaf_sum), with no list of differences;
    past VERIFY_LEAF_BOUND weighted leaves (tower_leaves) it raises
    AtomCapExceeded before building one.
    Every other candidate, and a tower with an incompatible stage, goes
    through every difference in one function (_pairwise_residual): past
    VERIFY_ATOM_BOUND (VERIFY_ATOM_BOUND - 1)/2 differences of max(points,
    atoms), weighted by their width, it raises AtomCapExceeded before
    allocating anything, and otherwise it sums the residual over the
    distinct differences and tests the stage walk for the least positive
    offender.  Both paths take every factor by reduced_amplitude, so they
    agree to rounding.
    """
    complete = len(candidate.nums) == len(measure.nums)
    resid, offending = _tower_residual(candidate, config, word, k), None
    if resid is None:
        resid, offending = _pairwise_residual(candidate, config, word, k, len(measure.nums))
    reason = ("cardinality" if not complete
              else "orthogonality" if offending is not None else None)
    return SpectrumVerification(reason is None, reason, offending, resid)


def q_function(config: SystemConfig, word: SymbolicWord, depth: int,
               candidate: SpectrumCandidate, x: float | np.ndarray) -> float | np.ndarray:
    """Jorgensen-Pedersen sum over the candidate at the depth-truncation.

    x is a scalar or an array of points; Q is returned with x's shape.
    At most 1 plus the truncation tail tolerance when the candidate is an
    orthonormal family for the measure, identically 1 when it is a spectrum
    of it; non-orthogonal candidates can exceed 1.
    """
    lams = float_quotients(candidate.nums, candidate.den)
    amp, _ = mu_hat_amplitude(config, word, np.add.outer(x, lams), depth)
    q = np.sum(amp * amp, axis=-1)
    return float(q) if np.ndim(q) == 0 else q


# grid x tower points per tower_q block: numpy's cost per call is paid once
# a block, and larger blocks leave the cache.  Over the 13 towers of
# scripts/qcheck_rates.py at 5*10**7 counted evaluations each, blocks of
# 2**12, 2**14 and 2**16 entries took 17.5, 12.1 and 14.2 s in all; 2**16
# was faster only at depth 12 and at depth 1 with p <= 32, and 2**14
# was up to 1.6 times faster past RECURRENCE_MAX_P (two-core Xeon)
TOWER_Q_BLOCK = 2**14


def _prefix_tables(stages: Sequence[tuple[StagePair, int, int]],
                   width: type) -> list[tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Each stage's tables over its digit prefixes lambda, at a = (|t_n| lambda mod |B_n|)/|B_n|.

    (p, cos(pi a), sin(pi a)) up to RECURRENCE_MAX_P, (p, a, None) past it.
    The prefixes are exact integers of width and a is reduced_quotients';
    the new digit leads, so each prefix's p children are p equal slices.
    """
    tables, offsets, reach = [], np.zeros(1, dtype=width), 0
    for pr, step, base in stages:
        offsets = np.add.outer(np.arange(pr.p, dtype=width) * step, offsets).ravel()
        reach += (pr.p - 1) * abs(step)
        quots = reduced_quotients(abs(pr.t), offsets, abs(base), reach)
        if pr.p > RECURRENCE_MAX_P:
            tables.append((pr.p, quots, None))
        else:
            quots *= math.pi
            tables.append((pr.p, np.cos(quots), np.sin(quots)))
    return tables


def tower_q(stages: Sequence[tuple[StagePair, int, int]], nums,
            den: int = 1) -> Iterator[np.ndarray]:
    """Q of the tower over its digit tree at each x = nums[i]/den, one block at a time.

    stages is tower_stages' list, read without a word, and nums are sorted
    integers, an array or a range, over den > 0.  The blocks hold
    consecutive x's, in order, at most TOWER_Q_BLOCK grid x tower points
    each (one x once the tower has more), and each x's Q does not depend on
    the split.

    Stage n's squared factor D_{p_n}(t_n (x + lambda) / B_n)**2 depends only
    on lambda's first n digits: a later digit step B_{j-1} s_j, j > n, times
    t_n / B_n is an integer, which leaves D_p**2 unchanged.  So each prefix
    lambda = sum_{j<=n} d_j step_j, d_j < p_j, is built once per call as an
    exact integer of sumset's width (int_width), and Q(x) is the sum of x's
    leaves, taken back up the tree (the p_n children of each prefix into
    it, deepest stage first, in digit order): sum_n prod_{j<=n} p_j factors
    per x, not depth prod p_j.  D_p**2 is even with period 1, so the factor
    is taken at a + g, a = (|t_n| lambda mod |B_n|)/|B_n| once per prefix per
    call and g = (|t_n| num mod den |B_n|)/(den |B_n|) once per x per block,
    every stage's g in one reduced_quotients table: both residues are
    integers and both quotients lie in [0, 1), however large t_n, B_n and x
    are.  A stage with p_n <= RECURRENCE_MAX_P needs only c = cos(pi (a + g)),
    which angle addition splits into cos(pi a) cos(pi g) - sin(pi a) sin(pi g):
    a block costs two outer products and a subtraction, then
    chebyshev_amplitude.  A larger p_n takes the sine quotient at the float
    sum a + g, since sin(pi v) from angle addition loses its relative
    accuracy near the integers.  Refuses only as sumset_span does.

    Rounding: with u = 2**-53 and e_n dirichlet_amplitude's bound at |v| = 2,
    |Q(x) - 1| <= sum_n (2 sqrt(p_n) d_n + 3 p_n u) to first order in u, where
    d_n = e_n + 1.3 (p_n**2 - 1) u + 2 pi p_n u up to RECURRENCE_MAX_P and
    d_n = e_n + pi p_n u past it bounds each factor's error.  Neither grows
    with |t_n| or x.  Each correctly rounded quotient is within u/2 of its
    value, so each angle, pi a or pi g, is within 2 pi u of its value, and
    the sum a + g within 2u: an argument error of 4u or 2u, times pi p_n / 2
    (|D_p'| at most).  Angle addition is within (2 + 2 sqrt 2) u of the
    cosine of the angles' sum, (1 + 2 sqrt 2) u more than one cos call,
    which moves U_{p-1}(c)/p by at most (p**2 - 1)/3 times that.  As D_p**2
    sums to 1 over a prefix's children, their errors 2 D_p d_n sum to at
    most 2 sqrt(p_n) d_n (Cauchy-Schwarz), and each child adds 3 u for the
    square, the weight and the sum.
    """
    steps = [(pr.p, step) for pr, step, _ in stages]
    tables = _prefix_tables(stages, int_width(sumset_span(steps)))
    ts, mods = [abs(pr.t) for pr, _, _ in stages], [den * abs(base) for _, _, base in stages]
    reach = max(abs(int(nums[0])), abs(int(nums[-1]))) if len(nums) else 0
    rows = max(1, TOWER_Q_BLOCK // math.prod(p for p, _ in steps))
    for i in range(0, len(nums), rows):
        block = nums[i:i + rows]
        if isinstance(block, range):  # np.asarray would step through it in Python
            block = np.arange(block.start, block.stop, block.step)
        quots = reduced_quotients(ts, block, mods, reach)
        angles = quots * math.pi  # every stage's angle, unused past the branch
        weight = np.ones(len(block))
        for n, ((p, lo, hi), quot, cos_x, sin_x) in enumerate(
                zip(tables, quots, np.cos(angles), np.sin(angles))):
            if hi is None:
                amp = dirichlet_amplitude(p, np.add.outer(lo, quot))
            else:
                amp = np.multiply.outer(lo, cos_x)
                amp -= np.multiply.outer(hi, sin_x)
                amp = chebyshev_amplitude(p, amp)
            amp *= amp
            if n:  # the root's weight is 1
                children = amp.reshape(p, -1)
                children *= weight.reshape(-1)
            weight = amp
        for p, *_ in reversed(tables):
            weight = weight.reshape(p, -1)
            # numpy sums one column pairwise and more than one in order; in order always
            weight = weight.sum(axis=0) if weight.shape[1] > 1 else np.add.accumulate(weight)[-1]
        yield weight


@dataclass(frozen=True)
class Decomposition:
    """Residue decomposition Lambda/b_1 = union_n (n/q + classes[n]).

    q is a positive common modulus with (q/b_1) Lambda integral; classes maps
    each residue n in [0, q) with nonempty fiber to its integer part set.
    """

    q: int
    classes: Mapping[int, frozenset[int]]


def decompose_spectrum(candidate: SpectrumCandidate, b1: int, q: int) -> Decomposition:
    """Split a finite spectrum by residues n/q; requires (q/b1)*Lambda integral."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    classes: dict[int, set[int]] = {}
    for lam in candidate.points:
        y = Fraction(lam) * q / b1
        if y.denominator != 1:
            raise ValueError(
                f"(q/b1)*lambda = {y} is not an integer for lambda = {lam}")
        n = y.numerator % q
        z = (y.numerator - n) // q
        classes.setdefault(n, set()).add(z)
    return Decomposition(q, {n: frozenset(zs) for n, zs in classes.items()})


def extract_tail_spectrum(dec: Decomposition, choices: Sequence[int],
                          p1: int, t1: int) -> SpectrumCandidate:
    """Reassemble a tail-measure spectrum from one partner-slot choice per block.

    With q = tau1 * p1 * t1 and choices j_i in [0, p1) for i in [0, tau1),
    gathers (i + tau1*j_i + tau1*p1*l)/q + classes[...] over l in [0, t1);
    empty classes contribute nothing, so the result may be empty.
    """
    if p1 < 1 or t1 < 1:
        raise ValueError("p1 and t1 must be positive")
    if dec.q % (p1 * t1) != 0:
        raise ValueError(f"q={dec.q} is not a multiple of p1*t1={p1 * t1}")
    tau1 = dec.q // (p1 * t1)
    if len(choices) != tau1:
        raise ValueError(f"need {tau1} choices, got {len(choices)}")
    if any(not 0 <= j < p1 for j in choices):
        raise ValueError("choices must lie in [0, p1)")
    pts: set[Fraction] = set()
    for i in range(tau1):
        for l in range(t1):
            n = i + tau1 * choices[i] + tau1 * p1 * l
            for z in dec.classes.get(n, frozenset()):
                pts.add(Fraction(n, dec.q) + z)
    return SpectrumCandidate.finite(sorted(pts))


def structure_witnesses(candidate: SpectrumCandidate, b1: int, p1: int,
                        t1: int) -> dict[int, Optional[Fraction]]:
    """Search a finite spectrum for elements b1*(j + p1*l)/(p1*t1) + b1*Z per j.

    Infinite spectra are guaranteed to contain one for every j in [1, p1);
    at truncated level this only reports presence or absence, with a witness
    element when present.
    """
    found: dict[int, Optional[Fraction]] = {j: None for j in range(1, p1)}
    for lam in candidate.points:
        y = Fraction(lam) * p1 * t1 / b1
        if y.denominator != 1:
            continue
        j = y.numerator % p1
        if j != 0 and found.get(j) is None:
            found[j] = lam
    return found
