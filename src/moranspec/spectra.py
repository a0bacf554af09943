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

verify_spectrum_finite proves orthogonality in integers, a translate of
the depth-k tower by p - 1 partner differences per stage (tower_translate)
and any other candidate by its distinct differences (_pairwise_residual),
each block of them against every stage in one call.  Wherever
orthogonality is proven the unitarity residual is exactly 0.0 and no float
is summed; elsewhere it is summed over the distinct differences, each
stage factor at its argument reduced mod 1 in integers
(measure.reduced_amplitude, a block's stages in one call).

The residue decomposition splits Lambda/b_1 into classes n/q + Z and
reassembles tail spectra from one partner-slot choice per residue block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

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
    and ``points`` is the Fraction view, built on first use.
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

    @functools.cached_property
    def points(self) -> tuple[Fraction, ...]:
        if self.den == 1:  # integers, with no gcd to take
            return tuple(map(Fraction, self.nums))
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
        stages.append((pr, base // pr.b * dual_step(pr.b, pr.p, pr.t), base))
    return stages


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
    """Exact verdict plus a unitarity residual.

    offending is the least positive difference that hits no stage zero set.
    unitarity_residual is sqrt(sum_{i != j} |mu_hat_k(lambda_i - lambda_j)|^2)
    over the candidate's ordered pairs of distinct points, mu_hat_k the
    depth-k transform of config/word.  For the depth-k truncation in exact
    arithmetic it equals the Frobenius norm of M*M - I for
    M = [sqrt(w_i) exp(2 pi i lambda_j x_i)] (see weighted_matrix_residual).
    It is exactly 0.0 wherever every difference is proven orthogonal in
    integers, since every term is then 0; otherwise it is a float sum, each
    factor |D_{p_n}(t_n d / B_n)| taken at its argument reduced mod 1 in
    integers (measure.reduced_amplitude), so the rounding of every factor is
    that of D_p at a point of [0, 1), however large t_n and d are.
    """

    ok: bool
    reason: Optional[str]
    offending: Optional[Fraction]
    unitarity_residual: float


# Past VERIFY_ATOM_BOUND (VERIFY_ATOM_BOUND - 1) / 2 weighted differences
# (_difference_weight) of its points the pairwise path refuses before
# allocating: it goes through all N(N-1)/2 differences in one sorted array
# (8.4 million integers at N = 4096) and, unless they prove orthogonal, sums
# the residual over every distinct one; a larger bound needs its own memory
# measurement.  A tower translate takes no difference array and is bounded
# only by the atom cap and measure.SUMSET_BIT_BOUND.
VERIFY_ATOM_BOUND = 4096

# a difference whose residues may take Python integers weighs
# WIDE_DIFFERENCE_WEIGHT int64 ones and one more per WIDE_DIFFERENCE_BITS
# bits: reduced_amplitude took 11-25 ns a factor on int64, 166 ns at 64 to
# 152 bits, 222 ns at 536, 572 ns at 2,072 and 2,006 ns at 8,216
WIDE_DIFFERENCE_WEIGHT = 15
WIDE_DIFFERENCE_BITS = 48


def weighted_matrix_residual(measure: DiscreteMeasure, points: Sequence[Fraction]) -> float:
    """Frobenius norm of M*M - I for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)]."""
    xs = np.array([float(x) for x in measure.points])
    ws = np.sqrt(np.array([float(w) for w in measure.weights]))
    ls = np.array([float(l) for l in points])
    m = ws[:, None] * np.exp(2j * np.pi * np.outer(xs, ls))
    r = m.conj().T @ m - np.eye(len(points))
    return float(np.linalg.norm(r))


def _difference_weight(top: int) -> int:
    """int64 differences' worth of one difference whose integers reach top.

    1 below 2**53, where its residues are int64 and each quotient one float
    division; past that they may take Python integers, and it weighs
    WIDE_DIFFERENCE_WEIGHT and one more per WIDE_DIFFERENCE_BITS bits of top.
    """
    return 1 if top < 2**53 else WIDE_DIFFERENCE_WEIGHT + top.bit_length() // WIDE_DIFFERENCE_BITS


def tower_translate(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                    k: int) -> bool:
    """Whether the candidate is a translate of the depth-k tower, which proves it orthogonal.

    A translate by any rational: the candidate's numerators over den are the
    sumset of the progressions den*step*{0, ..., p-1} plus one integer, and
    mask_zero_hit finds every stage's differences step*j, j = 1..p-1, over
    b_1...b_n in the stage's zero set (one call on Python integers each,
    exact at any width).  Then every difference of the candidate is
    orthogonal: one whose digits first differ at stage n is step*j plus a
    multiple of b_1...b_n, which leaves stage n's zero test unchanged, so no
    difference is left to test.  The span is checked before any point is
    built, and so is the sum: a tower translate is symmetric about its
    centre, so its N numerators sum to N times the mean of the two ends.
    """
    nums, den = candidate.nums, candidate.den
    if not nums:
        return False
    try:
        stages = tower_stages(config, word, k, len(nums))
    except ValueError:  # a stage with no partner, or more tower points than the candidate's
        return False
    if sum((pr.p - 1) * abs(step) * den for pr, step, _ in stages) != nums[-1] - nums[0]:
        return False
    if 2 * sum(nums) != len(nums) * (nums[0] + nums[-1]):  # not symmetric about its centre
        return False
    if not all(mask_zero_hit(pr.p, pr.t, step * j, base)
               for pr, step, base in stages for j in range(1, pr.p)):
        return False
    pts = sumset([(pr.p, step * den) for pr, step, _ in stages])
    shift = nums[0] - int(pts[0])  # the numerators less shift, at a width that holds them
    width = int_width(max(-nums[0], nums[-1]) + abs(shift))
    return np.array_equal(pts, np.fromiter(nums, dtype=width, count=len(nums)) - shift)


def _pairwise_residual(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                       k: int, complete: bool) -> tuple[float, Optional[Fraction]]:
    """Any candidate's unitarity residual over its distinct differences, and the least offender.

    With the points as integers over L = candidate.den, every |D p t|, D a
    difference and (p, t) a walked pair, is at most the span of the points
    times the largest p|t|, which fixes the integer width (int_width).  The
    N(N-1)/2 differences of the N points, each weighing _difference_weight
    of the larger of that bound and the largest L|b_1...b_n|, are refused
    with AtomCapExceeded past VERIFY_ATOM_BOUND (VERIFY_ATOM_BOUND - 1)/2
    before anything is allocated.  They are written into one array of that
    width, sorted in place and merged into runs: each block of
    isqrt(MU_HAT_BLOCK) rows takes one broadcast subtraction against every
    later point, straight into the array, and one for its own pairs j > i,
    the only temporary, so the numpy calls number about N/64, not N.

    A complete candidate's distinct differences are tested in increasing
    order, a block at a time, by one mask_zero_hit call against the column
    of every (pair, L*b_1...b_n) within the bound, as a larger one hits no
    difference; a block holds MU_HAT_BLOCK entries, differences times
    stages.  The first block holding a difference no stage hits gives the
    least offender and ends the testing.  With none, every difference is
    proven orthogonal and the residual is exactly 0.0.  Otherwise it is
    summed over every distinct difference, one MU_HAT_BLOCK of them at a
    time, sqrt(2 sum count |mu_hat_k|^2) (see SpectrumVerification),
    |mu_hat_k| one reduced_amplitude call over every stage at its
    L|b_1...b_n|.
    """
    nums, scale = candidate.nums, candidate.den
    stages = [(pr, scale * base) for pr, base in stage_walk(config, word, k)]
    reach = max((pr.p * abs(pr.t) for pr, _ in stages), default=1)
    bound = (nums[-1] - nums[0] if nums else 0) * reach
    n = len(nums)
    work = n * (n - 1) // 2 * _difference_weight(max([bound] + [abs(den) for _, den in stages]))
    if work > VERIFY_ATOM_BOUND * (VERIFY_ATOM_BOUND - 1) // 2:
        raise AtomCapExceeded(f"{n} points need {work} weighted differences, past the verify "
                              f"atom bound {VERIFY_ATOM_BOUND}")
    arr = np.array([v - nums[0] for v in nums], dtype=int_width(bound))
    table, pos = np.empty(n * (n - 1) // 2, dtype=arr.dtype), 0
    rows = math.isqrt(MU_HAT_BLOCK)  # a block's own pairs, rows**2 of them, are the one temporary
    upper = np.arange(rows)[:, None] < np.arange(rows)  # j > i within a block
    for i in range(0, n, rows):
        head, tail = arr[i:i + rows], arr[i + rows:]
        size = len(head) * len(tail)
        np.subtract(tail, head[:, None], out=table[pos:pos + size].reshape(len(head), len(tail)))
        pos += size
        within = (head - head[:, None])[upper[:len(head), :len(head)]]
        table[pos:pos + len(within)] = within
        pos += len(within)
    table.sort()
    diffs, counts = runs(table)
    offending = None
    if complete:
        walk = [(pr, den) for pr, den in stages if abs(den) <= bound]
        ps, ts, dens = np.array([(pr.p, pr.t, den) for pr, den in walk],
                                dtype=table.dtype).reshape(-1, 3).T[:, :, None]
        step = max(1, MU_HAT_BLOCK // max(len(walk), 1))  # block x walk <= MU_HAT_BLOCK
        for i in range(0, len(diffs), step):
            block = diffs[i:i + step]
            missed = ~mask_zero_hit(ps, ts, block, dens).any(axis=0)
            if missed.any():
                offending = Fraction(int(block[missed.argmax()]), scale)
                break
        else:
            return 0.0, None
    total = 0.0
    ps, ts, mods = ([pr.p for pr, _ in stages], [pr.t for pr, _ in stages],
                    [abs(den) for _, den in stages])
    for i in range(0, len(diffs), MU_HAT_BLOCK):
        block = diffs[i:i + MU_HAT_BLOCK]
        amp = reduced_amplitude(ps, ts, block, mods, int(block[-1]))
        total += float(np.sum(counts[i:i + MU_HAT_BLOCK] * (amp * amp)))
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
    denominator, is proven orthogonal stage by stage (tower_translate), by
    p - 1 differences per stage and with no list of differences.  Every
    other candidate, and a tower with an incompatible stage, goes through
    every difference in one function (_pairwise_residual): past
    VERIFY_ATOM_BOUND (VERIFY_ATOM_BOUND - 1)/2 differences of its points,
    weighted by their width, it raises AtomCapExceeded before allocating
    anything, and otherwise, when complete, it tests the stage walk for the
    least positive offender.

    Wherever orthogonality is proven, a tower translate or a complete
    candidate with no offender, every term of the unitarity residual is 0
    and it is exactly 0.0; everywhere else it is the float sum over the
    distinct differences.
    """
    complete = len(candidate.nums) == len(measure.nums)
    if tower_translate(candidate, config, word, k):
        resid, offending = 0.0, None
    else:
        resid, offending = _pairwise_residual(candidate, config, word, k, complete)
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
