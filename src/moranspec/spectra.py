"""Tower spectra for truncated convolutions and their exact verification.

Depth-k truncations of admissible stage sequences carry finite spectra

    Lambda_k = L_1 + b_1 L_2 + ... + (b_1...b_{k-1}) L_k

assembled from the per-stage canonical partner sets.  Orthogonality is
checked exactly (every nonzero difference must hit a stage mask zero set),
completeness by counting, and the Jorgensen-Pedersen function

    Q(x) = sum_lambda |mu_hat(x + lambda)|^2

is evaluated numerically; for a finite orthonormal basis it is identically 1.
q_function sums it point by point over any candidate.  tower_q sums it
over the canonical tower's digit tree: stage n's factor depends only on a
point's first n digits, since every later digit moves its argument by an
integer, so each factor is evaluated once per digit prefix, at an argument
of order p|t| rather than of the tower's span.

The residue decomposition splits Lambda/b_1 into classes n/q + Z and
reassembles tail spectra from one partner-slot choice per residue block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .exactmath import over_common_denominator
from .hadamard import canonical_dual_digits, is_admissible
from .measure import (DEFAULT_ATOM_CAP, MU_HAT_BLOCK, AtomCapExceeded, DiscreteMeasure,
                      StagePair, SymbolicWord, SystemConfig, canonical_ratios,
                      dirichlet_amplitude, float_quotients, int_width, mask_zero_hit,
                      mu_hat_amplitude, runs, stage_ratios, stage_walk, sumset, sumset_span)


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

    step is b_1...b_{n-1} times the step of the stage's canonical partner, so
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
        stages.append((pr, base // pr.b * canonical_dual_digits(pr.b, pr.p, pr.t)[1], base))
    return stages


def build_tower_spectrum(config: SystemConfig, word: SymbolicWord, k: int) -> SpectrumCandidate:
    """Finite spectrum of the depth-k truncation from per-stage canonical partners.

    Every letter used in positions 1..k must be admissible.  Raises
    AtomCapExceeded, before any point is built, when the point count would
    pass DEFAULT_ATOM_CAP.  No point repeats: digit choices that first differ
    at stage n differ by step*j plus a multiple of b_1...b_n, 0 < |j| < p, and
    |b| = s*p*gcd(b, t), s the canonical partner step, does not divide s*j.
    """
    if k < 0:
        raise ValueError("depth k must be >= 0")
    stages = tower_stages(config, word, k, DEFAULT_ATOM_CAP)
    pts = sumset([(pr.p, step) for pr, step, _ in stages])
    return SpectrumCandidate(nums=tuple(pts.tolist()))


@dataclass(frozen=True)
class SpectrumVerification:
    """Exact verdict plus a numeric unitarity residual.

    offending is the least positive difference that hits no stage zero set.
    unitarity_residual is computed from config, word and k over the
    candidate's distinct differences d: sqrt(2 sum_d count(d) |mu_hat_k(d)|^2),
    where mu_hat_k is the depth-k transform of config/word.  For the depth-k
    truncation in exact arithmetic it equals the Frobenius norm of M*M - I
    for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)] (see weighted_matrix_residual).
    """

    ok: bool
    reason: Optional[str]
    offending: Optional[Fraction]
    unitarity_residual: float


# Past this many points or atoms verification refuses before allocating.  A
# tower is checked stage by stage from prod (2p - 1) difference sums (531,441
# at N = 4096), but any other candidate through all N(N-1)/2 differences in
# one sorted array (8.4 million integers at N = 4096), and the residual of
# either needs every distinct difference; a larger bound needs its own
# memory measurement of both.
VERIFY_ATOM_BOUND = 4096


def weighted_matrix_residual(measure: DiscreteMeasure, points: Sequence[Fraction]) -> float:
    """Frobenius norm of M*M - I for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)]."""
    xs = np.array([float(x) for x in measure.points])
    ws = np.sqrt(np.array([float(w) for w in measure.weights]))
    ls = np.array([float(l) for l in points])
    m = ws[:, None] * np.exp(2j * np.pi * np.outer(xs, ls))
    r = m.conj().T @ m - np.eye(len(points))
    return float(np.linalg.norm(r))


def _offsets(nums: Sequence[int], pairs: Sequence[StagePair]) -> tuple[int, np.ndarray]:
    """A bound on every |D*p*t|, D a difference of nums and (p, t) from pairs, and nums - nums[0].

    The bound is the span of nums times the largest p|t|; it decides the
    integer width once, by int_width.
    """
    reach = max((pr.p * abs(pr.t) for pr in pairs), default=1)
    bound = (nums[-1] - nums[0] if nums else 0) * reach
    return bound, np.array([v - nums[0] for v in nums], dtype=int_width(bound))


def _tower_differences(candidate: SpectrumCandidate, config: SystemConfig, word: SymbolicWord,
                       k: int) -> Optional[tuple[np.ndarray, np.ndarray, None]]:
    """Distinct positive differences and pair counts of a compatible depth-k tower translate.

    None unless the candidate is an integer translate of the depth-k tower
    (the sumset of tower_stages' progressions) and mask_zero_hit finds every
    stage's differences step*j, j = 1..p-1, over b_1...b_n in the stage's
    zero set.  Then every difference of the candidate is orthogonal: one
    whose digits first differ at stage n is step*j plus a multiple of
    b_1...b_n, which leaves stage n's zero test unchanged, so no walk is left
    to test (the third entry is None).  The ordered differences are the sums
    over the stages of step*j, each counted prod (p - |j|) times for
    |j| < p, so sorting and merging those sums gives the distinct
    differences with their pair counts, as the difference table does,
    without the N(N-1)/2 table.
    """
    nums = candidate.nums
    if candidate.den != 1 or not nums:
        return None
    try:
        stages = tower_stages(config, word, k, len(nums))
    except ValueError:  # a stage with no partner, or more tower points than the candidate's
        return None
    if sum((pr.p - 1) * abs(step) for pr, step, _ in stages) != nums[-1] - nums[0]:
        return None  # an equal span also keeps every sum below within the _offsets width
    _, arr = _offsets(nums, [pr for pr, _, _ in stages])
    pts = sumset([(pr.p, step) for pr, step, _ in stages])
    if not np.array_equal(pts - pts[0], arr):
        return None
    # every stage's differences step*j, j = 1..p-1, over b_1...b_n, in one call
    p, t, steps, dens = np.array([(pr.p, pr.t, step * j, base)
                                  for pr, step, base in stages for j in range(1, pr.p)],
                                 dtype=arr.dtype).reshape(-1, 4).T
    if not mask_zero_hit(p, t, steps, dens).all():
        return None
    # the multiset of j*step is symmetric, so |step| serves; with each new
    # stage outermost, stages whose sums do not overlap leave the array sorted,
    # and the stable sort (a merge of sorted runs) then takes one pass
    diffs, counts = np.zeros(1, dtype=arr.dtype), np.ones(1, dtype=np.int64)
    for pr, step, _ in stages:
        j = np.arange(1 - pr.p, pr.p)
        diffs = np.add.outer(j.astype(arr.dtype) * abs(step), diffs).ravel()
        counts = np.multiply.outer(pr.p - np.abs(j), counts).ravel()
    keep = diffs > 0
    diffs, counts = diffs[keep], counts[keep]
    order = np.argsort(diffs, kind="stable")
    return (*runs(diffs[order], counts[order]), None)


def _difference_scan(config: SystemConfig, word: SymbolicWord, k: int, diffs: np.ndarray,
                     counts: np.ndarray, scale: int,
                     walk: Optional[list]) -> tuple[float, Optional[Fraction]]:
    """The unitarity residual over increasing distinct differences, and the least offender.

    diffs/scale occur counts times each.  One MU_HAT_BLOCK at a time, a block
    adds its share of sqrt(2 sum count |mu_hat_k|^2) (see
    SpectrumVerification) and is then tested by mask_zero_hit against each
    (pair, scale*b_1...b_n) of walk; the first block holding a difference no
    stage hits gives the least offender and ends the testing, not the
    residual.  walk None tests nothing.
    """
    xs = float_quotients(diffs, scale)
    total, offending = 0.0, None
    for i in range(0, len(diffs), MU_HAT_BLOCK):
        amp, _ = mu_hat_amplitude(config, word, xs[i:i + MU_HAT_BLOCK], k)
        total += float(np.sum(counts[i:i + MU_HAT_BLOCK] * (amp * amp)))
        if walk is not None and offending is None:
            block = diffs[i:i + MU_HAT_BLOCK]
            missed = np.ones(len(block), dtype=bool)
            for pr, den in walk:
                missed &= ~mask_zero_hit(pr.p, pr.t, block, den)
            if missed.any():
                offending = Fraction(int(block[missed.argmax()]), scale)
    return math.sqrt(2 * total), offending


def _pairwise_differences(candidate: SpectrumCandidate, config: SystemConfig,
                          word: SymbolicWord, k: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Distinct positive differences, pair counts and the stage walk to test, for any candidate.

    With the points as integers over L = candidate.den, the walk is
    (pair, L*b_1...b_n) per stage, less the stages past the _offsets bound,
    which can hit no difference.  The N(N-1)/2 positive differences of the
    sorted points are written row by row into one array of the _offsets
    width, sorted in place and merged into runs.
    """
    nums, scale = candidate.nums, candidate.den
    stages = [(pr, scale * base) for pr, base in stage_walk(config, word, k)]
    bound, arr = _offsets(nums, [pr for pr, _ in stages])
    n = len(arr)
    size, pos = n * (n - 1) // 2, 0
    table = np.empty(size, dtype=arr.dtype)
    for i in range(n - 1):
        np.subtract(arr[i + 1:], arr[i], out=table[pos:pos + n - 1 - i])
        pos += n - 1 - i
    table.sort()
    return (*runs(table), [(pr, den) for pr, den in stages if abs(den) <= bound])


def verify_spectrum_finite(measure: DiscreteMeasure, candidate: SpectrumCandidate,
                           config: SystemConfig, word: SymbolicWord,
                           k: int) -> SpectrumVerification:
    """Exact check that a finite candidate is a spectrum of the depth-k truncation.

    Orthogonality: every nonzero difference must land in some stage zero set
    (a factor of the truncated transform vanishes); D/L, D an integer over
    the candidate's denominator L, lands in stage n's when mask_zero_hit
    holds for D over L*b_1...b_n.  Completeness: the candidate size must
    equal the atom count.  An integer translate of the depth-k tower is
    checked stage by stage (_tower_differences): p - 1 differences per
    stage prove orthogonality, and the distinct differences with their pair
    counts come from the stages, not from the points.  Every other
    candidate, and a tower with an incompatible stage, goes through every
    difference (_pairwise_differences), whose stage walk the scan tests for
    the least positive offender.  Either way one loop (_difference_scan)
    sums the numeric residual over the same distinct differences in the
    same blocks, so both paths give the same bits.  Past VERIFY_ATOM_BOUND
    points or atoms, raises AtomCapExceeded before allocating anything.
    """
    size = max(len(candidate.nums), len(measure.nums))
    if size > VERIFY_ATOM_BOUND:
        raise AtomCapExceeded(f"{size} atoms exceed the verify atom bound {VERIFY_ATOM_BOUND}")
    diffs, counts, walk = (_tower_differences(candidate, config, word, k)
                           or _pairwise_differences(candidate, config, word, k))
    complete = len(candidate.nums) == len(measure.nums)
    resid, offending = _difference_scan(config, word, k, diffs, counts, candidate.den,
                                        walk if complete else None)
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


def tower_q(config: SystemConfig, word: SymbolicWord, stages: Sequence[tuple[StagePair, int, int]],
            xs: np.ndarray) -> np.ndarray:
    """Q of the tower at each x of xs, over its digit tree; stages is tower_stages' list.

    Stage n's squared factor D_{p_n}(t_n (x + lambda) / B_n)**2 depends only
    on lambda's first n digits: a later digit step B_{j-1} s_j, j > n, times
    t_n / B_n is an integer, which leaves D_p**2 unchanged.  So the prefixes
    x + sum_{j<=n} d_j step_j, d_j < p_j, are extended stage by stage, each
    prefix's running weight is multiplied by D_{p_n}(prefix t_n / B_n)**2,
    and Q(x) is the sum of x's leaves, taken back up the tree (the p_n
    children of each prefix into it, deepest stage first): sum_n
    prod_{j<=n} p_j factors per x, not depth prod p_j.

    Refuses as building the points and q_function over them would, in that
    order, without building a point: the sumset bit bound (sumset_span), a
    tower point past the float range (float_quotients of the least and the
    largest point) and stage_ratios' refusals with reach max|x + lambda|,
    the larger of |min x + min lambda| and |max x + max lambda|.

    Rounding: with u = 2**-53 and, at stage n,
    c_n = |t_n / B_n| (|x| + sum_{j<=n} (p_j - 1)|step_j|), which bounds
    every argument, and e_n dirichlet_amplitude's bound at |v| = c_n,
    |Q(x) - 1| <= sum_n p_n (2 e_n + pi p_n (n + 4) c_n u + 3 u) to first
    order in u.  The p_n children of a prefix carry weights summing to the
    prefix's own, since D_p**2 sums to 1 over v + j/p, so each stage's
    rounding, its sum included, adds to the total at most p_n times its
    per-factor error.
    """
    xs = np.asarray(xs, dtype=float)
    steps = [(pr.p, step) for pr, step, _ in stages]
    sumset_span(steps)
    low, high = float_quotients([sum((p - 1) * step for p, step in steps if step < 0),
                                 sum((p - 1) * step for p, step in steps if step > 0)], 1)
    reach = max(abs(np.min(xs) + low), abs(np.max(xs) + high))
    prefix, weight = xs, np.ones(len(xs))
    # a stage past stage_ratios' stop has a point past the float range, refused above
    for (pr, step, _), (_, ratio, _) in zip(stages, stage_ratios(config, word, len(stages),
                                                                 float(reach))):
        # the new digit is the leading axis and x the last, so every numpy
        # inner loop runs over all the earlier prefixes of the block at once
        digits = np.array([j * step for j in range(pr.p)], dtype=float)
        prefix = np.add.outer(digits, prefix)
        amp = dirichlet_amplitude(pr.p, prefix * ratio)
        amp *= amp
        amp *= weight
        weight = amp
    for _ in stages:  # the p_n children of each prefix into it, deepest stage first
        weight = weight.sum(axis=0)
    return weight


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
