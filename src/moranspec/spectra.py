"""Tower spectra for truncated convolutions and their exact verification.

Depth-k truncations of admissible stage sequences carry finite spectra

    Lambda_k = L_1 + b_1 L_2 + ... + (b_1...b_{k-1}) L_k

assembled from the per-stage canonical partner sets.  Orthogonality is
checked exactly (every nonzero difference must hit a stage mask zero set),
completeness by counting, and the Jorgensen-Pedersen function

    Q(x) = sum_lambda |mu_hat(x + lambda)|^2

is evaluated numerically; for a finite orthonormal basis it is identically 1.

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
                      SymbolicWord, SystemConfig, canonical_ratios, mask_zero_hit, mu_hat_many,
                      stage_walk)


class TowerDegenerateError(RuntimeError):
    """Raised when tower construction produces duplicate spectrum points."""


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


def build_tower_spectrum(config: SystemConfig, word: SymbolicWord, k: int) -> SpectrumCandidate:
    """Finite spectrum of the depth-k truncation from per-stage canonical partners.

    Every letter used in positions 1..k must be admissible.  Duplicate points
    would mean a degenerate tower and abort loudly; they are never deduped.
    Raises AtomCapExceeded, before any point is built, when the point count
    would pass DEFAULT_ATOM_CAP.
    """
    if k < 0:
        raise ValueError("depth k must be >= 0")
    stages = []
    expected = 1
    for n, (pr, base) in enumerate(stage_walk(config, word, k), start=1):
        if not is_admissible(pr.b, pr.p, pr.t):
            raise ValueError(
                f"stage {n} = (b={pr.b}, p={pr.p}, t={pr.t}) is not admissible")
        expected *= pr.p
        if expected > DEFAULT_ATOM_CAP:
            raise AtomCapExceeded(
                f"tower to depth {k} needs {expected}+ points; cap is {DEFAULT_ATOM_CAP}")
        stages.append((canonical_dual_digits(pr.b, pr.p, pr.t), base // pr.b))
    pts = [0]
    for partner, lead in stages:  # lead = b_1...b_{n-1}
        pts = [x + lead * l for x in pts for l in partner]
    distinct = len(set(pts))
    if distinct != expected:
        raise TowerDegenerateError(
            f"tower produced {distinct} distinct points, expected {expected}")
    return SpectrumCandidate(nums=tuple(sorted(pts)))


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


# Verification holds all N(N-1)/2 differences in one sorted array (8.4 million
# integers at N = 4096); a larger bound needs its own memory measurement.
VERIFY_ATOM_BOUND = 4096

# int64 arithmetic in verification stays below this magnitude; past it the
# differences and the mask-zero test use Python integers (object arrays)
INT64_SPAN = 2**62


def weighted_matrix_residual(measure: DiscreteMeasure, points: Sequence[Fraction]) -> float:
    """Frobenius norm of M*M - I for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)]."""
    xs = np.array([float(x) for x in measure.points])
    ws = np.sqrt(np.array([float(w) for w in measure.weights]))
    ls = np.array([float(l) for l in points])
    m = ws[:, None] * np.exp(2j * np.pi * np.outer(xs, ls))
    r = m.conj().T @ m - np.eye(len(points))
    return float(np.linalg.norm(r))


def float_quotients(nums, den: int) -> np.ndarray:
    """Each nums[i]/den correctly rounded to a float, for sorted integers nums and den > 0.

    nums is a sorted sequence or integer array.  One float division while
    every operand is below 2**53, where floats hold it exactly; otherwise
    Python's int / int, which rounds any quotient a float can hold.
    """
    if len(nums) == 0 or max(-nums[0], nums[-1], den) < 2**53:
        return np.asarray(nums, dtype=float) / den
    exact = nums.tolist() if isinstance(nums, np.ndarray) else nums
    return np.array([n / den for n in exact], dtype=float)


def verify_spectrum_finite(measure: DiscreteMeasure, candidate: SpectrumCandidate,
                           config: SystemConfig, word: SymbolicWord,
                           k: int) -> SpectrumVerification:
    """Exact check that a finite candidate is a spectrum of the depth-k truncation.

    Orthogonality: every nonzero difference must land in some stage zero set
    (a factor of the truncated transform vanishes).  Completeness: the
    candidate size must equal the atom count.  With the candidate's points
    as integers over its denominator L, the distinct differences D are
    walked in increasing order, one MU_HAT_BLOCK at a time.  Each block adds
    its share of the numeric residual, mu_hat_many at D/L weighted by how
    often each difference occurs (see SpectrumVerification), and is then
    tested as D/(L*b_1...b_n) by mask_zero_hit per stage; the first block
    holding a difference no stage hits gives the least offender and ends
    the testing, not the residual.  Every |D*p*t| is at most the span
    times max p|t|, so stages with a larger |L*b_1...b_n| are skipped, and
    the integer width is decided once: int64 while that bound is below
    INT64_SPAN, Python integers otherwise.  Past VERIFY_ATOM_BOUND points
    or atoms, raises AtomCapExceeded before allocating anything.
    """
    nums, scale = candidate.nums, candidate.den
    size = max(len(nums), len(measure.nums))
    if size > VERIFY_ATOM_BOUND:
        raise AtomCapExceeded(f"{size} atoms exceed the verify atom bound {VERIFY_ATOM_BOUND}")
    stages = [(pr, scale * base) for pr, base in stage_walk(config, word, k)]
    reach = max((pr.p * abs(pr.t) for pr, _ in stages), default=1)
    bound = (nums[-1] - nums[0] if nums else 0) * reach
    walk = [(pr, den) for pr, den in stages if abs(den) <= bound]
    # sorted points give positive row differences: all N(N-1)/2 of them in one
    # array, sorted in place; a value starts wherever it differs from its predecessor
    arr = np.array([v - nums[0] for v in nums], dtype=np.int64 if bound < INT64_SPAN else object)
    n = len(arr)
    size, pos = n * (n - 1) // 2, 0
    table = np.empty(size, dtype=arr.dtype)
    for i in range(n - 1):
        np.subtract(arr[i + 1:], arr[i], out=table[pos:pos + n - 1 - i])
        pos += n - 1 - i
    table.sort()
    first = np.ones(size, dtype=bool)
    np.not_equal(table[1:], table[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    diffs, counts = table[starts], np.diff(starts, append=size)
    xs = float_quotients(diffs, scale)
    complete = len(nums) == len(measure.nums)
    total, offending = 0.0, None
    for i in range(0, len(diffs), MU_HAT_BLOCK):
        vals = mu_hat_many(config, word, xs[i:i + MU_HAT_BLOCK], k)
        total += float(np.sum(counts[i:i + MU_HAT_BLOCK] * np.abs(vals) ** 2))
        if complete and offending is None:
            block = diffs[i:i + MU_HAT_BLOCK]
            missed = np.ones(len(block), dtype=bool)
            for pr, den in walk:
                missed &= ~mask_zero_hit(pr.p, pr.t, block, den)
            if missed.any():
                offending = Fraction(int(block[missed.argmax()]), scale)
    resid = math.sqrt(2 * total)
    if not complete:
        return SpectrumVerification(False, "cardinality", None, resid)
    if offending is not None:
        return SpectrumVerification(False, "orthogonality", offending, resid)
    return SpectrumVerification(True, None, None, resid)


def q_function(config: SystemConfig, word: SymbolicWord, depth: int,
               candidate: SpectrumCandidate, x: float | np.ndarray) -> float | np.ndarray:
    """Jorgensen-Pedersen sum over the candidate at the depth-truncation.

    x is a scalar or an array of points; Q is returned with x's shape.
    At most 1 plus the truncation tail tolerance when the candidate is an
    orthonormal family for the measure, identically 1 when it is a spectrum
    of it; non-orthogonal candidates can exceed 1.
    """
    lams = float_quotients(candidate.nums, candidate.den)
    vals = mu_hat_many(config, word, np.add.outer(x, lams), depth)
    q = np.sum(np.abs(vals) ** 2, axis=-1)
    return float(q) if np.ndim(q) == 0 else q


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
