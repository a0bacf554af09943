"""Stage alphabets, symbolic words, and exact truncated convolutions.

A stage (b, p, t) contributes the digit set D = {0, t, 2t, ..., (p-1)t}
divided by the running base product b_1 b_2 ... b_k.  Truncating the
infinite convolution after k stages gives a discrete probability measure
with exact rational atoms.  The Fourier transform factors through the
per-stage mask

    m(x) = (1/p) * sum_{j<p} exp(2*pi*i*j*t*x) = exp(pi*i*(p-1)*t*x) * D_p(t*x),

with the real Dirichlet amplitude D_p(v) = sin(pi*p*v) / (p*sin(pi*v)).
Its zero set is (Z \\ pZ) / (p*t); that closed form powers all exact
zero-set membership tests, and D_p is how the transform is evaluated in
floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .exactmath import RationalLike, divisors, over_common_denominator

DEFAULT_ATOM_CAP = 10**6

# mu_hat arguments per mu_hat_many call where callers evaluate in blocks;
# bounds the size of its temporaries at any depth
MU_HAT_BLOCK = 4096

# largest p whose stage amplitude runs the recurrence, cheaper at small p but with
# error growing as p**2; both forms cost the same here on 4,096 arguments (two-core Xeon)
RECURRENCE_MAX_P = 32

# largest finite float: a stage ratio or a point past it has no float value
FLOAT_BOUND = float(np.finfo(float).max)

# integer arrays stay int64 while every sum, difference or mask-zero product
# is below this magnitude; past it they hold Python integers (object arrays)
INT64_SPAN = 2**62

# most bits a sumset's values may hold together, the value count times the
# bit length of the span; int64 values at DEFAULT_ATOM_CAP hold as many, and
# 4,096 values of 4,200 digits, just under it, build and print in about 1.3 s
SUMSET_BIT_BOUND = 64 * DEFAULT_ATOM_CAP


class AtomCapExceeded(ValueError):
    """Raised when a truncation, tower, sumset or verification would pass its cap or bound."""


@dataclass(frozen=True)
class StagePair:
    """One alphabet letter: base b, digit count p, stride t (digits {0,t,...,(p-1)t})."""

    b: int
    p: int
    t: int

    def __post_init__(self) -> None:
        if abs(self.b) < 2:
            raise ValueError(f"|b| must be >= 2, got b={self.b}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got p={self.p}")
        if self.t == 0:
            raise ValueError("t must be nonzero")

    def digits(self) -> tuple[int, ...]:
        return tuple(j * self.t for j in range(self.p))


@dataclass(frozen=True)
class SystemConfig:
    """An ordered finite alphabet of stage pairs, indexed 1..m.

    Only the structural bounds (|b| >= 2, p >= 2, t != 0) are enforced here;
    the coprimality hypothesis of the classification theorems is reported as
    data by ``facts``, because several exact measure rewrites are computed on
    alphabets that violate it.
    """

    pairs: tuple[StagePair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        if len(pairs) < 1:
            raise ValueError("alphabet must contain at least one stage pair")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def of(cls, *triples: tuple[int, int, int]) -> "SystemConfig":
        return cls(tuple(StagePair(*tr) for tr in triples))

    @property
    def m(self) -> int:
        return len(self.pairs)

    def pair(self, letter: int) -> StagePair:
        if not 1 <= letter <= self.m:
            raise ValueError(f"letter {letter} outside alphabet 1..{self.m}")
        return self.pairs[letter - 1]

    @functools.cached_property
    def facts(self) -> "AlphabetFacts":
        """The per-letter facts the classification reads, computed once per alphabet.

        The hypothesis reading: for each k, gcd(p_k, t_j) = 1 for every j,
        and the strides are pairwise coprime; digit counts need not be
        mutually coprime.  Both hold exactly when gcd(prod p, prod |t|) = 1
        and lcm(|t|, ...) = prod |t|, so the offending pairs are listed only
        when that test fails.
        """
        strides = [abs(pr.t) for pr in self.pairs]
        stride_product = math.prod(strides)
        violations: list[str] = []
        if (math.gcd(math.prod([pr.p for pr in self.pairs]), stride_product) != 1
                or math.lcm(*strides) != stride_product):
            for k, pk in enumerate(self.pairs, start=1):
                for j, pj in enumerate(self.pairs, start=1):
                    if math.gcd(pk.p, abs(pj.t)) != 1:
                        violations.append(f"gcd(p_{k}={pk.p}, t_{j}={pj.t}) != 1")
            for i, pi in enumerate(self.pairs, start=1):
                for j, pj in enumerate(self.pairs[i:], start=i + 1):
                    if math.gcd(abs(pi.t), abs(pj.t)) != 1:
                        violations.append(f"gcd(t_{i}={pi.t}, t_{j}={pj.t}) != 1")
        letters = list(enumerate(self.pairs, start=1))
        return AlphabetFacts(
            tuple(violations),
            frozenset(l for l, pr in letters if abs(pr.b) % pr.p),
            frozenset(l for l, pr in letters if abs(pr.b) == pr.p and abs(pr.t) != 1))


@dataclass(frozen=True)
class AlphabetFacts:
    """What the classification asks of an alphabet, per letter.

    violations: every failure of the coprime-alphabet hypothesis, as report
    strings (empty for a coprime alphabet); nondividing: the letters with
    p not dividing b; pi_tails: the letters with |b| = p and |t| != 1, whose
    constant tail entered from another letter is the Pi_l exception.
    """

    violations: tuple[str, ...]
    nondividing: frozenset[int]
    pi_tails: frozenset[int]


@dataclass(frozen=True)
class SymbolicWord:
    """Eventually periodic word preperiod . period^infinity over letters 1..m.

    Canonical form: the period is primitive (not a power of a shorter word)
    and the preperiod cannot be shortened by absorbing its last letter into
    a rotation of the period.  Two words describing the same infinite
    sequence therefore compare equal.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        pre = tuple(int(x) for x in self.preperiod)
        per = tuple(int(x) for x in self.period)
        if len(per) == 0:
            raise ValueError("period must be nonempty")
        if any(x < 1 for x in pre + per):
            raise ValueError("letters are 1-based positive integers")
        for s in divisors(len(per)):
            if per == per[:s] * (len(per) // s):
                per = per[:s]
                break
        pre_l, per_l = list(pre), list(per)
        while pre_l and pre_l[-1] == per_l[-1]:
            pre_l.pop()
            per_l = [per_l[-1]] + per_l[:-1]
        object.__setattr__(self, "preperiod", tuple(pre_l))
        object.__setattr__(self, "period", tuple(per_l))

    @classmethod
    def constant(cls, letter: int) -> "SymbolicWord":
        return cls((), (letter,))

    def letter(self, n: int) -> int:
        """Letter at 1-based position n."""
        if n < 1:
            raise ValueError("positions are 1-based")
        r = len(self.preperiod)
        if n <= r:
            return self.preperiod[n - 1]
        return self.period[(n - r - 1) % len(self.period)]

    def shift(self, n: int = 1) -> "SymbolicWord":
        """Drop the first n letters."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        pre, per = list(self.preperiod), list(self.period)
        for _ in range(n):
            if pre:
                pre.pop(0)
            else:
                per = per[1:] + per[:1]
        return SymbolicWord(tuple(pre), tuple(per))

    def letters(self) -> frozenset[int]:
        return frozenset(self.preperiod) | frozenset(self.period)

    @functools.cached_property
    def facts(self) -> "WordFacts":
        """The letter facts the classification reads, computed once per word.

        The letters at positions 2, 3, ... are the preperiod after its first
        letter, then the period; with an empty preperiod they are the period
        rotated by one.  Each such letter keeps its first position there.
        The tail and the letters at positions >= 2 are subsets of the letter
        set, so either one with as many letters is that set and shares its
        object: a constant word keeps one set, not three.
        """
        pre, per = self.preperiod, self.period
        first_position: dict[int, int] = {}
        for n, letter in enumerate(pre[1:] + per if pre else per[1:] + per[:1], start=2):
            first_position.setdefault(letter, n)
        letters = self.letters()
        tail, later = (letters if len(part) == len(letters) else part
                       for part in (frozenset(per), frozenset(first_position)))
        return WordFacts(max(letters), self.letter(1), letters, tail, later,
                         first_position,
                         (len(pre), per[0], pre[-1]) if pre and len(per) == 1 else None)

    def __str__(self) -> str:
        return ",".join(map(str, self.preperiod)) + ";" + ",".join(map(str, self.period))


@dataclass(frozen=True, slots=True)
class WordFacts:
    """What the classification asks of a word, with no alphabet data.

    top: the largest letter; head: the letter at position 1; letters: every
    letter; tail: the letters occurring infinitely often (the period's);
    later: the letters at positions >= 2, as a set, so a disjointness test
    with another set probes each letter once; first_position: each of them
    with its first position >= 2; tail_entry: (l, j, last_other) for a word
    i_1...i_l j^infinity with l >= 1 (last_other = i_l != j by the
    canonical form), else None.  A word uses one letter exactly when it is
    constant, since a canonical preperiod never ends with the period's last
    letter.
    """

    top: int
    head: int
    letters: frozenset[int]
    tail: frozenset[int]
    later: frozenset[int]
    first_position: dict[int, int] = field(hash=False)
    tail_entry: Optional[tuple[int, int, int]]


def canonical_ratios(nums, den, what: str) -> tuple[tuple[int, ...], int]:
    """Canonical form of the sorted rationals nums[i]/den: (nums, den) reduced by their gcd.

    Checks in O(N) integer work that den > 0 and that nums are strictly
    increasing integers, so equal sets of rationals give equal pairs;
    errors name the `what` points.
    """
    nums, den = tuple(map(operator.index, nums)), operator.index(den)
    if den <= 0:
        raise ValueError(f"the {what} denominator must be positive")
    if not all(map(operator.lt, nums, nums[1:])):
        raise ValueError(f"{what} points must be pairwise distinct and sorted")
    g = math.gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple(x // g for x in nums), den // g)


def float_quotients(nums, den: int) -> np.ndarray:
    """Each nums[i]/den correctly rounded to a float, for sorted integers nums and den > 0.

    nums is a sorted sequence or integer array.  One float division while
    every operand is below 2**53, where floats hold it exactly; otherwise
    Python's int / int, which rounds any quotient a float can hold.  A
    quotient past FLOAT_BOUND raises ValueError naming the bound.
    """
    if len(nums) == 0 or max(-nums[0], nums[-1], den) < 2**53:
        return np.asarray(nums, dtype=float) / den
    exact = nums.tolist() if isinstance(nums, np.ndarray) else nums
    try:
        return np.array([n / den for n in exact], dtype=float)
    except OverflowError:
        raise ValueError(f"a point is past the float range; bound is {FLOAT_BOUND!r}") from None


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite rational-atom probability measure: atom nums[i]/den has weight counts[i]/total.

    Stored in canonical form: den > 0, nums strictly increasing, counts
    positive and summing to total, and each of (nums, den) and
    (counts, total) reduced by its gcd, so two measures are equal as
    rational maps exactly when their fields are equal.  Construction checks
    this in O(N) integer work; ``from_dict`` and ``point_mass`` take
    rationals.  ``atoms``, ``points`` and ``weights`` are Fraction views
    built on first use.
    """

    nums: tuple[int, ...]
    den: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        nums, den = canonical_ratios(self.nums, self.den, "atom")
        counts = tuple(map(operator.index, self.counts))
        total = operator.index(self.total)
        if len(nums) == 0:
            raise ValueError("measure needs at least one atom")
        if len(counts) != len(nums):
            raise ValueError(f"{len(counts)} weights for {len(nums)} atoms")
        if min(counts) <= 0:
            raise ValueError("weights must be positive")
        if sum(counts) != total:
            raise ValueError("weights must sum to exactly 1")
        g = math.gcd(total, *counts)
        if g > 1:
            counts, total = tuple(c // g for c in counts), total // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        """Measure from a map point -> weight of rationals."""
        items = sorted((Fraction(x), Fraction(w)) for x, w in d.items())
        nums, den = over_common_denominator(x for x, _ in items)
        counts, total = over_common_denominator(w for _, w in items)
        return cls(tuple(nums), den, tuple(counts), total)

    @classmethod
    def point_mass(cls, x: RationalLike = 0) -> "DiscreteMeasure":
        return cls.from_dict({x: 1})

    @functools.cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @functools.cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.total) for c in self.counts)

    @functools.cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.points, self.weights))

    def fourier_many(self, xs: np.ndarray) -> np.ndarray:
        pts = float_quotients(self.nums, self.den)
        wts = np.array([c / self.total for c in self.counts])
        xs = np.asarray(xs, dtype=float)
        return np.exp(2j * np.pi * np.outer(xs, pts)) @ wts


def stage_walk(config: SystemConfig, word: SymbolicWord,
               k: Optional[int] = None) -> Iterator[tuple[StagePair, int]]:
    """Yield (pair, b_1...b_n) for n = 1..k, or without end when k is None.

    The only place the running base product is formed.
    """
    base = 1
    for n in count(1) if k is None else range(1, k + 1):
        pr = config.pair(word.letter(n))
        base *= pr.b
        yield pr, base


def int_width(bound: int) -> type:
    """The integer array width for magnitudes up to bound: int64 below INT64_SPAN, else object."""
    return np.int64 if bound < INT64_SPAN else object


def sumset_span(stages: Sequence[tuple[int, int]]) -> int:
    """The span sum (count - 1)|step| of the sumset of (count, step) stages, within its bound.

    Every |sum| is at most the span.  Raises AtomCapExceeded when prod count
    values of span.bit_length() bits pass SUMSET_BIT_BOUND.
    """
    span = sum((count - 1) * abs(step) for count, step in stages)
    size = math.prod(count for count, _ in stages)
    if size * span.bit_length() > SUMSET_BIT_BOUND:
        raise AtomCapExceeded(f"sumset needs {size} values of {span.bit_length()} bits; "
                              f"bound is {SUMSET_BIT_BOUND} bits")
    return span


def sumset(stages: Sequence[tuple[int, int]]) -> np.ndarray:
    """The sorted sums of one j*step, j < count, per (count, step) stage, with multiplicity.

    The width is int_width of sumset_span, which refuses, before any value
    is built, a sumset past SUMSET_BIT_BOUND.
    """
    dtype = int_width(sumset_span(stages))
    sums = np.zeros(1, dtype=dtype)
    for count, step in stages:
        sums = np.add.outer(sums, np.arange(count, dtype=dtype) * step).ravel()
    sums.sort()
    return sums


def runs(values: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and each run's length, or its weights' sum."""
    edges = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    starts = bounds[:-1]
    counts = bounds[1:] - starts if weights is None else np.add.reduceat(weights, starts)
    return values[starts], counts


def truncate(config: SystemConfig, word: SymbolicWord, k: int,
             cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """Exact convolution of the first k stages; k = 0 is the point mass at 0.

    Coinciding atom positions are merged with summed weights, which is what
    makes exact measure rewrites checkable by equality.  The atoms are the
    distinct values of the sumset of j*t*(b_1...b_k)/(b_1...b_n), j < p, as
    numerators over b_1...b_k, and their path counts are the run lengths.
    """
    if k < 0:
        raise ValueError("depth k must be >= 0")
    walk, paths, final = [], 1, 1
    for pr, final in stage_walk(config, word, k):
        paths *= pr.p
        if paths > cap:
            raise AtomCapExceeded(
                f"truncation to depth {k} needs {paths}+ atoms; cap is {cap}")
        walk.append((pr, final))
    # x/final as a numerator over a positive denominator: negate both when final < 0
    sign = -1 if final < 0 else 1
    nums, counts = runs(sumset([(pr.p, sign * pr.t * (final // base)) for pr, base in walk]))
    return DiscreteMeasure(nums.tolist(), sign * final, counts.tolist(), paths)


def mask_zero_hit(p: int, t: int, num: int | np.ndarray, den: int) -> bool | np.ndarray:
    """Exact membership of num/den in the mask zero set (Z \\ pZ)/(p*t).

    Holds iff den divides num*p*t with a quotient not divisible by p; pure
    integer arithmetic, so a scan can pass x/(b_1...b_n) as x's numerator
    over x's denominator times the base product.  num is a Python int
    (a bool comes back) or an integer array (a boolean array comes back),
    and p, t and den may be arrays of num's shape, one stage per entry;
    int64 arrays must keep |num*p*t| and |den| below 2**62.
    """
    x = num * p * t
    return (x % den == 0) & (x // den % p != 0)


def mask_zero_contains(p: int, t: int, x: RationalLike) -> bool:
    """Exact membership of x in the mask zero set (Z \\ pZ)/(p*t)."""
    x = Fraction(x)
    return mask_zero_hit(p, t, x.numerator, x.denominator)


def first_nonzero(config: SystemConfig, word: SymbolicWord, nums: Iterable[int],
                  den: int) -> Optional[int]:
    """Position in nums of the first num/den that is not a zero of the full transform.

    None when every num/den is a zero (nums must then be finite).  x is a
    zero iff x/(b_1...b_k) hits some stage mask zero set; the scan of one x
    stops once |x/(b_1...b_k)| drops below the smallest nonzero magnitude
    min 1/(p|t|) over the whole alphabet, so 0 is never a zero.  The stages
    are walked once: (p, t, den*b_1...b_k, den*|b_1...b_k|) is kept for
    every stage reached so far and shared by all later numerators, which
    nums may yield lazily.  den must be positive: scaled by den <= 0, the
    reach bound is never passed and the scan would not end.
    """
    if den <= 0:
        raise ValueError(f"den must be positive, got den={den}")
    reach = max(pr.p * abs(pr.t) for pr in config.pairs)
    stages = stage_walk(config, word)
    walk: list[tuple[int, int, int, int]] = []
    for i, num in enumerate(nums):
        size = abs(num) * reach
        n = 0
        while True:
            if n == len(walk):
                pr, base = next(stages)
                walk.append((pr.p, pr.t, den * base, den * abs(base)))
            p, t, scaled, mag = walk[n]
            if size < mag:
                return i
            if mask_zero_hit(p, t, num, scaled):
                break
            n += 1
    return None


def zero_set_contains(config: SystemConfig, word: SymbolicWord,
                      x: RationalLike) -> bool:
    """Exact membership of x in the zero set of the full Fourier transform."""
    x = Fraction(x)
    return first_nonzero(config, word, (x.numerator,), x.denominator) is None


def dirichlet_amplitude(p: int, v: np.ndarray) -> np.ndarray:
    """Real stage amplitude D_p(v) = sin(pi p v) / (p sin(pi v)), 1 at v = 0.

    The stage mask is m(y) = exp(pi i (p-1) t y) * D_p(t y).  Up to
    RECURRENCE_MAX_P digits, the cheaper form there, D_p is U_{p-1}(c)/p with
    c = cos(pi v), by the recurrence U_{j+1} = 2c U_j - U_{j-1}; c carries
    the sign, so v needs no reduction.  Past it, with k = rint(v), u = v - k,
    D_p is (-1)^{k(p-1)} sin(p pi u) / (p sin(pi u)), 1 at u = 0.
    Rounding bound against D_p at the float v, with 2**-53 the unit
    roundoff: (p**2 + pi p |v|) 2**-53 for the recurrence and 2**-50 for the
    quotient, whatever p is (against mpmath, measured up to 0.51 and 0.38
    of these).  At p = 2 the recurrence gives (2c)/2, which is c exactly in
    floats, so c is returned as it is.
    """
    if p == 2:
        return np.cos(np.pi * v)
    if p <= RECURRENCE_MAX_P:
        two_c = 2 * np.cos(np.pi * v)
        prev, cur = 1.0, two_c
        for _ in range(p - 2):
            prev, cur = cur, two_c * cur - prev
        return cur / p
    k = np.rint(v)
    u = v - k
    out = np.divide(np.sin((np.pi * p) * u), p * np.sin(np.pi * u),
                    out=np.ones_like(u), where=u != 0)
    # (-1)^{k(p-1)}: for even p, k is odd where k/2 is not an integer
    return np.negative(out, out=out, where=(p % 2 == 0) & (np.rint(0.5 * k) != 0.5 * k))


def stage_ratios(config: SystemConfig, word: SymbolicWord, depth: int,
                 reach: float) -> Iterator[tuple[StagePair, float, float]]:
    """Yield (pair, t_n/B_n, (p_n - 1) t_n/B_n) per stage n = 1..depth, for arguments |x| <= reach.

    B_n = b_1...b_n.  Each quotient is one correctly rounded int / int
    division, and one past FLOAT_BOUND raises ValueError, as does a stage
    whose pi p_n reach |t_n / B_n| passes it, where a stage argument's sine
    or cosine would leave the float range and give nan.  Past
    |B_n| = 2**1075 max (p - 1)|t| every quotient rounds to 0, a factor
    D_p(0) = 1: the walk stops.
    """
    pi_x = math.pi * reach
    underflow = max((pr.p - 1) * abs(pr.t) for pr in config.pairs) << 1075
    for n, (pr, base) in enumerate(stage_walk(config, word, depth), start=1):
        if abs(base) > underflow:
            return
        try:
            ratio, drift = pr.t / base, (pr.p - 1) * pr.t / base
        except OverflowError:
            raise ValueError(f"stage {n}: t_{n}/(b_1...b_{n}) is past the float range; "
                             f"bound is {FLOAT_BOUND!r}") from None
        if pi_x * abs(ratio) * pr.p > FLOAT_BOUND:
            raise ValueError(f"stage {n}: pi p_{n} max|x| |t_{n}/(b_1...b_{n})| is past the "
                             f"float range; bound is {FLOAT_BOUND!r}")
        yield pr, ratio, drift


def mu_hat_amplitude(config: SystemConfig, word: SymbolicWord, xs: np.ndarray,
                     depth: int) -> tuple[np.ndarray, float]:
    """Real A(x) = prod_{n<=depth} D_{p_n}(t_n x / B_n) and H = sum_n (p_n - 1) t_n / B_n.

    B_n = b_1...b_n; the transform is exp(pi i H x) A(x), so |mu_hat|**2 is
    A**2.  The stages and their refusals are stage_ratios' with reach
    max|x|.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    xs = np.asarray(xs, dtype=float)
    amp, slope = np.ones_like(xs), 0.0
    reach = float(np.max(np.abs(xs), initial=0.0))
    for pr, ratio, drift in stage_ratios(config, word, depth, reach):
        amp *= dirichlet_amplitude(pr.p, xs * ratio)
        slope += drift
    return amp, slope


def mu_hat_many(config: SystemConfig, word: SymbolicWord, xs: np.ndarray,
                depth: int) -> np.ndarray:
    """Vectorized finite product prod_{k<=depth} m_k(x / (b_1...b_k)) as exp(pi i H x) A(x).

    x = 0 gives exactly 1+0j; the rounding bound is mu_hat_eval's.
    """
    amp, slope = mu_hat_amplitude(config, word, xs, depth)
    return amp * np.exp((1j * np.pi * slope) * np.asarray(xs, dtype=float))


def mu_hat_eval(config: SystemConfig, word: SymbolicWord, x: float,
                depth: int) -> tuple[complex, float]:
    """Finite Fourier product at x with a tail-error bound for the omitted factors.

    Each omitted factor satisfies |m(y) - 1| <= pi*(p-1)*|t|*|y| and the base
    products at least double per stage, so the tail is bounded by the
    geometric sum pi * max((p-1)|t|) * |x| / |b_1...b_depth|.  Rounding:
    the amplitude is within sum_n (e_n + 2**-53) of the product of D_{p_n} at
    the float stage arguments (each within 3 ulp of t_n x / B_n), e_n being
    dirichlet_amplitude's bound, and the phase angle pi H x is within
    (depth + 3) 2**-53 pi |x| sum_n (p_n - 1)|t_n| / |B_n| of the exact one.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    val = complex(mu_hat_many(config, word, np.array([x]), depth)[0])
    *_, (_, base) = stage_walk(config, word, depth)
    m_max = max((pr.p - 1) * abs(pr.t) for pr in config.pairs)
    try:
        err = math.pi * m_max * abs(x) / abs(float(base))
    except OverflowError:
        err = 0.0
    return val, err


def _require_positive_signs(config: SystemConfig, word: SymbolicWord) -> None:
    for letter in sorted(word.letters()):
        pr = config.pair(letter)
        if pr.b < 0 or pr.t < 0:
            raise ValueError(
                f"letter {letter} has negative b or t; apply normalize_signs first")


def _eventually_periodic_sum(walk: list[tuple[StagePair, int]], terms: list[Fraction],
                             r: int, block: int) -> Fraction:
    """Closed-form sum of an eventually periodic series.

    terms[n-1] is the n-th term for n <= r + block.  After the r head terms
    the block repeats forever, each repeat scaled by 1/q with
    q = (b_1...b_{r+block}) / (b_1...b_r), so it contributes its sum times
    q / (q - 1).
    """
    q = walk[r + block - 1][1] // (walk[r - 1][1] if r else 1)
    return sum(terms[:r], Fraction(0)) + sum(terms[r:r + block], Fraction(0)) * Fraction(q, q - 1)


def support_hull(config: SystemConfig, word: SymbolicWord) -> tuple[Fraction, Fraction]:
    """Exact convex hull [0, sum_k (p_k - 1) t_k / (b_1...b_k)] of the support.

    Requires positive bases and strides for the letters used; the eventually
    periodic tail is summed in closed form as a geometric series.
    """
    _require_positive_signs(config, word)
    r, s = len(word.preperiod), len(word.period)
    walk = list(stage_walk(config, word, r + s))
    terms = [Fraction((pr.p - 1) * pr.t, base) for pr, base in walk]
    return Fraction(0), _eventually_periodic_sum(walk, terms, r, s)


def normalize_signs(config: SystemConfig, word: SymbolicWord) -> tuple[SystemConfig, Fraction]:
    """Sign-normalized alphabet (|b|, p, |t|) and the exact modulus-preserving shift.

    The shift is gamma = sum_k gamma_k with
    gamma_k = -(b_1...b_k)^{-1} (p_k - 1) t_k when (b_1...b_k) t_k < 0, else 0;
    the normalized system's transform equals exp(2*pi*i*gamma*x) times the
    original, so Fourier moduli agree pointwise.  The tail is summed in
    closed form over one sign-period (two word periods when the period base
    product is negative).
    """
    normalized = SystemConfig(tuple(StagePair(abs(pr.b), pr.p, abs(pr.t))
                                    for pr in config.pairs))
    r, s = len(word.preperiod), len(word.period)
    walk = list(stage_walk(config, word, r + 2 * s))
    period_product = walk[r + s - 1][1] // (walk[r - 1][1] if r else 1)
    terms = [Fraction(-(pr.p - 1) * pr.t, base) if base * pr.t < 0 else Fraction(0)
             for pr, base in walk]
    return normalized, _eventually_periodic_sum(walk, terms, r, s if period_product > 0 else 2 * s)


def scale_digits(config: SystemConfig, q: RationalLike) -> SystemConfig:
    """Multiply every digit set by q != 0; every scaled stride must be an integer.

    Spectra transform covariantly: if L is a spectrum for the original
    truncation then {l / q} is one for the scaled truncation.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("scale factor must be nonzero")
    pairs = []
    for pr in config.pairs:
        t = q * pr.t
        if t.denominator != 1:
            raise ValueError(f"scaled stride {t} is not an integer")
        pairs.append(StagePair(pr.b, pr.p, int(t)))
    return SystemConfig(tuple(pairs))
