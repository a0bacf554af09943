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
from typing import Iterator, Optional, Sequence

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
            len(letters), tuple(violations),
            sum(1 << l for l, pr in letters if abs(pr.b) % pr.p),
            sum(1 << l for l, pr in letters if abs(pr.b) == pr.p and abs(pr.t) != 1))


@dataclass(frozen=True)
class AlphabetFacts:
    """What the classification asks of an alphabet, per letter.

    m: the number of letters, which no word letter may pass; violations:
    every failure of the coprime-alphabet hypothesis, as report strings
    (empty for a coprime alphabet); nondividing: the letters with p not
    dividing b; pi_tails: the letters with |b| = p and |t| != 1, whose
    constant tail entered from another letter is the Pi_l exception.  Both
    letter sets are int bitmasks, bit l standing for letter l.
    verdicts: the classifier's NotSpectral and OutOfScope verdicts over this
    alphabet, each built on first use and then shared (see
    ``classifier.decide_spectrality``), left out of equality, hash and repr.
    """

    m: int
    violations: tuple[str, ...]
    nondividing: int
    pi_tails: int
    verdicts: dict = field(default_factory=dict, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class SymbolicWord:
    """Eventually periodic word preperiod . period^infinity over letters 1..m.

    Canonical form: the period is primitive (not a power of a shorter word)
    and the preperiod cannot be shortened by absorbing its last letter into
    a rotation of the period.  Two words describing the same infinite
    sequence therefore compare equal.  top, the largest letter, is kept
    beside them and left out of equality, hash and repr.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pre = tuple(int(x) for x in self.preperiod)
        per = tuple(int(x) for x in self.period)
        if len(per) == 0:
            raise ValueError("period must be nonempty")
        if min(pre + per) < 1:
            raise ValueError("letters are 1-based positive integers")
        object.__setattr__(self, "top", max(pre + per))
        for s in divisors(len(per)):
            if per == per[:s] * (len(per) // s):
                per = per[:s]
                break
        # the last k preperiod letters absorb, each rotating the period right
        # by one, while pre[-1 - i] == per[-1 - i % len(per)]; one rotation by k
        k = 0
        while k < len(pre) and pre[-1 - k] == per[-1 - k % len(per)]:
            k += 1
        r = k % len(per)
        object.__setattr__(self, "preperiod", pre[:len(pre) - k])
        object.__setattr__(self, "period", per[len(per) - r:] + per[:len(per) - r])

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
        """Drop the first n letters: the preperiod's, then the period rotated once."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return SymbolicWord(pre[n:], per)
        r = (n - len(pre)) % len(per)
        return SymbolicWord((), per[r:] + per[:r])

    def letters(self) -> frozenset[int]:
        return frozenset(self.preperiod) | frozenset(self.period)

    @functools.cached_property
    def facts(self) -> "WordFacts":
        """The letter facts the classification reads, computed once per word.

        The letters at positions 2, 3, ... are the preperiod after its first
        letter, then the period; with an empty preperiod they are the period
        rotated by one.  Each such letter keeps its first position there.
        Every letter but the head occurs at a position >= 2.  The letter
        masks take top + 1 bits, so the decisions check top against their
        alphabet before they read facts.
        """
        pre, per = self.preperiod, self.period
        first_position: dict[int, int] = {}
        for n, letter in enumerate(pre[1:] + per if pre else per[1:] + per[:1], start=2):
            first_position.setdefault(letter, n)
        head = self.letter(1)
        tail, later = (sum(1 << letter for letter in set(part)) for part in (per, first_position))
        return WordFacts(head, later | 1 << head, tail, later, first_position,
                         (len(pre), per[0], pre[-1]) if pre and len(per) == 1 else None)

    def __str__(self) -> str:
        return ",".join(map(str, self.preperiod)) + ";" + ",".join(map(str, self.period))


@dataclass(frozen=True, slots=True)
class WordFacts:
    """What the classification asks of a word, with no alphabet data.

    head: the letter at position 1; letters: every letter; tail: the
    letters occurring infinitely often (the period's); later: the letters
    at positions >= 2; first_position: each of them with its first
    position >= 2; tail_entry: (l, j, last_other) for a word
    i_1...i_l j^infinity with l >= 1 (last_other = i_l != j by the
    canonical form), else None.  A word uses one letter exactly when it is
    constant, since a canonical preperiod never ends with the period's last
    letter.  The three letter sets are int bitmasks, bit l standing for
    letter l, so testing one against an alphabet's letters is one ``&``.
    """

    head: int
    letters: int
    tail: int
    later: int
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

    nums is a sorted sequence of Python integers.  One float division while
    every operand is below 2**53, where floats hold it exactly; otherwise
    Python's int / int, which rounds any quotient a float can hold.  A
    quotient past FLOAT_BOUND raises ValueError naming the bound.
    """
    if len(nums) == 0 or max(-nums[0], nums[-1], den) < 2**53:
        return np.asarray(nums, dtype=float) / den
    try:
        return np.array([n / den for n in nums], dtype=float)
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

    The only place the running base product is formed, and the only place a
    depth is checked: k < 0 raises ValueError when the walk starts.
    """
    if k is not None and k < 0:
        raise ValueError("depth k must be >= 0")
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
    is built, a sumset past SUMSET_BIT_BOUND.  Each progression is one
    arange: its length, (count*step)/step as a correctly rounded int / int,
    is exactly count at either width.
    """
    dtype = int_width(sumset_span(stages))
    sums = np.zeros(1, dtype=dtype)
    for count, step in stages:
        sums = np.add.outer(sums, np.arange(0, count * step, step, dtype=dtype)).ravel()
    sums.sort()
    return sums


def runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and each run's length."""
    edges = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return values[bounds[:-1]], bounds[1:] - bounds[:-1]


def truncate(config: SystemConfig, word: SymbolicWord, k: int,
             cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """Exact convolution of the first k stages; k = 0 is the point mass at 0.

    Coinciding atom positions are merged with summed weights, which is what
    makes exact measure rewrites checkable by equality.  The atoms are the
    distinct values of the sumset of j*t*(b_1...b_k)/(b_1...b_n), j < p, as
    numerators over b_1...b_k, and their path counts are the run lengths.
    """
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


def mask_zero_moduli(p: int, t: int, den: int) -> tuple[int, int]:
    """The moduli (Q, P) with num/den in (Z \\ pZ)/(p*t) iff Q | num and P does not divide num.

    The one exact kernel for a stage-mask zero: num/den = m/(p*t) hits iff
    m = num*p*t/den is an integer not divisible by p.  With
    g = gcd(p*t, |den|), |den|/g and p*t/g are coprime, so m is an integer
    iff Q = |den|/g divides num.  m is then +-(num/Q)*(p*t/g), divisible by
    p iff p/gcd(p*t/g, p) divides num/Q, that is iff P = Q*p/gcd(p*t/g, p)
    divides num.  Pure integer arithmetic, so a scan can pass x/(b_1...b_n)
    as x's numerator over x's denominator times the base product.  Q | P,
    and P = Q means the stage never hits.  den must be nonzero.
    """
    g = math.gcd(p * t, den)
    q = abs(den) // g
    return q, q * abs(p) // math.gcd(p * t // g, p)


def mask_zero_contains(p: int, t: int, x: RationalLike) -> bool:
    """Exact membership of x in the mask zero set (Z \\ pZ)/(p*t)."""
    x = Fraction(x)
    q, big = mask_zero_moduli(p, t, x.denominator)
    return x.numerator % q == 0 and x.numerator % big != 0


def progression_class(start: int, step: int, m: int) -> Optional[tuple[int, int]]:
    """(k0, m') with m | start + k*step iff k = k0 mod m', or None when no k solves it."""
    g = math.gcd(step, m)
    if start % g:
        return None
    m //= g
    return -(start // g) * pow(step // g, -1, m) % m, m


def zero_flags(config: SystemConfig, word: SymbolicWord, start: int, step: int,
               count: int, den: int) -> bytearray:
    """Entry k is 1 iff (start + k*step)/den, k < count, is a zero of the full transform.

    x is a zero iff x/(b_1...b_n) hits some stage n's mask zero set, whose
    nonzero points have |y| >= 1/(p|t|) >= 1/reach, reach = max p|t| over
    the alphabet: a hit has den*|b_1...b_n| <= |num|*reach, so 0 is never
    a zero and the stages are walked only while that bound holds for the
    largest |num|, or until every entry is a zero.  A sieve, one solve per
    stage: mask_zero_moduli turns a hit into Q | num and P not dividing
    num, whose k are one class mod Q/gcd(step, Q) minus a subclass mod
    P/gcd(step, P), each found by one modular inverse.  The class is marked
    by one slice assignment and the subclass's earlier flags put back.  den
    must be positive, as the bound is scaled by it, and step nonzero.
    """
    if den <= 0:
        raise ValueError(f"den must be positive, got den={den}")
    if step == 0:
        raise ValueError("step must be nonzero")
    flags = bytearray(count)
    reach = max(pr.p * abs(pr.t) for pr in config.pairs)
    top = max(abs(start), abs(start + (count - 1) * step)) * reach
    for pr, base in stage_walk(config, word):
        mag = den * abs(base)
        if mag > top:
            break
        q, p = mask_zero_moduli(pr.p, pr.t, mag)
        hit = progression_class(start, step, q) if p != q else None
        if hit is None:
            continue
        miss = progression_class(start, step, p)
        kept = slice(miss[0], count, miss[1]) if miss else slice(0)
        old = flags[kept]
        flags[hit[0]:count:hit[1]] = b"\x01" * len(range(hit[0], count, hit[1]))
        flags[kept] = old
        if 0 not in flags:
            break
    return flags


def zero_set_contains(config: SystemConfig, word: SymbolicWord,
                      x: RationalLike) -> bool:
    """Exact membership of x in the zero set of the full Fourier transform."""
    x = Fraction(x)
    return zero_flags(config, word, x.numerator, x.denominator, 1, x.denominator)[0] == 1


def chebyshev_amplitude(p: int, c: np.ndarray) -> np.ndarray:
    """D_p(v) = U_{p-1}(c)/p from c = cos(pi v), for p <= RECURRENCE_MAX_P.

    U_{p-1} comes from the recurrence U_{j+1} = 2c U_j - U_{j-1}.  At p = 2
    it gives (2c)/2, which is c exactly in floats, so c is returned as it is.
    """
    if p == 2:
        return c
    two_c = 2 * c
    prev, cur = 1.0, two_c
    for _ in range(p - 2):
        prev, cur = cur, two_c * cur - prev
    return cur / p


def dirichlet_amplitude(p: int, v: np.ndarray) -> np.ndarray:
    """Real stage amplitude D_p(v) = sin(pi p v) / (p sin(pi v)), 1 at v = 0.

    The stage mask is m(y) = exp(pi i (p-1) t y) * D_p(t y).  Up to
    RECURRENCE_MAX_P digits, the cheaper form there, D_p is
    chebyshev_amplitude at c = cos(pi v); c carries the sign, so v needs no
    reduction.  Past it, with k = rint(v), u = v - k,
    D_p is (-1)^{k(p-1)} sin(p pi u) / (p sin(pi u)), 1 where u is 0 or
    subnormal.
    Rounding bound against D_p at the float v, with 2**-53 the unit
    roundoff: (p**2 + pi p |v|) 2**-53 for the recurrence and 2**-50 for the
    quotient, whatever p is (against mpmath, measured up to 0.51 and 0.38
    of these).
    """
    if p <= RECURRENCE_MAX_P:
        return chebyshev_amplitude(p, np.cos(np.pi * v))
    k = np.rint(v)
    u = v - k
    # a subnormal pi u keeps too few bits for the quotient, while
    # D_p(u) = 1 - O(p**2 u**2) rounds to 1 there
    out = np.divide(np.sin((np.pi * p) * u), p * np.sin(np.pi * u),
                    out=np.ones_like(u), where=np.abs(u) >= np.finfo(float).smallest_normal)
    # (-1)^{k(p-1)}: for even p, k is odd where k/2 is not an integer
    return np.negative(out, out=out, where=(p % 2 == 0) & (np.rint(0.5 * k) != 0.5 * k))


def reduced_quotients(t, nums: np.ndarray, mod, reach: int) -> np.ndarray:
    """r/mod for r = t*num mod mod, the residue taken in integers, at each num of nums.

    t and mod > 0 are integers, for one quotient per num, or equal-length
    lists of them, for a row per (t, mod) pair.  nums is an integer array
    with every |num| <= reach.  Each t is first taken to its residue of
    least magnitude mod its mod, t', which leaves r unchanged, so the
    residues stay int64 while every |t'| max(reach, 1) and every mod has
    int_width int64, however large t is; past that they are Python
    integers (an int64 nums is taken to them).  r/mod lies in [0, 1) and
    is correctly rounded: one float division while the residues are int64
    and every mod is below 2**53, Python's int / int otherwise, as
    float_quotients does, so the bits do not depend on the width.
    """
    rows = isinstance(t, list)
    if rows:
        t = [(a + m // 2) % m - m // 2 for a, m in zip(t, mod)]
        top, mod_top = max(map(abs, t), default=0), max(mod, default=0)
    else:
        t = (t + mod // 2) % mod - mod // 2
        top, mod_top = abs(t), mod
    if nums.dtype != object and int_width(max(top * max(reach, 1), mod_top)) is object:
        nums = nums.astype(object)
    if rows:  # a column of each against the row nums
        t, mod = (np.array(v, dtype=nums.dtype).reshape(-1, 1) for v in (t, mod))
    r = nums * t
    r %= mod
    if r.dtype == object or mod_top >= 2**53:  # Python's int / int
        return (r.astype(object, copy=False) / np.asarray(mod).astype(object)).astype(float)
    return r / mod


def reduced_amplitude(ps: list[int], ts: list[int], nums: np.ndarray, mods: list[int],
                      reach: int) -> np.ndarray:
    """prod_n D_{p_n}(r_n/mod_n), r_n = t_n*num mod mod_n in integers, at each num of nums.

    |D_p| is even and has period 1, so |D_p(t num/mod)| = |D_p(r/mod)| at any
    size of t num: with mod_n = L|B_n| > 0 each factor is the stage factor
    |D_{p_n}(t_n x / B_n)| at x = num/L, whatever the sign of B_n.  Only
    the square is meant for use, as the sign may differ.  The lists hold one
    (p, t, mod) per stage, nums is an integer array with every
    |num| <= reach, and each r/mod is reduced_quotients'.  Every argument
    lies in [0, 1), so dirichlet_amplitude's rounding bound holds at
    |v| < 1, whatever t and num are.  The factors are multiplied in stage
    order, from 1, each from its own reduced_quotients call: one row table
    of every stage was no faster, held more memory, and one wide stage
    would carry the whole table to Python integers.
    """
    amp = np.ones(len(nums))
    for p, t, mod in zip(ps, ts, mods):
        amp *= dirichlet_amplitude(p, reduced_quotients(t, nums, mod, reach))
    return amp


def mu_hat_amplitude(config: SystemConfig, word: SymbolicWord, xs: np.ndarray,
                     depth: int) -> tuple[np.ndarray, float]:
    """Real A(x) = prod_{n<=depth} D_{p_n}(t_n x / B_n) and H = sum_n (p_n - 1) t_n / B_n.

    B_n = b_1...b_n; the transform is exp(pi i H x) A(x), so |mu_hat|**2 is
    A**2.  The stages are stage_walk's to depth, and reach is max|x|.  Each
    quotient t_n/B_n or (p_n - 1) t_n/B_n is one correctly rounded int / int
    division, and one past FLOAT_BOUND raises ValueError, as does a stage
    whose pi p_n reach |t_n / B_n| passes it, where a stage argument's sine
    or cosine would leave the float range and give nan.  Past
    |B_n| = 2**1075 max (p - 1)|t| every quotient rounds to 0, a factor
    D_p(0) = 1: the walk stops there.  It also stops once no later stage can
    change a float, both tests integer comparisons of |B_n|, which at least
    doubles per stage, so no refusal is skipped.  When every p is at most
    RECURRENCE_MAX_P, a stage with pi reach max|t| / |B_n| < 2**-28 takes
    its cosine to 1.0, so the recurrence's D_p to exactly 1.0, as does
    every later stage: their factors are left out.  From then on, once
    max (p - 1)|t| / |B_n| is below a quarter ulp of the running H, adding
    this or any later drift rounds back to H, and the walk ends.
    """
    xs = np.asarray(xs, dtype=float)
    amp, slope = np.ones_like(xs), 0.0
    reach = float(np.max(np.abs(xs), initial=0.0))
    pi_x = math.pi * reach
    flat = math.inf  # the factor of each stage with |B_n| > flat is 1.0
    if math.isfinite(reach) and max(pr.p for pr in config.pairs) <= RECURRENCE_MAX_P:
        # pi reach max|t| / |B_n| < 2**-28 where |B_n| > 22 reach max|t| 2**28 / 7,
        # as pi < 22/7; reach = num/den, and an integer |B_n| passes the floor
        num, den = reach.as_integer_ratio()
        flat = (22 * num * max(abs(pr.t) for pr in config.pairs) << 28) // (7 * den)
    drift_top = max((pr.p - 1) * abs(pr.t) for pr in config.pairs)
    underflow = drift_top << 1075
    for n, (pr, base) in enumerate(stage_walk(config, word, depth), start=1):
        if abs(base) > underflow:
            break
        try:
            ratio, drift = pr.t / base, (pr.p - 1) * pr.t / base
        except OverflowError:
            raise ValueError(f"stage {n}: t_{n}/(b_1...b_{n}) is past the float range; "
                             f"bound is {FLOAT_BOUND!r}") from None
        if pi_x * abs(ratio) * pr.p > FLOAT_BOUND:
            raise ValueError(f"stage {n}: pi p_{n} max|x| |t_{n}/(b_1...b_{n})| is past the "
                             f"float range; bound is {FLOAT_BOUND!r}")
        if abs(base) <= flat:
            amp *= dirichlet_amplitude(pr.p, xs * ratio)
        elif slope:
            # drift_top / |B_n| below a quarter ulp of H = f 2**e, 1/2 <= |f| < 1: 2**(e - 55)
            e = math.frexp(slope)[1] - 55
            if drift_top << max(0, -e) < abs(base) << max(0, e):
                break
        slope += drift
    return amp, slope


def mu_hat_many(config: SystemConfig, word: SymbolicWord, xs: np.ndarray,
                depth: int) -> np.ndarray:
    """Vectorized finite product prod_{k<=depth} m_k(x / (b_1...b_k)) as exp(pi i H x) A(x).

    A and H are mu_hat_amplitude's, whose walk stops where no later stage
    changes a float, so every depth past that stop gives the same bits.
    x = 0 gives exactly 1+0j; the rounding bound is mu_hat_eval's.
    """
    amp, slope = mu_hat_amplitude(config, word, xs, depth)
    return amp * np.exp((1j * np.pi * slope) * np.asarray(xs, dtype=float))


def mu_hat_eval(config: SystemConfig, word: SymbolicWord, x: float,
                depth: int) -> tuple[complex, float]:
    """Finite Fourier product at x with a tail-error bound for the omitted factors.

    Each omitted factor satisfies |m(y) - 1| <= pi*(p-1)*|t|*|y| and the base
    products at least double per stage, so the tail is bounded by the
    geometric sum pi * max((p-1)|t|) * |x| / |b_1...b_depth|, with
    b_1...b_0 = 1 at depth 0, where the value is 1.  Rounding:
    the amplitude is within sum_n (e_n + 2**-53) of the product of D_{p_n} at
    the float stage arguments (each within 3 ulp of t_n x / B_n), e_n being
    dirichlet_amplitude's bound, and the phase angle pi H x is within
    (depth + 3) 2**-53 pi |x| sum_n (p_n - 1)|t_n| / |B_n| of the exact one.
    """
    val = complex(mu_hat_many(config, word, np.array([x]), depth)[0])
    *_, (_, base) = [(None, 1), *stage_walk(config, word, depth)]
    m_max = max((pr.p - 1) * abs(pr.t) for pr in config.pairs)
    try:
        err = math.pi * m_max * abs(x) / abs(float(base))
    except OverflowError:
        err = 0.0
    return val, err


def support_hull(config: SystemConfig, word: SymbolicWord) -> tuple[Fraction, Fraction]:
    """Exact convex hull [0, sum_k (p_k - 1) t_k / (b_1...b_k)] of the support.

    Requires positive bases and strides for the letters used.  The eventually
    periodic tail is summed in closed form: after the r head terms the s
    period terms repeat forever, each repeat scaled by 1/q with
    q = (b_1...b_{r+s}) / (b_1...b_r), so they contribute their sum times
    q / (q - 1).
    """
    for letter in sorted(word.letters()):
        pr = config.pair(letter)
        if pr.b < 0 or pr.t < 0:
            raise ValueError(f"letter {letter} has negative b or t")
    r, s = len(word.preperiod), len(word.period)
    walk = list(stage_walk(config, word, r + s))
    terms = [Fraction((pr.p - 1) * pr.t, base) for pr, base in walk]
    q = walk[-1][1] // (walk[r - 1][1] if r else 1)
    head, period = sum(terms[:r], Fraction(0)), sum(terms[r:], Fraction(0))
    return Fraction(0), head + period * Fraction(q, q - 1)


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
