"""Stage alphabets, symbolic words, and exact truncated convolutions.

A stage (b, p, t) contributes the digit set D = {0, t, 2t, ..., (p-1)t}
divided by the running base product b_1 b_2 ... b_k.  Truncating the
infinite convolution after k stages gives a discrete probability measure
with exact rational atoms.  The Fourier transform factors through the
per-stage mask

    m(x) = (1/p) * sum_{j<p} exp(2*pi*i*j*t*x),

whose zero set is (Z \\ pZ) / (p*t); that closed form powers all exact
zero-set membership tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional

import numpy as np

from .exactmath import RationalLike, divisors

DEFAULT_ATOM_CAP = 10**6


class AtomCapExceeded(ValueError):
    """Raised when a truncation would materialize more atoms than the cap."""


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
    the coprimality hypothesis of the classification theorems is checked by
    ``classifier.validate_config`` and reported as data, because several
    exact measure rewrites are computed on alphabets that violate it.
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

    def prefix(self, k: int) -> tuple[int, ...]:
        return tuple(self.letter(n) for n in range(1, k + 1))

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

    def letters_from(self, pos: int) -> frozenset[int]:
        """Letters occurring at some position >= pos (pos is 1-based)."""
        return frozenset(self.preperiod[max(pos - 1, 0):]) | frozenset(self.period)

    @property
    def tail_letters(self) -> frozenset[int]:
        """Letters occurring infinitely often."""
        return frozenset(self.period)

    @property
    def is_eventually_constant(self) -> bool:
        return len(self.period) == 1

    def __str__(self) -> str:
        return ",".join(map(str, self.preperiod)) + ";" + ",".join(map(str, self.period))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite rational-atom probability measure; atoms sorted by position."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        atoms = tuple(sorted((Fraction(x), Fraction(w)) for x, w in self.atoms))
        if len(atoms) == 0:
            raise ValueError("measure needs at least one atom")
        pts = [x for x, _ in atoms]
        if len(set(pts)) != len(pts):
            raise ValueError("atom points must be pairwise distinct")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("weights must be positive")
        if sum(w for _, w in atoms) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        return cls(tuple(d.items()))

    @classmethod
    def point_mass(cls, x: RationalLike = 0) -> "DiscreteMeasure":
        return cls(((Fraction(x), Fraction(1)),))

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    def fourier_many(self, xs: np.ndarray) -> np.ndarray:
        pts = np.array([float(p) for p in self.points])
        wts = np.array([float(w) for w in self.weights])
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


def truncate(config: SystemConfig, word: SymbolicWord, k: int,
             cap: int = DEFAULT_ATOM_CAP) -> DiscreteMeasure:
    """Exact convolution of the first k stages; k = 0 is the point mass at 0.

    Coinciding atom positions are merged with summed weights, which is what
    makes exact measure rewrites checkable by equality.
    """
    if k < 0:
        raise ValueError("depth k must be >= 0")
    atom_count = 1
    for pr, _ in stage_walk(config, word, k):
        atom_count *= pr.p
        if atom_count > cap:
            raise AtomCapExceeded(
                f"truncation to depth {k} needs {atom_count}+ atoms; cap is {cap}")
    atoms: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    for pr, base in stage_walk(config, word, k):
        w = Fraction(1, pr.p)
        nxt: dict[Fraction, Fraction] = {}
        for x, wx in atoms.items():
            for j in range(pr.p):
                pt = x + Fraction(j * pr.t, base)
                nxt[pt] = nxt.get(pt, Fraction(0)) + wx * w
        atoms = nxt
    return DiscreteMeasure.from_dict(atoms)


def measures_equal(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    """True iff the atom maps are identical as exact rational maps."""
    return a.atoms == b.atoms


def mask_zero_hit(p: int, t: int, num: int, den: int) -> bool:
    """Exact membership of num/den in the mask zero set (Z \\ pZ)/(p*t).

    Holds iff den divides num*p*t with a quotient not divisible by p; pure
    integer arithmetic, so a scan can pass x/(b_1...b_n) as x's numerator
    over x's denominator times the base product.
    """
    q, r = divmod(num * p * t, den)
    return r == 0 and q % p != 0


def mask_zero_contains(p: int, t: int, x: RationalLike) -> bool:
    """Exact membership of x in the mask zero set (Z \\ pZ)/(p*t)."""
    x = Fraction(x)
    return mask_zero_hit(p, t, x.numerator, x.denominator)


def zero_set_contains(config: SystemConfig, word: SymbolicWord,
                      x: RationalLike) -> bool:
    """Exact membership of x in the zero set of the full Fourier transform.

    x is a zero iff x/(b_1...b_k) hits some stage mask zero set; the scan
    terminates once |x/(b_1...b_k)| drops below the smallest nonzero
    magnitude min 1/(p|t|) over the whole alphabet.
    """
    x = Fraction(x)
    if x == 0:
        return False
    num, den = x.numerator, x.denominator
    reach = max(pr.p * abs(pr.t) for pr in config.pairs)
    for pr, base in stage_walk(config, word):
        if abs(num) * reach < den * abs(base):
            return False
        if mask_zero_hit(pr.p, pr.t, num, den * base):
            return True


def _mask_many(p: int, t: int, ys: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(ys, dtype=complex)
    for j in range(p):
        acc += np.exp(2j * np.pi * j * float(t) * ys)
    return acc / p


def mu_hat_many(config: SystemConfig, word: SymbolicWord, xs: np.ndarray,
                depth: int) -> np.ndarray:
    """Vectorized finite product prod_{k<=depth} m_k(x / (b_1...b_k))."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    xs = np.asarray(xs, dtype=float)
    out = np.ones_like(xs, dtype=complex)
    for pr, base in stage_walk(config, word, depth):
        try:
            bf = float(base)
        except OverflowError:  # |b_1...b_n| is past the float range
            break
        out *= _mask_many(pr.p, pr.t, xs / bf)
    return out


def mu_hat_eval(config: SystemConfig, word: SymbolicWord, x: float,
                depth: int) -> tuple[complex, float]:
    """Finite Fourier product at x with a tail-error bound for the omitted factors.

    Each omitted factor satisfies |m(y) - 1| <= pi*(p-1)*|t|*|y| and the base
    products at least double per stage, so the tail is bounded by the
    geometric sum pi * max((p-1)|t|) * |x| / |b_1...b_depth|.
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
