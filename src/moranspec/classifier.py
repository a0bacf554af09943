"""Decision procedures for spectrality of stage-alphabet infinite convolutions.

For a pairwise-coprime alphabet (each digit count coprime to every stride,
strides pairwise coprime) the infinite convolution along an eventually
periodic word is spectral iff

  (a) every letter occurring at a position >= 2 has its digit count dividing
      its base, and
  (b) the word is not of the exceptional eventually-constant form
      i_1...i_l j^infinity with i_l != j, |b_j| = p_j and |t_j| != 1.

Position 1 is exempt from (a): spectrality never depends on the first base.
Non-spectral verdicts carry the violated clause as a certificate; finite
computation cannot witness non-spectrality directly, since every truncation
is spectral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Optional, Sequence

from .exactmath import RationalLike
from .measure import StagePair, SymbolicWord, SystemConfig, first_nonzero
from .tiling import TileDecision, tile_decide

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
OUT_OF_SCOPE = "OutOfScope"

CLAUSE_DIVISIBILITY = "divisibility"
CLAUSE_TAIL_EXCEPTION = "Pi_l"
CLAUSE_HYPOTHESIS = "hypothesis"


@dataclass(frozen=True)
class SpectralVerdict:
    """Spectral / NotSpectral / OutOfScope, with a structured reason.

    NotSpectral always names the violated clause; detail is an ordered tuple
    of (key, value) pairs suitable for machine-readable reports.
    """

    kind: str
    clause: Optional[str] = None
    detail: tuple[tuple[str, object], ...] = ()


def validate_config(config: SystemConfig) -> list[str]:
    """Every violation of the coprime-alphabet hypothesis, as report strings.

    Violations are data, not errors; they are computed once per alphabet
    (``SystemConfig.facts``, where the reading of the hypothesis is stated).
    """
    return list(config.facts.violations)


_SPECTRAL = SpectralVerdict(SPECTRAL)


def decide_spectrality(config: SystemConfig, word: SymbolicWord) -> SpectralVerdict:
    """Main classification for a coprime alphabet and eventually periodic word.

    Spectral iff every letter used at positions >= 2 satisfies p | b and the
    word is not an exceptional eventually-constant word (tail letter j with
    |b_j| = p_j, |t_j| != 1, entered from a different letter).  The verdict
    is invariant under sign flips of any b or t and under replacing the base
    at position 1.  Each test reads the alphabet's side from ``config.facts``
    and the word's side from ``word.facts``, each computed once per object,
    so a Spectral word costs one disjointness test.
    """
    facts, word_facts = config.facts, word.facts
    if facts.violations:
        return SpectralVerdict(OUT_OF_SCOPE, CLAUSE_HYPOTHESIS,
                               (("violations", facts.violations),))
    if word_facts.top > config.m:  # SymbolicWord letters are >= 1
        raise ValueError("word letters outside the alphabet")
    if not facts.nondividing.isdisjoint(word_facts.later):
        letter = min(facts.nondividing.intersection(word_facts.later))
        pr = config.pairs[letter - 1]
        return SpectralVerdict(
            NOT_SPECTRAL, CLAUSE_DIVISIBILITY,
            (("letter", letter), ("p", pr.p), ("b", pr.b),
             ("position", word_facts.first_position[letter])))
    entry = word_facts.tail_entry
    if entry is not None and entry[1] in facts.pi_tails:
        l, j, last_other = entry
        return SpectralVerdict(NOT_SPECTRAL, CLAUSE_TAIL_EXCEPTION,
                               (("l", l), ("j", j), ("last_other", last_other)))
    return _SPECTRAL


@dataclass(frozen=True)
class NecessityViolation:
    """Stage index k where p_{k+1} does not divide b_{k+1} * t_k (guard p_k | t_{k+1} failing)."""

    index: int
    p_next: int
    b_next: int
    t_here: int

    def message(self) -> str:
        return (f"k={self.index}: p_{{k+1}}={self.p_next} does not divide "
                f"b_{{k+1}}*t_k = {self.b_next}*{self.t_here}")


def necessity_violations(stages: Sequence[StagePair], horizon: int) -> list[NecessityViolation]:
    """Violated necessary conditions along a raw stage prefix.

    For each k <= horizon with p_k not dividing t_{k+1}, spectrality forces
    p_{k+1} | b_{k+1} t_k; each failing k certifies non-spectrality of the
    full system.  Stages where p_k | t_{k+1} are skipped (nothing is forced
    there).
    """
    if horizon > len(stages) - 1:
        raise ValueError("horizon exceeds prefix length - 1")
    out: list[NecessityViolation] = []
    for k in range(1, horizon + 1):
        here, nxt = stages[k - 1], stages[k]
        if nxt.t % here.p == 0:
            continue
        if (nxt.b * here.t) % nxt.p != 0:
            out.append(NecessityViolation(k, nxt.p, nxt.b, here.t))
    return out


@dataclass(frozen=True)
class TwoStageDecision:
    """The three equivalent flags of the two-stage system, plus certificates."""

    divides: bool
    spectral: bool
    tiles: bool
    residue: Optional[int]
    tiling: TileDecision


def two_stage_decide(p1: int, p2: int, b1: int, t1: int, t2: int) -> TwoStageDecision:
    """Decide the two-stage system (first stage (b1, p1, t1), then (p2, p2, t2) forever).

    Stride divisibility t2 | t1, spectrality, and translation tiling of the
    support are equivalent; the tiling flag is cross-verified constructively,
    and the failing case carries the residue t1 mod t2 as certificate.
    No coprimality is assumed.  Raises AtomCapExceeded from ``tile_decide``
    when t2 | t1 and p1*t1/t2 passes DEFAULT_ATOM_CAP.
    """
    divides = (t1 % t2 == 0)
    decision = tile_decide(p1, p2, b1, t1, t2)
    if decision.tiles != divides:
        raise AssertionError(
            f"constructive tiling check contradicts divisibility for "
            f"(p1={p1}, p2={p2}, b1={b1}, t1={t1}, t2={t2})")
    return TwoStageDecision(divides, divides, decision.tiles,
                            None if divides else t1 % t2, decision)


@dataclass(frozen=True)
class ZeroSetStatus:
    """Emptiness status of the integral periodic zero set: empty / nonempty / unknown."""

    status: str
    reason: str


def integral_zero_set_status(config: SystemConfig, word: SymbolicWord) -> ZeroSetStatus:
    """Sufficient criteria for the integral periodic zero set to be empty or not.

    Empty when any of the following holds:
      - p | b for every word letter and the strides of the letters
        occurring infinitely often have gcd 1;
      - the word is constant j^inf with p_j | b_j and p_j != |b_j|;
      - the first letter has unit stride and p | b holds for every word letter;
      - the first letter has nonunit stride, never recurs, and p | b holds
        for every word letter.
    Nonempty when the word is constant j^inf with |b_j| = p_j and |t_j| != 1
    (the shifted integer lattice 1/t_j + Z consists of transform zeros).
    Anything else is unknown.
    """
    facts, word_facts = config.facts, word.facts
    if facts.violations:
        raise ValueError("config violates the coprime-alphabet hypothesis")
    letters = word_facts.letters
    pairs = {l: config.pair(l) for l in letters}
    # gcd(p, t) = 1 under the hypothesis, so p | b/gcd(b, t) (admissible) iff p | b
    divisible = facts.nondividing.isdisjoint(letters)
    if divisible:
        g = 0
        for l in word_facts.tail:
            g = gcd(g, abs(pairs[l].t))
        if g == 1:
            return ZeroSetStatus("empty", "tail stride gcd is 1 over admissible letters")
    if len(letters) == 1:
        # a constant word j^inf; the gcd criterion above returned when
        # |t_j| = 1, so here p_j | b_j means p_j != |b_j| unless j is a Pi_l
        # tail letter
        (j,) = letters
        if j in facts.pi_tails:
            pj = pairs[j]
            return ZeroSetStatus("nonempty",
                                 f"constant word, |b|=p={pj.p}, stride {pj.t}: "
                                 f"1/{abs(pj.t)} + Z consists of zeros")
        if divisible:
            return ZeroSetStatus("empty", "constant word with p | b and p != |b|")
    if divisible:
        head = word_facts.head
        if abs(pairs[head].t) == 1:
            return ZeroSetStatus("empty", "unit-stride head with p | b throughout")
        if head not in word_facts.later:
            return ZeroSetStatus("empty", "nonunit-stride head never recurs, p | b throughout")
    return ZeroSetStatus("unknown", "no criterion applies")


@dataclass(frozen=True)
class ZeroSetProbe:
    """Witness search result: k with transform(xi + k) != 0, or inconclusive."""

    xi: Fraction
    window: int
    witness: Optional[int]

    @property
    def conclusive(self) -> bool:
        return self.witness is not None


def integral_zero_set_probe(config: SystemConfig, word: SymbolicWord,
                            xi: RationalLike, window: int) -> ZeroSetProbe:
    """Scan k in [-window, window] for an exact non-zero of the transform at xi + k.

    A witness certifies xi is outside the integral periodic zero set; an
    exhausted window is inconclusive (every scanned translate was an exact
    zero).  Scans outward from k = 0 (in the order 0, 1, -1, 2, -2, ...)
    so the smallest witness is returned; the translates go to one
    first_nonzero scan as numerators over xi's denominator, built as the
    scan asks for them.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    xi = Fraction(xi)
    num, den = xi.numerator, xi.denominator
    ks = chain((0,), chain.from_iterable((k, -k) for k in range(1, window + 1)))
    hit = first_nonzero(config, word, (num + k * den for k in ks), den)
    if hit is None:
        return ZeroSetProbe(xi, window, None)
    return ZeroSetProbe(xi, window, (hit + 1) // 2 if hit % 2 else -(hit // 2))


def alternating_family_decide(p1: int, p2: int, odd_b: Sequence[int],
                              even_t: Sequence[int]) -> SpectralVerdict:
    """Decide the alternating family: unit-stride p1 digits at odd stages,
    stride-t p2 digits at even stages with base p2*t there.

    odd_b lists the bases at odd positions from the third stage on, even_t
    the strides at even positions from the second stage on, both periodic;
    position-wise pairs (b_{2k+1}, t_{2k}) align index k.  Spectral iff
    p1 | b_{2k+1} * t_{2k} for every k across one full period alignment.
    """
    if p1 < 2 or p2 < 2:
        raise ValueError("p1 and p2 must be >= 2")
    if not odd_b or not even_t:
        raise ValueError("periodic base and stride lists must be nonempty")
    if any(b < 2 for b in odd_b) or any(t < 1 for t in even_t):
        raise ValueError("need bases >= 2 and strides >= 1")
    span = len(odd_b) * len(even_t) // gcd(len(odd_b), len(even_t))
    for k in range(span):
        b = odd_b[k % len(odd_b)]
        t = even_t[k % len(even_t)]
        if (b * t) % p1 != 0:
            return SpectralVerdict(
                NOT_SPECTRAL, CLAUSE_DIVISIBILITY,
                (("pair_index", k + 1), ("b_odd", b), ("t_even", t), ("p1", p1)))
    return SpectralVerdict(SPECTRAL)
