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
from math import gcd
from typing import Optional, Sequence

from .exactmath import RationalLike
from .measure import StagePair, SymbolicWord, SystemConfig, zero_flags
from .tiling import TileDecision, tile_decide

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
OUT_OF_SCOPE = "OutOfScope"

CLAUSE_DIVISIBILITY = "divisibility"
CLAUSE_TAIL_EXCEPTION = "Pi_l"
CLAUSE_HYPOTHESIS = "hypothesis"


@dataclass(frozen=True, slots=True)
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
    and the word's side from ``word.facts``, each computed once per object
    with letter sets as int bitmasks, so a Spectral word costs one ``&`` of
    its letters at positions >= 2 with the p ∤ b letters.  ``word.top`` is
    checked against the alphabet first, so no mask is wider than it.

    A failing verdict is fixed by the alphabet and a small key: the clause
    for the hypothesis, (letter, first position >= 2) for divisibility and
    (l, j, last_other) for Pi_l.  It is built on the first word with its key
    and kept in ``config.facts.verdicts``; later words get the same object,
    as every Spectral word gets one shared verdict.  Over words of at most L
    letters that memo holds at most m*L divisibility verdicts (positions
    2 .. L + 1), one Pi_l verdict per key seen, or one OutOfScope verdict.
    """
    facts = config.facts
    if facts.violations:
        key = CLAUSE_HYPOTHESIS
    elif word.top > facts.m:  # SymbolicWord letters are >= 1
        raise ValueError("word letters outside the alphabet")
    elif failing := facts.nondividing & (word_facts := word.facts).later:
        letter = (failing & -failing).bit_length() - 1  # the least failing letter
        key = (letter, word_facts.first_position[letter])
    elif (entry := word_facts.tail_entry) is not None and facts.pi_tails >> entry[1] & 1:
        key = entry
    else:
        return _SPECTRAL
    verdict = facts.verdicts.get(key)
    if verdict is None:
        verdict = facts.verdicts[key] = _failing_verdict(config, key)
    return verdict


def _failing_verdict(config: SystemConfig, key: str | tuple[int, ...]) -> SpectralVerdict:
    """The OutOfScope or NotSpectral verdict that ``decide_spectrality`` keeps under key."""
    if key == CLAUSE_HYPOTHESIS:
        return SpectralVerdict(OUT_OF_SCOPE, CLAUSE_HYPOTHESIS,
                               (("violations", config.facts.violations),))
    if len(key) == 2:
        letter, position = key
        pr = config.pairs[letter - 1]
        return SpectralVerdict(NOT_SPECTRAL, CLAUSE_DIVISIBILITY,
                               (("letter", letter), ("p", pr.p), ("b", pr.b), ("position", position)))
    return SpectralVerdict(NOT_SPECTRAL, CLAUSE_TAIL_EXCEPTION,
                           tuple(zip(("l", "j", "last_other"), key)))


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
    facts = config.facts
    if facts.violations:
        raise ValueError("config violates the coprime-alphabet hypothesis")
    if word.top > facts.m:  # the least letter past the alphabet names the error
        config.pair(min(l for l in word.letters() if l > facts.m))
    word_facts = word.facts
    letters, tail = word_facts.letters, word_facts.tail
    # gcd(p, t) = 1 under the hypothesis, so p | b/gcd(b, t) (admissible) iff p | b;
    # every tail letter occurs at a position >= 2
    divisible = not facts.nondividing & letters
    if divisible and gcd(*(abs(config.pairs[l - 1].t)
                           for l in word_facts.first_position if tail >> l & 1)) == 1:
        return ZeroSetStatus("empty", "tail stride gcd is 1 over admissible letters")
    if letters.bit_count() == 1:
        # a constant word j^inf; the gcd criterion above returned when
        # |t_j| = 1, so here p_j | b_j means p_j != |b_j| unless j is a Pi_l
        # tail letter
        j = word_facts.head
        if facts.pi_tails >> j & 1:
            pj = config.pairs[j - 1]
            return ZeroSetStatus("nonempty",
                                 f"constant word, |b|=p={pj.p}, stride {pj.t}: "
                                 f"1/{abs(pj.t)} + Z consists of zeros")
        if divisible:
            return ZeroSetStatus("empty", "constant word with p | b and p != |b|")
    if divisible:
        head = word_facts.head
        if abs(config.pairs[head - 1].t) == 1:
            return ZeroSetStatus("empty", "unit-stride head with p | b throughout")
        if not word_facts.later >> head & 1:
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
    zero).  The smallest witness is returned, k before -k: k = 0 is sieved
    alone (most probes stop there), then the numerators of xi - window ...
    xi + window over xi's denominator in one zero_flags progression, whose
    nearest 0 on each side of xi is found by bytearray find and rfind.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    xi = Fraction(xi)
    num, den = xi.numerator, xi.denominator
    if not zero_flags(config, word, num, den, 1, den)[0]:
        return ZeroSetProbe(xi, window, 0)
    flags = zero_flags(config, word, num - window * den, den, 2 * window + 1, den)
    # entry window is xi itself; min keeps the first of equal |k|, so k before -k
    hits = [i - window for i in (flags.find(0, window + 1), flags.rfind(0, 0, window)) if i >= 0]
    return ZeroSetProbe(xi, window, min(hits, key=abs, default=None))
