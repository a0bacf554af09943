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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .exactmath import lcm_all
from .hadamard import canonical_dual_digits, is_admissible
from .measure import (DiscreteMeasure, SymbolicWord, SystemConfig, mask_zero_hit,
                      mu_hat_many, stage_walk)


class TowerDegenerateError(RuntimeError):
    """Raised when tower construction produces duplicate spectrum points."""


@dataclass(frozen=True)
class SpectrumCandidate:
    """A finite exponent set, or a structured set digits + period*Z.

    Exactly one representation is populated.  Structured candidates are
    enumerated through symmetric lattice windows and never materialized in
    full.
    """

    points: Optional[tuple[Fraction, ...]] = None
    digits: Optional[tuple[Fraction, ...]] = None
    lattice_period: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if (self.points is None) == (self.digits is None):
            raise ValueError("exactly one of points / digits must be given")
        if self.points is not None:
            pts = tuple(sorted(Fraction(x) for x in self.points))
            if len(set(pts)) != len(pts):
                raise ValueError("spectrum points must be pairwise distinct")
            object.__setattr__(self, "points", pts)
        else:
            if self.lattice_period is None or Fraction(self.lattice_period) <= 0:
                raise ValueError("structured form needs a positive lattice period")
            period = Fraction(self.lattice_period)
            digs = tuple(sorted(Fraction(d) % period for d in self.digits))
            if len(set(digs)) != len(digs):
                raise ValueError("digits must be distinct mod the lattice period")
            object.__setattr__(self, "digits", digs)
            object.__setattr__(self, "lattice_period", period)

    @classmethod
    def finite(cls, points) -> "SpectrumCandidate":
        return cls(points=tuple(Fraction(x) for x in points))

    @classmethod
    def structured(cls, digits, lattice_period) -> "SpectrumCandidate":
        return cls(digits=tuple(Fraction(d) for d in digits),
                   lattice_period=Fraction(lattice_period))

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    def __len__(self) -> int:
        if not self.is_finite:
            raise ValueError("structured candidates are infinite")
        return len(self.points)

    def enumerate(self, lattice_window: int = 0) -> tuple[Fraction, ...]:
        """Concrete exponents: all points, or digits + period*{-W..W}."""
        if self.is_finite:
            return self.points
        if lattice_window < 0:
            raise ValueError("lattice window must be >= 0")
        out = [d + self.lattice_period * w for d in self.digits
               for w in range(-lattice_window, lattice_window + 1)]
        return tuple(sorted(out))


def default_lattice_modulus(config: SystemConfig) -> int:
    """Least common multiple of p*|t| over the alphabet; the canonical q."""
    return lcm_all(pr.p * abs(pr.t) for pr in config.pairs)


def build_tower_spectrum(config: SystemConfig, word: SymbolicWord, k: int) -> SpectrumCandidate:
    """Finite spectrum of the depth-k truncation from per-stage canonical partners.

    Every letter used in positions 1..k must be admissible.  Duplicate points
    would mean a degenerate tower and abort loudly; they are never deduped.
    """
    if k < 0:
        raise ValueError("depth k must be >= 0")
    pts = [0]
    expected = 1
    for n, (pr, base) in enumerate(stage_walk(config, word, k), start=1):
        if not is_admissible(pr.b, pr.p, pr.t):
            raise ValueError(
                f"stage {n} = (b={pr.b}, p={pr.p}, t={pr.t}) is not admissible")
        partner = canonical_dual_digits(pr.b, pr.p, pr.t)
        lead = base // pr.b  # b_1...b_{n-1}
        pts = [x + lead * l for x in pts for l in partner]
        expected *= pr.p
    if len(set(pts)) != expected:
        raise TowerDegenerateError(
            f"tower produced {len(set(pts))} distinct points, expected {expected}")
    return SpectrumCandidate.finite(sorted(pts))


@dataclass(frozen=True)
class SpectrumVerification:
    """Exact verdict plus the numeric unitarity residual of the weighted matrix."""

    ok: bool
    reason: Optional[str]
    offending: Optional[Fraction]
    unitarity_residual: float


def weighted_matrix_residual(measure: DiscreteMeasure, points: Sequence[Fraction]) -> float:
    """Frobenius norm of M*M - I for M = [sqrt(w_i) exp(2 pi i lambda_j x_i)]."""
    xs = np.array([float(x) for x in measure.points])
    ws = np.sqrt(np.array([float(w) for w in measure.weights]))
    ls = np.array([float(l) for l in points])
    m = ws[:, None] * np.exp(2j * np.pi * np.outer(xs, ls))
    r = m.conj().T @ m - np.eye(len(points))
    return float(np.linalg.norm(r))


def verify_spectrum_finite(measure: DiscreteMeasure, candidate: SpectrumCandidate,
                           config: SystemConfig, word: SymbolicWord,
                           k: int) -> SpectrumVerification:
    """Exact check that a finite candidate is a spectrum of the depth-k truncation.

    Orthogonality: every nonzero difference must land in some stage zero set
    (a factor of the truncated transform vanishes).  Completeness: the
    candidate size must equal the atom count.  The numeric residual of the
    weighted exponential matrix is reported alongside.
    """
    if not candidate.is_finite:
        raise ValueError("finite verification needs a finite candidate")
    pts = candidate.points
    resid = weighted_matrix_residual(measure, pts)
    if len(pts) != len(measure.atoms):
        return SpectrumVerification(False, "cardinality", None, resid)
    walk = list(stage_walk(config, word, k))
    diffs = {abs(p1 - p2) for i, p1 in enumerate(pts) for p2 in pts[i + 1:]}
    for delta in diffs:
        num, den = delta.numerator, delta.denominator
        if not any(mask_zero_hit(pr.p, pr.t, num, den * base) for pr, base in walk):
            return SpectrumVerification(False, "orthogonality", delta, resid)
    return SpectrumVerification(True, None, None, resid)


def q_function(config: SystemConfig, word: SymbolicWord, depth: int,
               candidate: SpectrumCandidate, x: float,
               lattice_window: int = 0) -> float:
    """Jorgensen-Pedersen sum over the (windowed) candidate at the depth-truncation.

    At most 1 plus the truncation tail tolerance when the candidate is an
    orthonormal family for the measure, identically 1 when it is a spectrum
    of it; non-orthogonal candidates can exceed 1.
    """
    lams = candidate.enumerate(lattice_window)
    xs = np.array([x + float(l) for l in lams])
    vals = mu_hat_many(config, word, xs, depth)
    return float(np.sum(np.abs(vals) ** 2))


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
    if not candidate.is_finite:
        raise ValueError("decomposition needs a finite candidate")
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
    if not candidate.is_finite:
        raise ValueError("structure search needs a finite candidate")
    found: dict[int, Optional[Fraction]] = {j: None for j in range(1, p1)}
    for lam in candidate.points:
        y = Fraction(lam) * p1 * t1 / b1
        if y.denominator != 1:
            continue
        j = y.numerator % p1
        if j != 0 and found.get(j) is None:
            found[j] = lam
    return found
