import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec.exactmath import RootSum, root_sum_is_zero
from moranspec.hadamard import canonical_dual_digits, is_admissible, is_compatible_pair
from moranspec.measure import DiscreteMeasure
from moranspec.spectra import weighted_matrix_residual


def stage_measure(b, digits):
    """Uniform measure on D/b; its transform at l + x*b is the mask m_D(l/b + x)."""
    return DiscreteMeasure.from_dict({Fraction(d, b): Fraction(1, len(digits)) for d in digits})


def unitarity_residual(b, digits, freqs):
    """Frobenius norm of H*H - I for H = [exp(2 pi i d l / b)] / sqrt(#D)."""
    return weighted_matrix_residual(stage_measure(b, digits), freqs)


def parseval_sum(b, digits, freqs, x):
    """sum_{l in L} |m_D(l/b + x)|^2, identically 1 exactly for compatible pairs."""
    vals = stage_measure(b, digits).fourier_many(np.array(freqs, dtype=float) + x * b)
    return float(np.sum(np.abs(vals) ** 2))


def test_admissibility_examples():
    assert is_admissible(4, 2, 1)
    assert is_admissible(2, 2, 3)        # gcd(2,3)=1 and 2 | 2
    assert not is_admissible(6, 4, 2)    # 6/gcd(6,2) = 3, 4 does not divide 3
    assert is_admissible(-4, 2, 1)
    assert is_admissible(4, 2, -1)
    with pytest.raises(ValueError):
        is_admissible(4, 1, 1)


def test_canonical_partner_examples():
    assert canonical_dual_digits(12, 2, 1) == (0, 6)
    assert canonical_dual_digits(2, 2, 3) == (0, 1)
    assert canonical_dual_digits(6, 3, 1) == (0, 2, 4)
    for b, p, t in ((12, 2, 1), (2, 2, 3), (6, 3, 1), (12, 3, 4), (6, 3, 4)):
        partner = canonical_dual_digits(b, p, t)
        digits = tuple(j * t for j in range(p))
        assert is_compatible_pair(b, digits, partner)
        assert max(partner) < abs(b)
    with pytest.raises(ValueError):
        canonical_dual_digits(6, 4, 2)


def test_canonical_partner_for_two_two_three_is_an_exact_zero():
    # m_D(1/2) = (1 + exp(3 pi i))/2 = 0 exactly
    assert root_sum_is_zero(RootSum(2, (0, 3)))
    assert canonical_dual_digits(2, 2, 3) == (0, 1)


def test_compatibility_examples():
    assert is_compatible_pair(4, (0, 1), (0, 2))
    assert not is_compatible_pair(4, (0, 1), (0, 1))   # m_D(1/4) = (1+i)/2
    assert is_compatible_pair(2, (0, 3), (0, 1))
    with pytest.raises(ValueError):
        is_compatible_pair(4, (0, 1), (0, 1, 2))
    assert not is_compatible_pair(4, (0, 1), (2, 2))   # duplicate frequencies


def test_compatibility_accepts_arbitrary_digit_sets():
    # non-arithmetic digits {0, 1, 8, 9} under b=16: the mask factors through
    # {0,1} and 8*{0,1}, with zeros at odd integers and at 8 mod 16, so the
    # set pairs with itself; an even difference like 2 breaks it
    digits = (0, 1, 8, 9)
    assert is_compatible_pair(16, digits, (0, 1, 8, 9))
    assert unitarity_residual(16, digits, (0, 1, 8, 9)) < 1e-12
    assert not is_compatible_pair(16, digits, (0, 2, 4, 6))


def test_unitarity_residual_examples():
    assert unitarity_residual(4, (0, 1), (0, 2)) < 1e-12
    assert unitarity_residual(4, (0, 1), (0, 1)) == pytest.approx(1.0, abs=1e-9)
    assert unitarity_residual(7, (0,), (3,)) < 1e-15   # 1x1 of modulus 1


def test_parseval_examples():
    assert parseval_sum(4, (0, 1), (0, 2), 0.3) == pytest.approx(1.0, abs=1e-10)
    assert parseval_sum(4, (0, 1), (0, 2), 0.0) == pytest.approx(1.0, abs=1e-10)
    assert parseval_sum(4, (0, 1), (0, 1), 0.0) == pytest.approx(1.5, abs=1e-10)


def test_exact_numeric_and_parseval_verdicts_agree_at_desk_scale():
    # three equivalent characterizations of compatibility, swept over the
    # canonical partner and over perturbed partners that break it; the float
    # two are spectra's residual and the transform of the stage measure
    rng = random.Random(5)
    for b in range(2, 13):
        for p in range(2, 7):
            for t in range(1, 7):
                if not is_admissible(b, p, t):
                    continue
                digits = tuple(j * t for j in range(p))
                partner = canonical_dual_digits(b, p, t)
                candidates = [partner]
                broken = (partner[0],) + tuple(l + 1 for l in partner[1:])
                if len(set(broken)) == p:
                    candidates.append(broken)
                for cand in candidates:
                    exact = is_compatible_pair(b, digits, cand)
                    numeric = unitarity_residual(b, digits, cand) < 1e-9
                    xs = [rng.uniform(0, 1) for _ in range(16)]
                    pars = all(abs(parseval_sum(b, digits, cand, x) - 1) < 1e-9
                               for x in xs)
                    assert exact == numeric == pars, (b, p, t, cand)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
def test_compatibility_is_translation_invariant(c, cprime):
    digits = (0, 1)
    partner = (0, 2)
    shifted_digits = tuple(d + c for d in digits)
    shifted_partner = tuple(l + cprime for l in partner)
    assert is_compatible_pair(4, shifted_digits, shifted_partner)
    bad_partner = tuple(l + cprime for l in (0, 1))
    assert not is_compatible_pair(4, shifted_digits, bad_partner)


def test_admissibility_is_sign_invariant():
    for b in range(2, 13):
        for p in range(2, 7):
            for t in range(1, 7):
                base = is_admissible(b, p, t)
                assert base == is_admissible(-b, p, t) == is_admissible(b, p, -t)
