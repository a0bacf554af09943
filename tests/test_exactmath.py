import ast
import cmath
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec.exactmath import (RootSum, cyclotomic_polynomial, divisors,
                                 prime_factors, root_sum_is_zero)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def divmod_monic(num, den):
    """Quotient and remainder of integer polynomials, low degree first, den monic."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * max(1, len(rem) - dn)
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        quot[k - dn] = c
        for i, dc in enumerate(den):
            rem[k - dn + i] -= c * dc
    return quot, rem[:dn]


@lru_cache(maxsize=None)
def reference_cyclotomic(n):
    """Phi_n by dividing x^n - 1 by Phi_d for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num, rem = divmod_monic(num, reference_cyclotomic(d))
        assert not any(rem)
    return tuple(num)


def reference_is_zero(s):
    """Whether the reference Phi_n divides the exponent polynomial of s."""
    coeffs = [0] * s.order
    for e in s.exponents:
        coeffs[e] += 1
    return not any(divmod_monic(coeffs, reference_cyclotomic(s.order))[1])


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(360) == sorted(d for d in range(1, 361) if 360 % d == 0)
    with pytest.raises(ValueError):
        divisors(0)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(30030) == [2, 3, 5, 7, 11, 13]
    assert prime_factors(2 * 10007**2) == [2, 10007]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_cyclotomic_small_literals():
    assert cyclotomic_polynomial(1) == (-1, 1)         # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)          # x + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)   # x^4 - x^2 + 1


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(-3)


def test_cyclotomic_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for n in (5, 8, 9, 30, 105, 360):
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n)


def test_cyclotomic_105_has_coefficient_minus_two():
    # smallest order whose cyclotomic polynomial has a coefficient of magnitude 2
    coeffs = cyclotomic_polynomial(105)
    assert min(coeffs) == -2
    for n in range(1, 105):
        assert set(cyclotomic_polynomial(n)) <= {-1, 0, 1}


def test_cyclotomic_vanishes_exactly_at_primitive_roots():
    # independent numeric oracle: Phi_n(exp(2 pi i k/n)) is 0 iff gcd(k, n) = 1
    for n in (4, 6, 9, 12, 15):
        coeffs = cyclotomic_polynomial(n)
        for k in range(n):
            z = cmath.exp(2j * cmath.pi * k / n)
            val = sum(c * z ** i for i, c in enumerate(coeffs))
            if math.gcd(k, n) == 1:
                assert abs(val) < 1e-9
            else:
                assert abs(val) > 1e-3


def test_root_sum_examples():
    assert root_sum_is_zero(RootSum(4, (0, 1, 2, 3)))      # all 4th roots
    assert not root_sum_is_zero(RootSum(3, (0, 0)))        # value is 2
    assert root_sum_is_zero(RootSum(6, (0, 2, 4)))         # cube roots of unity


def test_root_sum_reduces_exponents_mod_order():
    assert RootSum(4, (5, -3, 6, 11)).exponents == (1, 1, 2, 3)
    with pytest.raises(ValueError):
        RootSum(0, (0,))
    with pytest.raises(ValueError):
        RootSum(4, ())


def test_root_sum_agrees_with_numeric_evaluation():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 360)
        size = rng.randint(1, 64)
        s = RootSum(n, tuple(rng.randrange(n) for _ in range(size)))
        # the sum of the roots in floats, a cross-check the exact test never reads
        numeric = abs(np.sum(np.exp(2j * np.pi * np.array(s.exponents) / n)))
        if root_sum_is_zero(s):
            assert numeric < 1e-9
        else:
            assert numeric > 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=120),
       st.lists(st.integers(min_value=-400, max_value=400), min_size=1, max_size=16),
       st.integers(min_value=-50, max_value=50))
def test_root_sum_zero_invariant_under_rotation(n, exps, shift):
    # adding a constant to every exponent multiplies the sum by a unit
    s = RootSum(n, tuple(exps))
    assert root_sum_is_zero(s) == root_sum_is_zero(s.shifted(shift))


def test_cyclotomic_matches_the_divide_out_reference():
    for n in range(1, 601):
        assert cyclotomic_polynomial(n) == reference_cyclotomic(n), n


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 301):
        expected = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected], n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=120),
       st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=24))
def test_root_sum_agrees_with_the_reference_on_multisets(n, exps):
    s = RootSum(n, tuple(exps))
    assert root_sum_is_zero(s) == reference_is_zero(s)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=180), st.data())
def test_root_sum_agrees_with_the_reference_on_coset_unions(n, data):
    # a rotated coset of the order-d subgroup sums to zero for d > 1; unions
    # of them vanish, and an extra term or a dropped one usually breaks that
    cosets = data.draw(st.lists(st.tuples(st.sampled_from(divisors(n)[1:]),
                                          st.integers(min_value=0, max_value=n - 1)),
                                min_size=1, max_size=4))
    exps = [c + j * (n // d) for d, c in cosets for j in range(d)]
    s = RootSum(n, tuple(exps))
    assert root_sum_is_zero(s) and reference_is_zero(s)
    extra = data.draw(st.integers(min_value=0, max_value=n - 1))
    for changed in (exps + [extra], exps[1:] or [extra]):
        t = RootSum(n, tuple(changed))
        assert root_sum_is_zero(t) == reference_is_zero(t)


def test_order_103680_is_decided_quickly():
    # 1 + zeta^7 at order 103,680 = 2^8 3^4 5: dividing by Phi_103680 took
    # over a minute; the subprocess timeout turns a stall into a failure
    code = ("from moranspec.exactmath import digit_sum_vanishes as v; "
            "print(v(103680, range(2), 7), v(103680, range(2), 51840))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_the_exact_layers_import_no_float_library():
    # every verdict of these modules is computed in integers or rationals
    for name in ("exactmath", "hadamard", "classifier", "tiling"):
        tree = ast.parse((Path(SRC) / "moranspec" / f"{name}.py").read_text(encoding="utf-8"))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        assert not imported & {"numpy", "cmath"}, (name, sorted(imported))


def branch_names(branch):
    """Every Name id and Attribute attr in an expression or a list of statements."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for part in (branch if isinstance(branch, list) else [branch])
            for node in ast.walk(part)}


def test_only_measure_decides_the_integer_width():
    # INT64_SPAN is assigned once, in measure, and measure.int_width is the one
    # conditional that picks int64 or Python integers (object arrays)
    assigned, choosers = [], []
    for path in sorted((Path(SRC) / "moranspec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [path.stem for target in targets
                             if "INT64_SPAN" in branch_names(target)]
            if (isinstance(node, (ast.If, ast.IfExp))
                    and {"int64", "object"} <= branch_names(node.body) | branch_names(node.orelse)):
                choosers.append(path.stem)
    assert assigned == ["measure"]
    assert choosers == ["measure"]


def test_only_verify_builds_a_verdict():
    # both verification paths hand their differences to one place, which
    # builds the SpectrumVerification
    builders = []
    for path in sorted((Path(SRC) / "moranspec").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            builders += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                         if isinstance(node, ast.Call)
                         and "SpectrumVerification" in branch_names(node.func)]
    assert builders == [("spectra", "verify_spectrum_finite")]
