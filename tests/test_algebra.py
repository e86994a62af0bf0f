"""Unit tests for signatures, elements and the doubling product."""

import ast
import copy
import dataclasses
import inspect
import pickle
import random
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from cdalgebra import algebra
from cdalgebra.algebra import (AlgebraSignature, Convention, Element, _conj, _Frozen,
                               as_rational, make_algebra, octonions, quadratic_check,
                               quaternions, sedenions)
from cdalgebra.fibonacci import BinetCheck, GoldenNumber, QuaternionParams, binet_residual
from cdalgebra.residue import (Representatives, ResidueField, UElement, WGenerator, make_w,
                               residue_field)
from cdalgebra.suites import GAMMA_POOL, run_twist_suite
from cdalgebra.twist import (PowerRowReport, ProductCell, TwistCoefficient, TwistTable,
                             basis_product, build_table, check_power_row_claim)
from oracles import _mul, power_left_nested

RIGHT = Convention.CONJUGATE_RIGHT
LEFT = Convention.CONJUGATE_LEFT


def _golden_gen():
    return make_w(2, (1, 2, 3), (1, 1, 1, 1))


def _golden_field():
    return residue_field(_golden_gen().element(-1, 2))


def _elements(t):
    """Depth-t elements over mixed parameters, at den 1 and den 2."""
    sig = make_algebra(t, [Fraction(-1, 2) if i % 2 else -3 for i in range(t)])
    n = sig.dimension
    return [sig.element([i - 3 for i in range(n)]),
            sig.element([Fraction(i - 3, 2) for i in range(n)])]


def _signatures():
    kept = quaternions()
    kept._kernel()  # fills the lazily kept slot
    return [make_algebra(3, [-1, Fraction(2, 3), 5], LEFT), kept]


# Every immutable value type, each case a factory of a few instances.
FROZEN_VALUES = [
    pytest.param(_signatures, id="signature"),
    *(pytest.param(lambda t=t: _elements(t), id=str(t)) for t in (0, 2, 9)),
    *(pytest.param(lambda conv=conv: [build_table(3, conv)], id=f"table-{conv.value}")
      for conv in Convention),
    pytest.param(lambda: [GoldenNumber(Fraction(-11, 2), 8), GoldenNumber(1)], id="golden"),
    pytest.param(lambda: [_golden_gen()], id="wgenerator"),
    pytest.param(lambda: [_golden_gen().element(-1, 2), _golden_gen().element(3, 0)],
                 id="uelement"),
    pytest.param(lambda: [_golden_field()], id="field-p13"),
    pytest.param(lambda: [TwistCoefficient(-1, 5),
                          basis_product(13, 11, make_algebra(4, [-1] * 4))[0]],
                 id="twist-coefficient"),
    pytest.param(lambda: list(check_power_row_claim(1, 2, 3, 5).cells), id="product-cell"),
    pytest.param(lambda: [check_power_row_claim(1, 2, 3, 5)], id="power-row-report"),
    pytest.param(lambda: [QuaternionParams(2, Fraction(-1, 3)), QuaternionParams(-1, -1)],
                 id="quaternion-params"),
    pytest.param(lambda: [binet_residual(0), binet_residual(7)], id="binet-check"),
]


class TestMakeAlgebra:
    def test_quaternion_signature(self):
        sig = make_algebra(2, [-1, -1], RIGHT)
        assert sig.t == 2
        assert sig.dimension == 4
        assert sig.gammas == (-1, -1)

    def test_octonion_signature(self):
        assert make_algebra(3, [-1, -1, -1], RIGHT).dimension == 8

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            make_algebra(1, [0], RIGHT)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_algebra(2, [-1], RIGHT)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            make_algebra(-1, [], RIGHT)

    def test_base_field_case(self):
        sig = make_algebra(0, [], RIGHT)
        assert sig.dimension == 1
        assert (sig.scalar(3) * sig.scalar(Fraction(1, 3))).coeffs == (1,)

    def test_basis_index_out_of_range(self):
        H = make_algebra(2, [-1, -1], RIGHT)
        for p in (4, -1, 1 << 40):
            with pytest.raises(ValueError, match="out of range for dimension 4"):
                H.basis(p)

    def test_scalar_skips_the_public_constructor(self, monkeypatch):
        sig = make_algebra(3, [-1, 2, Fraction(1, 3)], RIGHT)
        want = [sig.scalar(c) for c in (0, 5, Fraction(-6, 4), Fraction(4, 2))]

        def refuse(self, *args):
            raise AssertionError("validated a scalar's coefficients again")
        monkeypatch.setattr(Element, "__init__", refuse)
        got = [sig.scalar(c) for c in (0, 5, Fraction(-6, 4), Fraction(4, 2))]
        assert got == want
        assert [x.coeffs[0] for x in got] == [0, 5, Fraction(-3, 2), 2]
        assert type(got[3].coeffs[0]) is int
        with pytest.raises(TypeError):
            sig.scalar(0.5)

    def test_float_scalars_rejected(self):
        with pytest.raises(TypeError):
            make_algebra(1, [-1.0], RIGHT)
        with pytest.raises(TypeError):
            quaternions().element([0.5, 0, 0, 0])

    def test_element_requires_a_signature(self):
        for bad in (5, None, quaternions().one()):
            with pytest.raises(TypeError, match="expected an AlgebraSignature, got "):
                Element(bad, [1])

    def test_depth_must_be_an_int(self):
        with pytest.raises(TypeError):
            make_algebra(2.0, [-1, -1])
        for bad in (True, False):
            with pytest.raises(TypeError, match="not bool"):
                make_algebra(bad, [-1] * bad)

    def test_numpy_depth_is_stored_as_an_int(self):
        sig = make_algebra(np.int64(2), [-1, -1])
        assert type(sig.t) is int
        assert sig == quaternions() and hash(sig) == hash(quaternions())


class TestVectorSpace:
    def test_add(self):
        H = quaternions()
        assert (H.one() + H.basis(1)).coeffs == (1, 1, 0, 0)

    def test_scalar_mul_zero(self):
        H = quaternions()
        x = H.element([3, -2, 1, 7])
        assert (0 * x).is_zero()

    def test_additive_inverse(self):
        H = quaternions()
        x = H.element([3, Fraction(1, 2), -1, 7])
        assert (x + (-1) * x).is_zero()
        assert x - x == H.zero()

    def test_operators_refuse_other_operands(self):
        # Each operator returns NotImplemented for a non-element operand it
        # does not take, so Python raises TypeError.
        x = quaternions().element([1, 2, 3, 4])
        for apply in (lambda: x + 1, lambda: x - 1, lambda: 1 - x, lambda: x * "a",
                      lambda: "a" * x, lambda: x ** 1.5):
            with pytest.raises(TypeError):
                apply()

    def test_signature_mismatch(self):
        x = quaternions().one()
        y = octonions().one()
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y
        # Equal dimension, different parameters or convention: nothing but
        # the signature check stops the product.
        a = quaternions().element([1, 2, 3, 4])
        for other in (make_algebra(2, [-1, 2]), quaternions(LEFT)):
            b = other.element([5, 6, 7, 8])
            for left, right in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="different algebras"):
                    left * right
        # An equal signature that is a distinct object multiplies as the same.
        twin = quaternions().element([5, 6, 7, 8])
        assert twin.signature is not a.signature
        assert a * twin == a * a.signature.element([5, 6, 7, 8])

    def test_repr_terms(self):
        # The scalar alone, a unit coefficient as its basis name, others as c*e_p.
        H = quaternions()
        texts = {H.zero(): "<0>", -H.basis(2): "<-e2>",
                 H.element([1, -1, 0, 2]): "<1 - e1 + 2*e3>",
                 H.element([0, -1, Fraction(-1, 2), -1]): "<-e1 - 1/2*e2 - e3>"}
        assert {x: repr(x) for x in texts} == texts

    def test_coefficient_index_refuses_bool(self):
        # A bool would silently read coefficient 0 or 1.
        x = quaternions().element([5, 6, 7, 8])
        for bad in (True, False):
            with pytest.raises(TypeError, match="not bool"):
                x[bad]
        assert (x[np.int64(1)], x[-1], (Fraction(1, 2) * x)[2]) == (6, 8, Fraction(7, 2))

    def test_elements_immutable(self):
        x = quaternions().one()
        with pytest.raises(AttributeError):
            x.coeffs = (2, 0, 0, 0)


class TestMultiplication:
    def test_imaginary_unit_squares(self):
        H = quaternions()
        assert H.basis(1) * H.basis(1) == H.scalar(-1)

    def test_unit_element(self):
        rng = random.Random(3)
        for t in range(5):
            sig = make_algebra(t, [-1] * t, RIGHT)
            x = sig.element([rng.randint(-9, 9) for _ in range(sig.dimension)])
            assert sig.one() * x == x
            assert x * sig.one() == x

    def test_convention_pins_basis_sign(self):
        # The two doubling variants disagree elementwise on basis pairs.
        H = quaternions(RIGHT)
        assert H.basis(1) * H.basis(2) == H.basis(3)
        H31 = quaternions(LEFT)
        assert H31.basis(1) * H31.basis(2) == -H31.basis(3)

    def test_bilinear(self):
        rng = random.Random(4)
        sig = make_algebra(3, [2, -3, Fraction(1, 2)], RIGHT)
        for _ in range(20):
            x, y, z = (sig.element([rng.randint(-5, 5) for _ in range(8)])
                       for _ in range(3))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert (x + y) * z == x * z + y * z
            assert x * (y + z) == x * y + x * z
            assert (c * x) * y == c * (x * y)

    def test_general_gamma_square(self):
        sig = make_algebra(1, [Fraction(5, 7)], RIGHT)
        assert sig.basis(1) * sig.basis(1) == sig.scalar(Fraction(5, 7))


class TestInvolution:
    def test_conjugate_unit(self):
        H = quaternions()
        assert H.one().conjugate() == H.one()

    def test_conjugate_pure_basis(self):
        for sig in (quaternions(), octonions(), sedenions()):
            for p in range(1, sig.dimension):
                assert sig.basis(p).conjugate() == -sig.basis(p)

    def test_involution(self):
        rng = random.Random(5)
        for t in (1, 2, 3, 4):
            sig = make_algebra(t, [rng.choice([-1, 2, Fraction(1, 3)])
                                   for _ in range(t)], RIGHT)
            x = sig.element([rng.randint(-9, 9) for _ in range(sig.dimension)])
            assert x.conjugate().conjugate() == x

    def test_antiautomorphism(self):
        rng = random.Random(6)
        sig = sedenions()
        for _ in range(25):
            x = sig.element([rng.randint(-4, 4) for _ in range(16)])
            y = sig.element([rng.randint(-4, 4) for _ in range(16)])
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()


class TestTraceNorm:
    def test_trace_values(self):
        H = quaternions()
        assert H.one().trace() == 2
        assert H.basis(2).trace() == 0
        assert H.element([3, 1, 0, 0]).trace() == 6

    def test_norm_values(self):
        H = quaternions()
        assert H.one().norm() == 1
        assert H.basis(1).norm() == 1

    def test_norm_matches_product_with_conjugate(self):
        rng = random.Random(7)
        for t in (1, 2, 3, 4):
            sig = make_algebra(t, [rng.choice([-1, -2, 3]) for _ in range(t)],
                               rng.choice(list(Convention)))
            for _ in range(30):
                x = sig.element([rng.randint(-9, 9) for _ in range(sig.dimension)])
                prod = x * x.conjugate()
                assert prod.coeffs[0] == x.norm()
                assert not any(prod.coeffs[1:])

    def test_norm_with_fractional_coeffs(self):
        H = quaternions()
        x = H.element([Fraction(1, 2), Fraction(1, 3), 0, 1])
        assert x.norm() == Fraction(1, 4) + Fraction(1, 9) + 1


class TestInverse:
    def test_inverse_of_unit(self):
        H = quaternions()
        assert H.one().inverse() == H.one()

    def test_inverse_of_imaginary_unit(self):
        H = quaternions()
        assert H.basis(1).inverse() == -H.basis(1)

    def test_two_sided(self):
        rng = random.Random(8)
        for t in (1, 2, 3):
            sig = make_algebra(t, [-1] * t, RIGHT)
            x = sig.element([rng.randint(1, 9) for _ in range(sig.dimension)])
            assert x * x.inverse() == sig.one()
            assert x.inverse() * x == sig.one()

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            quaternions().zero().inverse()

    def test_sedenion_zero_divisor_is_invertible(self):
        # e1 + e10 annihilates e4 - e15, yet its norm is 2: only a zero
        # norm blocks the inverse.
        S = sedenions()
        x = S.basis(1) + S.basis(10)
        assert (x * (S.basis(4) - S.basis(15))).is_zero()
        assert x.norm() == 2
        assert x.inverse() == Fraction(-1, 2) * x
        assert x * x.inverse() == x.inverse() * x == S.one()

    def test_norm_zero_sedenion_not_invertible(self):
        # Nonzero element whose norm vanishes through a sign split.
        sig = make_algebra(4, [1, -1, -1, -1], RIGHT)
        x = sig.element([1, 1] + [0] * 14)
        assert not x.is_zero()
        assert x.norm() == 0
        with pytest.raises(ZeroDivisionError):
            x.inverse()


class TestQuadraticIdentity:
    def test_unit(self):
        assert quadratic_check(quaternions().one())

    def test_random_quaternions(self):
        rng = random.Random(9)
        H = quaternions()
        for _ in range(100):
            assert quadratic_check(H.element([rng.randint(-9, 9) for _ in range(4)]))

    def test_random_sedenions(self):
        rng = random.Random(10)
        sig = sedenions()
        for _ in range(50):
            assert quadratic_check(sig.element([rng.randint(-9, 9)
                                                for _ in range(16)]))


class TestPowers:
    """``Element.__pow__`` (the Lucas sequence of the trace and norm) against
    ``oracles.power_left_nested``."""

    @staticmethod
    def _elements(t, conv, rng):
        """Three depth-t elements over rational parameters: rational, integer, sparse."""
        sig = make_algebra(t, [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                               for _ in range(t)], conv)
        n = sig.dimension
        return [sig.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]),
                sig.element([rng.randint(-3, 3) for _ in range(n)]),
                sig.basis(n - 1) * Fraction(-2, 3) + sig.scalar(Fraction(1, 2))]

    def test_left_nested_matches_binary(self):
        rng = random.Random(11)
        sig = octonions()
        x = sig.element([rng.randint(-3, 3) for _ in range(8)])
        for k in (0, 1, 2, 5):
            acc = sig.one()
            for _ in range(k):
                acc = acc * x
            assert x ** k == acc

    def test_powers_match_the_left_nested_oracle(self):
        rng = random.Random(41)
        for t in range(1, 7):
            for conv in Convention:
                for x in self._elements(t, conv, rng):
                    for n in range(13):
                        assert x ** n == power_left_nested(x, n), (t, conv, x, n)

    def test_exponent_laws_at_depths_eight_and_twelve(self):
        for t in (8, 12):
            sig = make_algebra(t, [Fraction(-1, 2) if i % 3 else 3 for i in range(t)])
            top = sig.dimension - 1
            x = (sig.scalar(2) - sig.basis(1) + Fraction(1, 3) * sig.basis(top)
                 + 5 * sig.basis(top >> 1))
            for m, n in ((0, 5), (1, 1), (3, 4), (7, 5), (12, 2)):
                assert x ** (m + n) == x ** m * x ** n, (t, m, n)
                assert (x ** m) ** n == x ** (m * n), (t, m, n)

    def test_a_large_power_is_exact(self):
        # x = s + v with v pure, v*v = -norm(v), so x**n = a + b*v where
        # (a + b*j) = (s + j)**n with j*j = -norm(v), by squaring pairs.
        sig = make_algebra(12, [-1] * 12)
        x = 3 * sig.one() + sig.basis(5) - 2 * sig.basis(1000) + sig.basis(4095)
        s, v = x.scalar_part(), x - x.scalar_part() * sig.one()
        m = v.norm()
        n = 10 ** 5
        a, b, base_a, base_b, k = 1, 0, s, 1, n
        while k:
            if k & 1:
                a, b = a * base_a - m * b * base_b, a * base_b + b * base_a
            base_a, base_b = base_a * base_a - m * base_b * base_b, 2 * base_a * base_b
            k >>= 1
        y = x ** n
        assert y == a * sig.one() + b * v
        half = x ** (n // 2)
        assert half * half == y

    def test_negative_exponents_are_powers_of_the_inverse(self):
        rng = random.Random(43)
        for t in (0, 2, 3, 5):
            for conv in Convention:
                for x in self._elements(t, conv, rng):
                    if x.norm() == 0:
                        continue
                    for n in range(1, 6):
                        assert x ** -n == power_left_nested(x.inverse(), n), (t, x, n)

    def test_negative_exponent_rejected(self):
        # Only where the norm is zero: 1 + e1 in the split quaternions.
        x = make_algebra(2, [1, -1]).element([1, 1, 0, 0])
        assert x.norm() == 0 and x ** 0 == x.signature.one()
        with pytest.raises(ZeroDivisionError, match="norm zero"):
            x ** -1

    @pytest.mark.parametrize("k, error, message", [
        (True, TypeError, "not bool"), (False, TypeError, "not bool"),
        (2.0, TypeError, None)])
    def test_exponent_is_an_index(self, k, error, message):
        x = quaternions().element([1, 2, 3, 4])
        with pytest.raises(error, match=message):
            x ** k
        assert x ** np.int64(2) == x * x


class TestKernel:
    """Element products (the structure-constant kernel, at every depth)
    against the doubling recursion ``oracles._mul``."""

    MIXED = (2, -3, Fraction(5, 7), Fraction(-1, 2), 11, -1, Fraction(3, 4), 5,
             Fraction(-9, 4), -7, Fraction(2, 9), 3)

    @staticmethod
    def _pairs(sig, rng):
        """Dense, rational, basis, two-term and zero operands, paired.

        The dense operand has no zero coefficient, so products with it
        take the straight-line function at depths 2-5 and the product by
        halves at 6-8, and sparse ones from depth 4 the support loop.  At
        depths 7 and 8 one dense pair stands for the rest: the recursion
        takes 0.05-0.2 s for each.
        """
        n = sig.dimension
        dense = sig.element([rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(n)])
        rational = sig.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                if rng.random() < 0.3 else rng.randint(-9, 9)
                                for _ in range(n)])
        basis = sig.basis(rng.randrange(n))
        two_term = (sig.basis(rng.randrange(n))
                    - Fraction(2, 3) * sig.basis(rng.randrange(n)))
        operands = [dense, rational, basis, two_term, sig.zero()]
        pairs = [(x, y) for i, x in enumerate(operands) for j, y in enumerate(operands)
                 if sig.t < 7 or i >= 2 or j >= 2]
        if sig.t >= 7:
            pairs.append((dense, rational))
        return pairs

    @staticmethod
    def _mismatches(pairs):
        """Pairs whose product differs from the recursion's, value or type."""
        bad = []
        for x, y in pairs:
            sig = x.signature
            a, b = x.coeffs, y.coeffs
            if sig.convention is LEFT:
                a, b = b, a
            want = Element(sig, _mul(a, b, sig.gammas)).coeffs
            got = (x * y).coeffs
            if got != want or list(map(type, got)) != list(map(type, want)):
                bad.append((x, y))
        return bad

    def _signatures(self, t, rng):
        """Both conventions, with GAMMA_POOL and with mixed rational parameters."""
        return [make_algebra(t, gammas, conv) for conv in Convention
                for gammas in ([rng.choice(GAMMA_POOL) for _ in range(t)], self.MIXED[:t])]

    @staticmethod
    def _operands(sig, rng):
        """An integer and a rational operand with nonzero norm.

        From depth 7 on they are nonzero at one index in eight, so that
        the recursion they are checked against stays fast.
        """
        n = sig.dimension
        support = range(n) if sig.t < 7 else rng.sample(range(n), n // 8)
        operands = []
        for rational in (False, True):
            while True:
                coeffs = [0] * n
                for p in support:
                    coeffs[p] = rng.randint(-9, 9)
                    if rational and rng.random() < 0.3:
                        coeffs[p] = Fraction(coeffs[p], rng.randint(2, 9))
                x = sig.element(coeffs)
                if x.norm() != 0:
                    operands.append(x)
                    break
        return operands

    def test_norm_is_the_product_with_the_conjugate(self):
        rng = random.Random(23)
        for t in range(10):
            for sig in self._signatures(t, rng):
                for x in self._operands(sig, rng):
                    want = as_rational(_mul(x.coeffs, _conj(x.coeffs), sig.gammas)[0])
                    got = x.norm()
                    assert (got, type(got)) == (want, type(want)), (sig, x)

    def test_inverse_gives_the_unit_under_the_recursion(self):
        rng = random.Random(24)
        for t in range(9):
            for sig in self._signatures(t, rng):
                for x in self._operands(sig, rng):
                    inv = x.inverse()
                    n = Fraction(x.norm())
                    want = [as_rational(c / n) for c in _conj(x.coeffs)]
                    assert list(inv.coeffs) == want, (sig, x)
                    assert list(map(type, inv.coeffs)) == list(map(type, want))
                    a, b = x.coeffs, inv.coeffs
                    if sig.convention is LEFT:
                        a, b = b, a
                    unit = list(map(as_rational, _mul(a, b, sig.gammas)))
                    assert unit == list(sig.one().coeffs), (sig, x)
                    assert all(type(c) is int for c in unit)

    def test_equal_signatures_bind_their_own_kernels(self):
        # Two equal signatures made apart each bind a kernel on first use:
        # their own constants tuple, the depth's shared functions.  Products
        # across the two, norms and inverses all match the recursion, for
        # dense operands (eight terms above depth 6, where the recursion is
        # slow) and sparse ones, integer and rational.
        rng = random.Random(33)
        for t in range(10):
            n = 1 << t
            for conv in Convention:
                for gammas in ((-1,) * t, self.MIXED[:t]):
                    first, second = (make_algebra(t, gammas, conv) for _ in range(2))
                    dense = n if t <= 6 else 8
                    operands = []
                    for sig, support, rational in ((first, dense, False), (second, dense, True),
                                                   (second, min(n, 2), False), (first, 1, True)):
                        coeffs = [0] * n
                        for p in rng.sample(range(n), support):
                            coeffs[p] = rng.choice((1, -1)) * rng.randint(1, 9)
                            if rational and p % 2:
                                coeffs[p] = Fraction(coeffs[p], rng.randint(2, 5))
                        operands.append(sig.element(coeffs))
                    a, b, c, d = operands
                    pairs = [(a, b), (b, a), (a, c), (c, d), (d, b), (b, c)]
                    assert self._mismatches(pairs) == [], (t, conv, gammas)
                    for x in operands:
                        want = as_rational(_mul(x.coeffs, _conj(x.coeffs), gammas)[0])
                        assert x.norm() == want, (t, conv, gammas, x)
                        if want:
                            inv = [as_rational(Fraction(v) / want) for v in _conj(x.coeffs)]
                            assert list(x.inverse().coeffs) == inv, (t, conv, gammas, x)
                    # (product, args, D, norm, weights, conjugate)
                    kernels = first._scaled, second._scaled
                    assert kernels[0][1] is not kernels[1][1]
                    assert kernels[0][2::2] == kernels[1][2::2]  # D and weights
                    assert all(kernels[0][i] is kernels[1][i] for i in (0, 3, 5)), t

    def test_depth_30_basis_product_builds_no_constants(self):
        # 2**31 scaled constants would not fit; basis_product never asks.
        sig = make_algebra(30, [Fraction(-1, 2)] * 30, LEFT)
        p, q = (1 << 29) | 5, (3 << 27) | 6
        assert basis_product(p, q, sig)[1] == p ^ q
        assert not hasattr(sig, "_scaled")

    def test_matches_recursion(self):
        rng = random.Random(20)
        for t in range(1, 9):
            for conv in Convention:
                for gammas in ([rng.choice(GAMMA_POOL) for _ in range(t)],
                               self.MIXED[:t]):
                    sig = make_algebra(t, gammas, conv)
                    assert self._mismatches(self._pairs(sig, rng)) == [], \
                        (t, conv, gammas)

    def test_dense_products_are_exact_past_64_bits(self):
        # Coefficients near 2**40 fit in int64 but their products do not;
        # near 10**30 they fit in no machine word.
        rng = random.Random(25)
        for t in range(4, 9):
            for conv in Convention:
                sig = make_algebra(t, self.MIXED[:t], conv)
                for size in (1 << 40, 10 ** 30):
                    x, y = (sig.element([rng.choice((1, -1)) * (size + rng.randint(-99, 99))
                                         for _ in range(sig.dimension)]) for _ in range(2))
                    assert self._mismatches([(x, y), (Fraction(1, 3) * x, y)]) == [], \
                        (t, conv, size)

    def test_straight_line_depths_match_recursion(self):
        # Depths 1-5, where the written-out and generated products run:
        # dense and sparse operands, small and past 2**64, of both signs.
        rng = random.Random(27)
        for t in range(1, 6):
            n = 1 << t
            for conv in Convention:
                for gammas in ((-1,) * t, self.MIXED[:t]):
                    sig = make_algebra(t, gammas, conv)
                    operands = []
                    for base in (0, 1 << 70):
                        for support in sorted({1, 2, n // 4 or 1, n // 2, n - 1, n}):
                            coeffs = [0] * n
                            for p in rng.sample(range(n), support):
                                coeffs[p] = rng.choice((1, -1)) * (base + rng.randint(1, 9))
                            operands.append(sig.element(coeffs))
                    pairs = [(x, y) for x in operands for y in rng.sample(operands, 4)]
                    pairs.append((Fraction(-2, 3) * operands[-1], operands[-2]))
                    assert self._mismatches(pairs) == [], (t, conv, gammas)

    def test_sparse_products_above_the_code_depth_match_recursion(self):
        # Depths 9-12, where the pair loop reads _coefficient, not codes.
        rng = random.Random(28)
        for t in range(9, 13):
            n = 1 << t
            for conv in Convention:
                for gammas in ((-1,) * t, self.MIXED[:t]):
                    sig = make_algebra(t, gammas, conv)
                    operands = []
                    for support in (1, 2, 4, 16):
                        coeffs = [0] * n
                        for p in rng.sample(range(n), support):
                            coeffs[p] = rng.choice((1, -1)) * rng.randint(1, 9)
                        operands.append(sig.element(coeffs))
                    # Each support meets the next; the recursion takes up to
                    # 0.15 s for a pair of 16 terms at t = 12.
                    pairs = list(zip(operands, operands[1:] + operands[:1]))
                    pairs.append((Fraction(-2, 3) * operands[-1], operands[-2]))
                    assert self._mismatches(pairs) == [], (t, conv, gammas)

    def test_dense_products_by_halves_up_to_depth_ten(self, monkeypatch):
        # One dense pair a depth, split by halves down to the generated depth-5
        # product.  At t = 7 and 9 a stage above 5 has a denominator (3/4,
        # -9/4); at t = 10 the parameters are -1: under rational ones the
        # recursion takes 0.9 s rather than 0.5 s.
        rng = random.Random(29)
        for t, conv in zip(range(6, 11), (RIGHT, LEFT, RIGHT, LEFT, LEFT)):
            straight = self._fresh_straight(monkeypatch)
            sig = make_algebra(t, self.MIXED[:t] if t in (7, 9) else (-1,) * t, conv)
            x, y = (sig.element([rng.choice((1, -1)) * rng.randint(1, 9)
                                 for _ in range(sig.dimension)]) for _ in range(2))
            assert self._mismatches([(x, y)]) == [], t
            assert straight.cache_info().currsize == 1, t
            monkeypatch.undo()

    def test_norms_share_the_generated_products_cache(self, monkeypatch):
        # Up to depth 5, norm and inverse read the code compiled with the
        # (dense) product, one cache entry per depth; above it they compile
        # nothing.
        rng = random.Random(31)
        for t in range(1, 8):
            straight = self._fresh_straight(monkeypatch)
            sig = make_algebra(t, self.MIXED[:t], RIGHT)
            shallow = t <= algebra.STRAIGHT_MAX_DEPTH
            for x in self._operands(sig, rng):
                x.norm()
                assert straight.cache_info().currsize == shallow, t
                x.inverse()
                if shallow:
                    x * x
            assert straight.cache_info().currsize == shallow, t
            monkeypatch.undo()

    def test_four_term_products_at_depth_twelve_match_the_pair_oracle(self):
        # The support scan of the pair loop above the code depth, against
        # the sum over support pairs of the pointwise structure constants.
        rng = random.Random(32)
        t = 12
        n = 1 << t
        for conv in Convention:
            sig = make_algebra(t, self.MIXED[:t], conv)
            for _ in range(3):
                terms = [{p: rng.choice((1, -1)) * rng.randint(1, 9)
                          for p in rng.sample(range(n), 4)} for _ in range(2)]
                x, y = (sig.element(map(support.get, range(n), [0] * n))
                        for support in terms)
                want = [0] * n
                for p, xp in terms[0].items():
                    for q, yq in terms[1].items():
                        coeff, k = basis_product(p, q, sig)
                        want[k] += xp * yq * coeff.value(sig.gammas)
                assert (x * y).coeffs == tuple(map(as_rational, want)), conv

    @staticmethod
    def _fresh_straight(monkeypatch):
        """An empty stand-in for the cache of the generated products."""
        straight = lru_cache(maxsize=None)(algebra._straight.__wrapped__)
        monkeypatch.setattr(algebra, "_straight", straight)
        return straight

    @staticmethod
    def _counted_straight(monkeypatch):
        """An empty cache of generated products whose product functions record
        their depth on each call.

        A signature binds its kernel on first use, so one made after this
        stand-in is installed calls the counted products.
        """
        calls = []
        compile_depth = algebra._straight.__wrapped__

        @lru_cache(maxsize=None)
        def straight(t):
            product, norm, conjugate = compile_depth(t)

            def counted(xs, ys, signed):
                calls.append(t)
                return product(xs, ys, signed)
            return counted, norm, conjugate
        monkeypatch.setattr(algebra, "_straight", straight)
        return calls

    def test_both_sides_of_the_support_pair_switch(self, monkeypatch):
        # Against a full operand, the pair loop runs for supports up to s
        # and the generated function from s + 1 on, bound in the kernel at
        # t = 4-5 and reached by halves at t = 6, 8, 9 and 10; all read the
        # same structure constants.  t = 8 is the last depth whose pair loop
        # reads codes (up to n * (n + 8) // 2 = 33,792 pairs).  Above depth 8
        # the pair loop calls _coefficient, and the halves take over past
        # n**2 / 32 pairs.  At t = 8-10 the parameters are -1: under rational
        # ones the recursion takes about 0.2 s for each of the eight products
        # at t = 9.
        rng = random.Random(26)
        for t, s, gammas in ((4, 2, self.MIXED[:4]), (5, 5, self.MIXED[:5]),
                             (6, 36, self.MIXED[:6]), (8, 132, (-1,) * 8),
                             (9, 16, (-1,) * 9), (10, 32, (-1,) * 10)):
            n = 1 << t
            for conv in Convention:
                calls = self._counted_straight(monkeypatch)
                sig = make_algebra(t, gammas, conv)
                full = sig.element([rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(n)])
                for support in (s, s + 1):
                    coeffs = [0] * n
                    for p in rng.sample(range(n), support):
                        coeffs[p] = rng.choice((1, -1)) * rng.randint(1, 9)
                    part = sig.element(coeffs)
                    calls.clear()
                    assert self._mismatches([(full, part), (part, full)]) == [], \
                        (t, conv, support)
                    assert bool(calls) == (support > s), (t, conv, support)
                    assert set(calls) <= {min(t, algebra.STRAIGHT_MAX_DEPTH)}, (t, conv)
                monkeypatch.undo()

    def test_dense_products_build_no_codes_above_depth_five(self, monkeypatch):
        # The pair loop looks its code table up on each call, so at t = 6-8
        # a dense product (by halves onto the depth-5 product) builds no
        # table above depth 5, and a sparse one builds its own depth's only
        # (the depths in between were built one step before, in one cache).
        built = []
        build = algebra._codes.__wrapped__

        @lru_cache(maxsize=None)
        def codes(t):
            built.append(t)
            return build(t)
        monkeypatch.setattr(algebra, "_codes", codes)
        self._fresh_straight(monkeypatch)
        rng = random.Random(33)
        for t in range(6, algebra.KERNEL_MAX_DEPTH + 1):
            sig = make_algebra(t, (-1,) * t)
            dense, sparse = ([rng.choice((1, -1)) * rng.randint(1, 9) if p < support else 0
                              for p in range(sig.dimension)] for support in (sig.dimension, 3))
            x, y = sig.element(dense), sig.element(sparse)
            built.clear()
            assert self._mismatches([(x, x)]) == [], t
            assert max(built, default=0) <= algebra.STRAIGHT_MAX_DEPTH, (t, built)
            built.clear()
            assert self._mismatches([(y, y)]) == [], t
            assert built == [t], (t, built)

    def test_dense_products_import_no_numpy(self):
        # By halves, a dense product reads no table above depth 5 and no array.
        src = str(Path(algebra.__file__).resolve().parents[1])
        script = ("import sys\n"
                  f"sys.path.insert(0, {src!r})\n"
                  "from cdalgebra.algebra import make_algebra\n"
                  "for t in range(6, 11):\n"
                  "    sig = make_algebra(t, [-1] * t)\n"
                  "    x = sig.element(range(1, sig.dimension + 1))\n"
                  "    assert (x * x).scalar_part() == -sum(c * c for c in x.coeffs[1:]) + 1\n"
                  "assert 'numpy' not in sys.modules, 'a dense product imported numpy'\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_sparse_products_import_no_numpy(self):
        # Two- and four-term operands take the pair loop: over the codes at
        # t = 6-8, through _coefficient at t = 9-12.  Neither reads an array.
        src = str(Path(algebra.__file__).resolve().parents[1])
        script = f"""if True:
            import random, sys
            sys.path.insert(0, {src!r})
            from fractions import Fraction
            from cdalgebra import algebra
            from cdalgebra.twist import basis_product
            calls = []
            coefficient = algebra._coefficient
            def counted(p, q):
                calls.append((p, q))
                return coefficient(p, q)
            algebra._coefficient = counted
            rng = random.Random(39)
            for t in range(6, 13):
                sig = algebra.make_algebra(t, [Fraction(-1, 2) if i % 3 else 3 for i in range(t)])
                n = sig.dimension
                for size in (2, 4):
                    xs, ys = ({{p: rng.randint(-9, 9) or 1 for p in rng.sample(range(n), size)}}
                              for _ in range(2))
                    want = [0] * n
                    for p, a in xs.items():
                        for q, b in ys.items():
                            coeff, k = basis_product(p, q, sig)
                            want[k] += a * b * coeff.value(sig.gammas)
                    x, y = (sig.element([c.get(p, 0) for p in range(n)]) for c in (xs, ys))
                    calls.clear()
                    assert list((x * y).coeffs) == want, (t, size)
                    assert len(calls) == (size * size if t > algebra.KERNEL_MAX_DEPTH else 0), t
            assert 'numpy' not in sys.modules, 'a sparse product imported numpy'
            """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_codes_are_the_structure_constants(self):
        # The doubled codes against two independent derivations: the
        # pointwise coefficient and the sign-plane doubling of build_table.
        for t in range(1, 9):
            n = 1 << t
            table = build_table(t)
            masks = table.gamma_masks  # built on each read
            for k, row in enumerate(algebra._codes(t)):
                assert len(row) == n, (t, k)
                for p, code in enumerate(row):
                    sign, mask = algebra._coefficient(p, p ^ k)
                    assert code == 2 * mask + (sign < 0), (t, k, p)
                    assert code == (2 * int(masks[p, p ^ k])
                                    + (table.base_signs[p, p ^ k] < 0)), (t, k, p)

    @staticmethod
    def _flipped_codes(t, k, p):
        """``_codes`` with the sign bit of codes[k][p] flipped at depth t."""
        codes = algebra._codes
        codes(algebra.KERNEL_MAX_DEPTH)  # every depth doubled from true codes first
        bad = [row[:] for row in codes(t)]
        bad[k][p] ^= 1
        return lambda depth: bad if depth == t else codes(depth)

    @staticmethod
    def _flipped_coefficient(p, q):
        """``_coefficient`` with the sign of e_p * e_q flipped."""
        coefficient = algebra._coefficient

        def flipped(a, b):
            sign, mask = coefficient(a, b)
            return (-sign if (a, b) == (p, q) else sign), mask
        return flipped

    def test_corrupted_plane_is_caught(self, monkeypatch):
        # One flipped sign of e_2 * e_7 must show on every product path, each
        # with an empty cache of generated products and a signature whose
        # kernel is bound after the flip, and must not reach the twist
        # suite's structure-constant oracle: of its families only the octonion
        # table, whose products run on the kernel, sees the depth-3 flip.  The
        # seam is the code at the given depth, or the pointwise coefficient
        # (None: the pair loop above the code depth, sparse t = 9).  Dense operands call a generated product: the
        # kernel's at t = 3 and 5, by halves onto the depth-5 code at t = 7
        # and 9; sparse ones (t = 5 and 9) run the pair loop and call none.
        rng = random.Random(22)
        for t, support, seam in ((3, 8, 3), (5, 32, 5), (5, 4, 5), (7, 128, 5),
                                 (9, 4, None), (9, 512, 5)):
            if seam is None:
                monkeypatch.setattr(algebra, "_coefficient", self._flipped_coefficient(2, 7))
            else:
                monkeypatch.setattr(algebra, "_codes", self._flipped_codes(seam, 2 ^ 7, 2))
            calls = self._counted_straight(monkeypatch)
            sig = make_algebra(t, self.MIXED[:t], RIGHT)
            operands = []
            for must in (2, 7):
                coeffs = [0] * sig.dimension
                others = [p for p in range(sig.dimension) if p != must]
                for p in [must] + rng.sample(others, support - 1):
                    coeffs[p] = rng.choice((1, -1)) * rng.randint(1, 9)
                operands.append(sig.element(coeffs))
            assert self._mismatches([tuple(operands)]), (t, support)
            assert bool(calls) == (support == sig.dimension), (t, support)
            result = run_twist_suite(exhaustive_depth=3, random_pairs=10, table_depth=t)
            failing = {f.split(":")[0] for f in result.failures}
            assert failing == ({"octonion table"} if seam == 3 else set()), (t, support)
            monkeypatch.undo()


class TestStoredForm:
    """Elements are integer numerators over one denominator in lowest terms."""

    @staticmethod
    def _results(rng):
        """Elements reached by every route: built, products, inverses
        (negative norms included) and the vector operations."""
        out = []
        for t in range(5):
            for gammas in ((-1,) * t, (1,) * t, (2, Fraction(-1, 2), Fraction(3, 4), -3)[:t]):
                for conv in Convention:
                    sig = make_algebra(t, gammas, conv)
                    n = sig.dimension
                    x = sig.element([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
                                     for _ in range(n)])
                    y = sig.element([rng.randint(-6, 6) for _ in range(n)])
                    half = sig.element([Fraction(1, 2)] * n)
                    out += [x, y, x * y, y * x, x + y, x - y, half + half, -x,
                            x.conjugate(), Fraction(2, 3) * x, x * 4, 0 * x, x - x,
                            sig.basis(n - 1), sig.zero(), sig.one()]
                    out += [z.inverse() for z in (x, y, sig.basis(n - 1)) if z.norm() != 0]
        return out

    def test_canonical_invariants(self):
        results = self._results(random.Random(30))
        assert any(x.norm() < 0 for x in results)
        for x in results:
            nums, den = x._nums, x._den
            assert type(nums) is tuple and all(type(v) is int for v in nums)
            assert den > 0 and gcd(den, *nums) == 1, x
            assert (den == 1) == all(type(c) is int for c in x.coeffs), x
            assert list(x.coeffs) == [Fraction(v, den) for v in nums]

    def test_int_subclasses_are_stored_as_int(self):
        class K(IntEnum):
            A = 3
            M = -1

        x = quaternions().element([K.A, 1, 0, 0])
        assert [type(v) for v in x.coeffs] == [int] * 4 and x == quaternions().element([3, 1, 0, 0])
        sig = make_algebra(2, [K.M, K.M])
        assert [type(g) for g in sig.gammas] == [int, int] and sig == quaternions()
        assert repr(sig) == repr(quaternions())

    def test_fraction_subclasses_are_stored_as_fraction_or_int(self):
        class F(Fraction):
            pass

        assert [type(as_rational(v)) for v in (F(1, 2), F(3, 1))] == [Fraction, int]
        x = quaternions().element([F(1, 2), F(3, 1), 0, 0])
        assert [type(v) for v in x.coeffs] == [Fraction, int, int, int]
        assert x == quaternions().element([Fraction(1, 2), 3, 0, 0])
        sig = make_algebra(2, [F(1, 2), F(3, 1)])
        assert [type(g) for g in sig.gammas] == [Fraction, int]
        assert sig == make_algebra(2, [Fraction(1, 2), 3])
        assert repr(sig) == repr(make_algebra(2, [Fraction(1, 2), 3]))

    def test_integer_coeffs_are_the_numerators(self):
        x = quaternions().element([3, -2, 0, 1])
        assert x.coeffs is x._nums
        square = x * x
        assert square.coeffs is square._nums

    @pytest.mark.parametrize("a, b", [(Fraction(2, 4), Fraction(1, 2)), (Fraction(3, 1), 3)])
    def test_equal_scalars_give_equal_elements(self, a, b):
        H = quaternions()
        x, y = H.element([a, 1, 0, -1]), H.element([b, 1, 0, -1])
        assert x == y and hash(x) == hash(y)
        assert list(map(type, x.coeffs)) == list(map(type, y.coeffs))

    def test_results_equal_their_rebuilt_form(self):
        for x in self._results(random.Random(31)):
            rebuilt = x.signature.element(x.coeffs)
            assert x == rebuilt and hash(x) == hash(rebuilt), x
            assert list(map(type, x.coeffs)) == list(map(type, rebuilt.coeffs))

    @pytest.mark.parametrize("make", FROZEN_VALUES)
    def test_pickle_and_copy_round_trip(self, make):
        for x in make():
            restored = [pickle.loads(pickle.dumps(x, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for y in restored + [copy.copy(x), copy.deepcopy(x)]:
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
                if isinstance(x, Element):
                    assert list(map(type, y.coeffs)) == list(map(type, x.coeffs))
                if isinstance(x, TwistTable):
                    assert not y.base_signs.flags.writeable
                    assert not y.gamma_masks.flags.writeable
                if isinstance(x, ResidueField):
                    assert [y.label(u) for u in x.reps] == list(range(x.p))
                    assert [y.unlabel(k) for k in range(y.p)] == list(x.reps)
                names = ([f.name for f in dataclasses.fields(x)] if dataclasses.is_dataclass(x)
                         else type(x).__slots__)
                for name in names:
                    with pytest.raises(AttributeError):
                        setattr(y, name, None)
                    with pytest.raises(AttributeError):
                        delattr(y, name)
                assert y == x

    @staticmethod
    def _used_signatures():
        """Depth 0-9 signatures of both conventions, each with its kernel bound,
        and an element of each."""
        out = []
        for t in range(10):
            for conv in Convention:
                sig = make_algebra(t, [Fraction(-1, 2) if i % 2 else -3 for i in range(t)], conv)
                x = sig.basis(sig.dimension - 1) - Fraction(2, 3) * sig.one()
                x * x, x.norm(), x.inverse()
                assert hasattr(sig, "_scaled")
                out.append(x)
        return out

    def test_used_signature_pickles_and_copies_as_a_fresh_one(self):
        # The kernel holds generated functions: pickles and copies carry
        # (t, gammas, convention) alone, and the copy binds its own kernel.
        for x in self._used_signatures():
            sig = x.signature
            fresh = make_algebra(sig.t, sig.gammas, sig.convention)
            copies = [copy.copy(sig), copy.deepcopy(sig)]
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(sig, protocol)
                assert data == pickle.dumps(fresh, protocol), protocol
                copies.append(pickle.loads(data))
                copies.append(pickle.loads(pickle.dumps(x, protocol)).signature)
            want = (x * x, x.norm(), x.inverse())
            for y in copies:
                assert not hasattr(y, "_scaled")
                assert (y == sig, hash(y), repr(y)) == (True, hash(sig), repr(sig))
                z = y.element(x.coeffs)
                assert (z * z, z.norm(), z.inverse()) == want
                assert hasattr(y, "_scaled") and y._scaled[2::2] == sig._kernel()[2::2]

    def test_used_signature_pickles_load_in_a_fresh_interpreter(self):
        xs = self._used_signatures()
        src = str(Path(algebra.__file__).resolve().parents[1])
        script = ("import pickle, sys\n"
                  f"sys.path.insert(0, {src!r})\n"
                  "from cdalgebra.algebra import make_algebra\n"
                  "xs = pickle.loads(sys.stdin.buffer.read())\n"
                  "for x in xs:\n"
                  "    sig = x.signature\n"
                  "    fresh = make_algebra(sig.t, sig.gammas, sig.convention)\n"
                  "    assert not hasattr(sig, '_scaled')\n"
                  "    assert sig == fresh and hash(sig) == hash(fresh)\n"
                  "out = [(repr(x.signature), x * x, x.norm(), x.inverse()) for x in xs]\n"
                  "sys.stdout.buffer.write(pickle.dumps(out))\n")
        proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(xs),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert pickle.loads(proc.stdout) == [(repr(x.signature), x * x, x.norm(), x.inverse())
                                             for x in xs]

    def test_field_pickle_loads_in_a_fresh_interpreter(self):
        field = _golden_field()
        src = str(Path(algebra.__file__).resolve().parents[1])
        script = ("import pickle, sys\n"
                  f"sys.path.insert(0, {src!r})\n"
                  "field = pickle.loads(sys.stdin.buffer.read())\n"
                  "assert [field.label(u) for u in field.reps] == list(range(field.p))\n"
                  "sys.stdout.buffer.write(pickle.dumps(field))\n")
        proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(field),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert pickle.loads(proc.stdout) == field

    def test_invalid_coefficients_still_refused(self):
        H = quaternions()
        for bad in (0.5, True, False):
            with pytest.raises(TypeError):
                H.element([bad, 0, 0, 0])
        with pytest.raises(TypeError):
            H.one() * True
        for coeffs in ([1, 2, 3], [1, 2, 3, 4, 5], []):
            with pytest.raises(ValueError):
                H.element(coeffs)


def _written_out_cases():
    """(public value, the values of its class's stored slots) for every _Frozen type.

    The slot values are written out here, not read from the value, so that a
    constructor that stores a slot under the wrong name is seen."""
    sig = make_algebra(2, [-1, Fraction(1, 2)])
    gen = make_w(2, (1, 2, 3), (1, 1, 1, 1))
    signs = np.array([[1, 1], [1, -1]], dtype=np.int8)
    cell = ProductCell(4, 14, -1, 1, 10)
    cases = [
        (lambda: AlgebraSignature(2, [-1, Fraction(1, 2)], "eq31"),
         (2, (-1, Fraction(1, 2)), LEFT)),
        (lambda: Element(sig, [Fraction(1, 2), 1, 0, -3]), (sig, (1, 2, 0, -6), 2)),
        (lambda: TwistCoefficient(-1, 5), (-1, 5)),
        (lambda: TwistTable(1, "eq11", signs), (1, RIGHT, signs, None)),
        (lambda: ProductCell(row=4, col=14, claimed_sign=-1, actual_sign=1, actual_index=10),
         (4, 14, -1, 1, 10)),
        (lambda: PowerRowReport(1, 2, 3, 5, (cell,), (1, -1, -1, -1)),
         (1, 2, 3, 5, (cell,), (1, -1, -1, -1))),
        (lambda: GoldenNumber(Fraction(1, 2), Fraction(1, 3)), (3, 2, 6)),
        (lambda: QuaternionParams(Fraction(6, 3), -3),
         (2, -3, make_algebra(2, [-2, 3]), (-33, -55, 2, 1))),
        (lambda: BinetCheck(7, Fraction(8), Fraction(13), 8, 13),
         (7, Fraction(8), Fraction(13), 8, 13)),
        (lambda: WGenerator(gen.w), (gen.w, 2, 4)),
        (lambda: UElement(3, -4, gen), (3, -4, gen)),
        (lambda: Representatives([UElement(1, 2, gen), gen.element(0, -1)], gen),
         ([1, 0], [2, -1], gen)),
    ]
    return [pytest.param(make, slots, id=type(make()).__name__) for make, slots in cases]


WRITTEN_OUT = _written_out_cases()


def _takes_its_fields(cls) -> bool:
    """Whether the constructor's parameters are the fields, in order and none defaulted."""
    parameters = inspect.signature(cls).parameters.values()
    return [(p.name, p.default) for p in parameters] == [
        (field, inspect.Parameter.empty) for field in cls._fields]


def _same(a, b) -> bool:
    """Whether two slot values are the same: one object, or equal values of one type.

    Arrays are equal when their entries are: a TwistTable keeps a copy of a plane.
    """
    if isinstance(a, np.ndarray):
        return type(a) is type(b) and np.array_equal(a, b)
    return a is b or (type(a) is type(b) and a == b)


class TestWrittenOut:
    """Every _Frozen type is built by the one written-out rule: ``_new`` for
    internal results, ``_set`` behind the public constructor, and a record's
    ``__init__`` over its fields."""

    def test_every_frozen_type_has_a_case(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)
        made = {type(case.values[0]()) for case in WRITTEN_OUT}
        assert made == set(subclasses(_Frozen))

    @pytest.mark.parametrize("make, slots", WRITTEN_OUT)
    def test_new_holds_what_the_public_constructor_holds(self, make, slots):
        x = make()
        cls = type(x)
        y = cls._new(*slots)
        assert type(y) is cls and y == x
        stored = [name for name in cls.__slots__ if name not in cls._transient]
        assert len(slots) == len(stored)
        for name, value in zip(stored, slots):
            assert _same(getattr(y, name), value) and _same(getattr(x, name), value), name
        for name in cls._transient:
            assert not hasattr(x, name) and not hasattr(y, name), name

    @pytest.mark.parametrize("make, slots", WRITTEN_OUT)
    def test_equality_and_hash_read_every_field_and_no_other_slot(self, make, slots):
        # One stored slot replaced at a time: a field makes another value, a
        # derived slot (QuaternionParams' signature and form) does not.
        x = make()
        cls = type(x)
        stored = [name for name in cls.__slots__ if name not in cls._transient]
        for k, name in enumerate(stored):
            y = cls._new(*slots[:k], object(), *slots[k + 1:])
            if name in cls._fields:
                assert x != y and y != x, name
            else:
                assert x == y and hash(x) == hash(y), name

    @pytest.mark.parametrize("make", [pytest.param(case.values[0], id=case.id)
                                      for case in WRITTEN_OUT
                                      if _takes_its_fields(type(case.values[0]()))])
    def test_a_record_takes_its_fields_as_a_dataclass_does(self, make):
        x = make()
        cls, fields, values = type(x), x._fields, x._values(x)
        named = dict(zip(fields, values))
        assert cls(*values) == cls(**named) == cls(values[0], **dict(list(named.items())[1:])) == x
        wrong = [
            (values[:-1], {}, f"missing 1 required positional argument: '{fields[-1]}'"),
            ((*values, values[0]), {}, "takes [0-9]+ positional arguments but [0-9]+ were given"),
            (values, {"extra": 1}, "got an unexpected keyword argument 'extra'"),
            (values, {fields[0]: values[0]}, f"got multiple values for argument '{fields[0]}'"),
        ]
        for args, kwargs, message in wrong:
            with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) {message}$"):
                cls(*args, **kwargs)


def test_readme_quick_start():
    """Each expression in the README's Quick start evaluates to the value
    its comment starts with."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            value = eval(code, namespace)
            assert comment.strip().startswith(repr(value)), line
            shown.append(repr(value))
        else:
            exec(code, namespace)
    assert shown == ["Fraction(57, 4)", "True", "<-155/4 - 41/2*e1 + 123/4*e2 - 41/8*e3>",
                     "True", "<0>", "<-2/21>"]


def test_readme_lists_the_public_names():
    """``cdalgebra.__all__`` is README's list of public names and ``__version__``,
    each name under the module that defines it."""
    import cdalgebra
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = [(name, module) for module, names in
              re.findall(r"^- `cdalgebra\.(\w+)`: (.*(?:\n  .*)*)", section, re.M)
              for name in re.findall(r"`(\w+)`", names)]
    assert sorted(cdalgebra.__all__) == sorted([name for name, _ in listed] + ["__version__"])
    assert dict(listed) == cdalgebra._HOME
