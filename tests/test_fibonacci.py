"""Unit tests for sequences, the golden field and quaternion norm analysis."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

from cdalgebra import fibonacci as fibmod
from cdalgebra.algebra import AlgebraSignature, as_rational
from cdalgebra.fibonacci import (GoldenNumber, QuaternionParams, binet_residual, energy, fib,
                                 fib_norm_direct, fib_norm_formula, fibonacci_quaternion,
                                 golden_power, invertibility_threshold)
from oracles import FractionGolden, settle_index, threshold


class TestFib:
    def test_base_cases(self):
        assert fib(0) == 0
        assert fib(1) == 1

    def test_small_values(self):
        assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_big_value_is_exact(self):
        assert fib(300) == (fib(299) + fib(298))
        assert fib(100) == 354224848179261915075

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_memo_stays_bounded(self):
        # The memo is whole from import on, and no call grows it.
        assert len(fibmod._fib_cache) == fibmod.FIB_MEMO
        fib(10 ** 5)
        assert len(fibmod._fib_cache) == fibmod.FIB_MEMO

    def test_recurrence_across_the_memo_bound(self):
        for n in range(fibmod.FIB_MEMO - 3, fibmod.FIB_MEMO + 4):
            assert fib(n) == fib(n - 1) + fib(n - 2)

    def test_large_values_satisfy_doubling(self):
        # F(2k) = F(k) * (2 F(k+1) - F(k)), each side computed separately.
        for k in (fibmod.FIB_MEMO - 1, fibmod.FIB_MEMO, 5003, 50000):
            assert fib(2 * k) == fib(k) * (2 * fib(k + 1) - fib(k))
        a, b = 0, 1
        for n in range(1200):
            assert fibmod._fib_doubling(n) == (a, b)
            a, b = b, a + b


class TestIndices:
    """Every public index is checked once: integer types give the int
    answer, bools and floats raise TypeError, negatives ValueError."""

    PARAMS = QuaternionParams(1, 1)
    CALLS = (fib, binet_residual,
             lambda n: fibonacci_quaternion(n, TestIndices.PARAMS),
             lambda n: fib_norm_direct(n, TestIndices.PARAMS),
             lambda n: fib_norm_formula(n, TestIndices.PARAMS))

    def test_numpy_integers_give_the_int_answer(self):
        for call in self.CALLS:
            for n in (0, 1, 40, 60, fibmod.FIB_MEMO - 1, 1500):
                got, want = call(np.int64(n)), call(n)
                assert got == want and repr(got) == repr(want), (call, n)

    def test_formula_at_a_numpy_index_is_the_exact_int(self):
        for n in (40, 60):
            got = fib_norm_formula(np.int64(n), self.PARAMS)
            assert type(got) is int and got == fib_norm_direct(n, self.PARAMS) == 3 * fib(2 * n + 3)

    def test_bools_and_floats_are_refused(self):
        for call in self.CALLS:
            for bad in (True, False):
                with pytest.raises(TypeError, match="not bool"):
                    call(bad)
            with pytest.raises(TypeError):
                call(3.0)

    def test_negative_rejected(self):
        for call in self.CALLS:
            with pytest.raises(ValueError, match=">= 0"):
                call(-1)


class TestHoradam:
    """The closed form read as Horadam sequences: the Fibonacci recurrence
    started at h_0 = p, h_1 = q, whose n-th term is p*f(n-1) + q*f(n)."""

    def test_alternative_start_convention_is_wrong(self):
        # Reading the superscripts as (h_1, h_2) instead of (h_0, h_1)
        # breaks the closed form, which pins the convention in use.
        params = QuaternionParams(2, 3)
        n = 1
        a1, a2 = params.alpha1, params.alpha2
        shifted = ((1 + 2 * a2) * fib(2 * n) + 3 * a2 * fib(2 * n + 1)
                   + (a1 - 1) * ((1 + 2 * a2) * fib(2 * n + 1) + a2 * fib(2 * n + 2))
                   - 2 * (a1 - 1) * (1 + a2) * fib(n) * fib(n + 1))
        assert shifted != fib_norm_direct(n, params)
        assert fib_norm_formula(n, params) == fib_norm_direct(n, params)


class TestGoldenNumber:
    def test_defining_relation(self):
        a = GoldenNumber(0, 1)
        assert a * a == a + 1

    @pytest.mark.parametrize("x", [3, -7, Fraction(3, 2), Fraction(-5, 9)])
    def test_a_rational_value_hashes_like_the_rational(self, x):
        g = GoldenNumber(x, 0)
        assert g == x and hash(g) == hash(x)
        assert len({g, x}) == 1
        assert {x: "x"}[g] == "x" and {g: "g"}[x] == "g"

    def test_product_expansion(self):
        rng = random.Random(13)
        for _ in range(100):
            x = GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            y = GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            prod = x * y
            assert prod.u == x.u * y.u + x.v * y.v
            assert prod.v == x.u * y.v + x.v * y.u + x.v * y.v

    def test_powers_are_fibonacci_combinations(self):
        a = GoldenNumber(0, 1)
        assert golden_power(0) == 1 == a ** 0
        acc = a
        for n in range(1, 301):
            p = golden_power(n)
            assert p == GoldenNumber(fib(n - 1), fib(n)) == a ** n == acc
            assert (p.u, p.v) == (fib(n - 1), fib(n))
            acc = acc * a

    def test_powers_match_repeated_products(self):
        rng = random.Random(37)
        for _ in range(60):
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else 0
            x, acc = GoldenNumber(u, v), FractionGolden(1)
            for n in range(13):
                got = x ** n
                assert (got.u, got.v) == (acc.u, acc.v), (x, n)
                assert got._den > 0 and gcd(got._nu, got._nv, got._den) == 1
                acc = acc * FractionGolden(u, v)

    def test_canonical_form(self):
        # Integer numerators over one denominator, in lowest terms.
        for (u, v), form in (((0, 0), (0, 0, 1)), ((3, -4), (3, -4, 1)),
                             ((Fraction(1, 2), Fraction(1, 3)), (3, 2, 6)),
                             ((Fraction(-6, 4), 2), (-3, 4, 2)),
                             ((Fraction(5, 6), Fraction(-7, 6)), (5, -7, 6))):
            x = GoldenNumber(u, v)
            assert (x._nu, x._nv, x._den) == form
        # Results reduce: 1/2 + 1/2 is 1, and (1/2 + a/2) * 2 is 1 + a.
        half = GoldenNumber(Fraction(1, 2))
        assert ((half + half)._nu, (half + half)._nv, (half + half)._den) == (1, 0, 1)
        x = GoldenNumber(Fraction(1, 2), Fraction(1, 2)) * 2
        assert (x._nu, x._nv, x._den) == (1, 1, 1)
        x = GoldenNumber(Fraction(1, 3), 1) * Fraction(-3, 2)
        assert (x._nu, x._nv, x._den) == (-1, -3, 2)

    def test_results_match_the_fraction_oracle_in_lowest_terms(self):
        rng = random.Random(31)

        def draw():
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else 0
            return GoldenNumber(u, v), FractionGolden(u, v)

        for _ in range(500):
            (x, xo), (y, yo) = draw(), draw()
            c = rng.choice([3, -2, Fraction(-5, 6), Fraction(4, 9)])
            for got, want in ((x + y, xo + yo), (x - y, xo - yo), (-x, -xo), (x * y, xo * yo),
                              (x * c, xo * c), (c * x, xo * c), (x + c, xo + c),
                              (c - x, FractionGolden(c) - xo)):
                assert (got.u, got.v) == (want.u, want.v)
                assert got._den > 0 and gcd(got._nu, got._nv, got._den) == 1
                assert got.sign() == want.sign()

    def test_coordinates_read_as_fractions(self):
        for x in (GoldenNumber(3, 4), GoldenNumber(Fraction(1, 2), -1), golden_power(7),
                  fibmod.energy(QuaternionParams(2, 3)), GoldenNumber(2) * GoldenNumber(0, 1)):
            assert type(x.u) is Fraction and type(x.v) is Fraction
            assert x == GoldenNumber(x.u, x.v)

    def test_equality_and_hash_against_ints_and_fractions(self):
        for x, value in ((GoldenNumber(3), 3), (GoldenNumber(Fraction(6, 4)), Fraction(3, 2)),
                         (GoldenNumber(Fraction(3, 2)) + GoldenNumber(Fraction(1, 2)), 2),
                         (GoldenNumber(0, 1) * 0, 0)):
            assert x == value and value == x and hash(x) == hash(value)
            assert x == Fraction(value) and hash(x) == hash(Fraction(value))
        # A nonzero a-part equals no rational; equal values hash equal.
        x = GoldenNumber(Fraction(1, 2), Fraction(1, 3))
        assert x != Fraction(1, 2) and x != 0
        y = GoldenNumber(Fraction(1, 6), 0) * 3 + GoldenNumber(0, Fraction(2, 6))
        assert x == y and hash(x) == hash(y)
        assert x != GoldenNumber(Fraction(1, 2), Fraction(1, 4))

    def test_pickle_round_trip(self):
        for x in (GoldenNumber(), GoldenNumber(-7, 2), GoldenNumber(Fraction(5, 6), Fraction(-7, 6)),
                  golden_power(90)):
            back = pickle.loads(pickle.dumps(x))
            assert back == x and hash(back) == hash(x) and repr(back) == repr(x)
            assert (back._nu, back._nv, back._den) == (x._nu, x._nv, x._den)
            assert back.sign() == x.sign()

    @pytest.mark.parametrize("n, error, message", [
        (True, TypeError, "not bool"), (False, TypeError, "not bool"),
        (2.0, TypeError, None), (-1, ValueError, "exponent must be >= 0")])
    def test_exponent_is_an_index(self, n, error, message):
        # A bool would stand for the exponent 0 or 1.
        with pytest.raises(error, match=message):
            golden_power(n)
        assert golden_power(np.int64(5)) == golden_power(5)

    def test_sign_positive_cases(self):
        assert GoldenNumber(1, 0).sign() == 1
        assert GoldenNumber(0, 1).sign() == 1
        assert GoldenNumber(-1, 1).sign() == 1       # a - 1 > 0
        assert GoldenNumber(-3, 2).sign() == 1       # 2a > 3
        assert GoldenNumber(2, -1).sign() == 1       # 2 - a > 0

    def test_sign_negative_cases(self):
        assert GoldenNumber(-2, 1).sign() == -1      # a < 2
        assert GoldenNumber(0, -1).sign() == -1
        assert GoldenNumber(1, -1).sign() == -1      # 1 - a < 0
        assert GoldenNumber(-5, 3).sign() == -1      # 3a < 5

    def test_sign_zero_only_at_origin(self):
        assert GoldenNumber(0, 0).sign() == 0
        assert GoldenNumber(0, 0).is_zero()

    def test_sign_against_numeric_reference(self):
        rng = random.Random(14)
        golden = (1 + 5 ** 0.5) / 2
        for _ in range(300):
            u = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            v = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            value = float(u) + float(v) * golden
            if abs(value) < 1e-9:
                continue
            assert GoldenNumber(u, v).sign() == (1 if value > 0 else -1)

    def test_integer_product_keeps_fraction_parts_and_text(self):
        x = GoldenNumber(1, 2) * GoldenNumber(3, 4)
        assert (x.u, x.v) == (11, 18)
        assert type(x.u) is Fraction and type(x.v) is Fraction
        assert repr(x) == "GoldenNumber(11, 18)"
        assert str(x) == "11 + 18a"
        y = GoldenNumber(1, 2) * GoldenNumber(Fraction(1, 2), -3)
        assert y == GoldenNumber(Fraction(-11, 2), -8)
        assert repr(y) == "GoldenNumber(-11/2, -8)"

    def test_text_of_a_rational_and_of_a_pure_golden_number(self):
        # v = 0 prints u alone; u = 0 prints the golden part alone, with its
        # sign.  A non-integer golden coefficient is parenthesized, so that
        # (13/15)a does not read as 13/(15a).
        texts = {GoldenNumber(0, 0): "0", GoldenNumber(Fraction(3, 11), 0): "3/11",
                 GoldenNumber(Fraction(-1, 2), 0): "-1/2", GoldenNumber(0, 1): "a",
                 GoldenNumber(0, 2): "2a", GoldenNumber(0, Fraction(1, 2)): "(1/2)a",
                 GoldenNumber(0, -1): "-a", GoldenNumber(0, Fraction(-3, 10)): "-(3/10)a",
                 GoldenNumber(Fraction(-1, 5), Fraction(-13, 15)): "-1/5 - (13/15)a"}
        assert {x: str(x) for x in texts} == texts

    def test_arithmetic_with_plain_numbers(self):
        x = GoldenNumber(1, 2)
        assert x + 1 == GoldenNumber(2, 2)
        assert x - Fraction(1, 2) == GoldenNumber(Fraction(1, 2), 2)
        for scalar, want in ((3, GoldenNumber(3, 6)),
                             (Fraction(1, 2), GoldenNumber(Fraction(1, 2), 1))):
            for y in (x * scalar, scalar * x):
                assert y == want
                assert type(y.u) is Fraction and type(y.v) is Fraction

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2"])
    def test_inexact_coordinates_refused(self, bad):
        with pytest.raises(TypeError):
            GoldenNumber(bad, 0)
        with pytest.raises(TypeError):
            GoldenNumber(1, bad)
        with pytest.raises(TypeError):
            GoldenNumber(1, 2) + bad
        with pytest.raises(TypeError):
            GoldenNumber(1, 2) * bad
        with pytest.raises(TypeError):
            bad * GoldenNumber(1, 2)

    def test_bools_are_not_equal_numbers(self):
        # The ints 1 and 0 are; bools compare unequal in either order.
        for x, flag in ((GoldenNumber(1), True), (GoldenNumber(0), False)):
            assert x == int(flag) and int(flag) == x
            assert not x == flag and not flag == x
            assert x != flag and flag != x


class TestFibonacciQuaternion:
    def test_first_coefficients(self):
        params = QuaternionParams(1, 1)
        assert fibonacci_quaternion(0, params).coeffs == (0, 1, 1, 2)
        assert fibonacci_quaternion(1, params).coeffs == (1, 1, 2, 3)

    def test_coefficients_across_the_memo_boundary(self):
        params = QuaternionParams(1, 1)
        for n in [*range(fibmod.FIB_MEMO - 5, fibmod.FIB_MEMO + 6), 10 ** 5]:
            assert fibonacci_quaternion(n, params).coeffs == tuple(
                fib(n + i) for i in range(4))

    def test_conjugate_flips_imaginary_parts(self):
        params = QuaternionParams(2, 3)
        for n in (0, 3, 7):
            x = fibonacci_quaternion(n, params)
            assert x.conjugate().coeffs == (
                fib(n), -fib(n + 1), -fib(n + 2), -fib(n + 3))

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuaternionParams(0, 1)

    def test_signature_is_built_once(self):
        params = QuaternionParams(Fraction(-1, 3), Fraction(2, 5))
        sig = params.signature()
        assert params.signature() is sig
        assert sig.gammas == (Fraction(1, 3), Fraction(-2, 5))

    def test_signature_and_form_survive_pickle_copy_and_replace(self):
        params = QuaternionParams(Fraction(-1, 3), Fraction(2, 5))
        fib_norm_direct(4, params)
        others = ((pickle.loads(pickle.dumps(params)), (Fraction(-1, 3), Fraction(2, 5))),
                  (copy.copy(params), (Fraction(-1, 3), Fraction(2, 5))),
                  (copy.deepcopy(params), (Fraction(-1, 3), Fraction(2, 5))),
                  (QuaternionParams(params.alpha1, 7), (Fraction(-1, 3), 7)))
        for other, (a1, a2) in others:
            assert (other.alpha1, other.alpha2) == (a1, a2)
            sig = other.signature()
            assert sig == AlgebraSignature(2, (-a1, -a2))
            assert other._form == fibmod._closed_form(*sig._kernel()[2::2])
            assert other._form == fibmod._closed_form(*fibmod._scaled_constants((-a1, -a2))[1:])
            for n in (0, 5, 40):
                assert fib_norm_formula(n, other) == fib_norm_direct(n, other)

    def test_cached_signature_is_not_part_of_the_value(self):
        used, fresh = QuaternionParams(2, 3), QuaternionParams(2, 3)
        fib_norm_direct(4, used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "QuaternionParams(alpha1=2, alpha2=3)"
        copy = pickle.loads(pickle.dumps(used))
        assert copy == used
        assert fib_norm_direct(4, copy) == fib_norm_direct(4, used)

    def test_norm_is_diagonal_form(self):
        rng = random.Random(15)
        for _ in range(50):
            a1 = Fraction(rng.choice([x for x in range(-9, 10) if x]),
                          rng.randint(1, 9))
            a2 = Fraction(rng.choice([x for x in range(-9, 10) if x]),
                          rng.randint(1, 9))
            params = QuaternionParams(a1, a2)
            n = rng.randrange(0, 20)
            expected = (fib(n) ** 2 + a1 * fib(n + 1) ** 2
                        + a2 * fib(n + 2) ** 2 + a1 * a2 * fib(n + 3) ** 2)
            assert fib_norm_direct(n, params) == expected


class TestNormFormulas:
    def test_unit_parameter_values(self):
        params = QuaternionParams(1, 1)
        assert fib_norm_direct(0, params) == 6
        assert fib_norm_direct(1, params) == 15

    def test_unit_parameters_give_triple_fibonacci(self):
        params = QuaternionParams(1, 1)
        for n in range(41):
            assert fib_norm_direct(n, params) == 3 * fib(2 * n + 3)
            assert fib_norm_formula(n, params) == 3 * fib(2 * n + 3)

    def test_integer_parameter_value(self):
        assert fib_norm_direct(2, QuaternionParams(2, 3)) == 186

    def test_integer_sum_matches_fraction_form(self):
        # The closed form as Fractions over shifted sequences, term by term.
        def fraction_form(n, params):
            a1, a2 = params.alpha1, params.alpha2
            first = (1 + 2 * a2) * fib(2 * n + 1) + 3 * a2 * fib(2 * n + 2)
            second = (1 + 2 * a2) * fib(2 * n + 2) + a2 * fib(2 * n + 3)
            return as_rational(first + (a1 - 1) * second
                               - 2 * (a1 - 1) * (1 + a2) * fib(n) * fib(n + 1))

        rng = random.Random(21)
        cases = [(n, QuaternionParams(a1, a2)) for n in (0, 1, 2)
                 for a1, a2 in ((1, 1), (2, 3), (-1, -1), (Fraction(1, 2), -3))]
        for _ in range(300):
            cases.append((rng.randrange(0, 400), QuaternionParams(
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)),
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)))))
        for n, params in cases:
            got, want = fib_norm_formula(n, params), fraction_form(n, params)
            assert got == want and type(got) is type(want), (n, params)

    def test_formula_matches_direct(self):
        rng = random.Random(16)
        for _ in range(150):
            params = QuaternionParams(
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)),
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)))
            n = rng.randrange(0, 31)
            assert fib_norm_formula(n, params) == fib_norm_direct(n, params)


class TestEnergy:
    def test_unit_parameters(self):
        e = energy(QuaternionParams(1, 1))
        assert e == GoldenNumber(Fraction(9, 5), Fraction(12, 5))
        assert e.sign() == 1

    def test_integer_form_matches_fraction_form(self):
        rng = random.Random(24)
        pairs = [(0, 0), (-1, 0), (0, Fraction(2, 7)), ("1/2", "-3")]
        pairs += [(Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
                  for _ in range(200)]
        for a1, a2 in pairs:
            a1, a2 = Fraction(a1), Fraction(a2)
            want = GoldenNumber((1 + a1 + 2 * a2 + 5 * a1 * a2) / 5,
                                (a1 + 3 * a2 + 8 * a1 * a2) / 5)
            assert energy((a1, a2)) == want
            if a1 and a2:
                assert energy(QuaternionParams(a1, a2)) == want

    def test_zero_parameters_allowed_for_the_coefficient(self):
        assert energy((0, 0)) == GoldenNumber(Fraction(1, 5), 0)
        assert energy((0, 0)).sign() == 1
        e = energy((-1, 0))
        assert e == GoldenNumber(0, Fraction(-1, 5))
        assert e.sign() == -1

    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_inexact_parameters_refused(self, bad):
        for params in ((bad, 1), (1, bad)):
            with pytest.raises(TypeError):
                energy(params)

    def test_pair_of_any_other_length_rejected(self):
        for params in ((), (1,), (1, 2, 3)):
            with pytest.raises(ValueError):
                energy(params)

    def test_never_zero_for_rational_parameters(self):
        # The vanishing locus has irrational coordinates, so exact
        # rational parameters cannot hit it.
        rng = random.Random(17)
        for _ in range(500):
            a1 = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            a2 = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if energy((a1, a2)).is_zero():
                pytest.fail(f"energy vanished at rational point ({a1}, {a2})")


def _downward_scan(params, n_max, norms=None):
    """The threshold as a scan of every norm from n_max down: the oracle.

    ``norms`` optionally holds the norms for these params, or positive
    multiples of them: the scan reads signs only.
    """
    target = energy(params).sign()
    threshold = None
    for n in range(n_max, -1, -1):
        norm = norms[n] if norms else fib_norm_direct(n, params)
        matches = norm != 0 and (1 if norm > 0 else -1) == target
        if not matches:
            return threshold
        threshold = n
    return threshold


def _nonzero_rational(rng):
    return Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))


# Settle index n1 = 7, 5, 5 and 5; thresholds 6, 5, 5 and 4.
LATE_SETTLING = ((Fraction(-2, 5), Fraction(-1, 8)), (Fraction(-3, 8), Fraction(1, 9)),
                 (Fraction(-3, 8), Fraction(1, 2)), (-3, Fraction(-1, 7)))


class TestInvertibilityThreshold:
    N_MAX_GRID = (0, 1, 2, 3, 5, 8, 200)

    def test_matches_the_downward_scan_for_every_window(self):
        rng = random.Random(22)
        for _ in range(2000):
            params = QuaternionParams(_nonzero_rational(rng), _nonzero_rational(rng))
            # The diagonal form times den(a1) * den(a2) > 0, in integers.
            (p1, q1), (p2, q2) = (params.alpha1.as_integer_ratio(),
                                  params.alpha2.as_integer_ratio())
            f = [fib(n) for n in range(204)]
            norms = [q1 * q2 * f[n] ** 2 + p1 * q2 * f[n + 1] ** 2
                     + q1 * p2 * f[n + 2] ** 2 + p1 * p2 * f[n + 3] ** 2
                     for n in range(201)]
            for n_max in self.N_MAX_GRID:
                assert invertibility_threshold(params, n_max) == \
                    _downward_scan(params, n_max, norms), (params, n_max)

    def test_norms_from_the_settle_index_have_the_energy_sign(self):
        rng = random.Random(23)
        pairs = [QuaternionParams(a1, a2) for a1, a2 in LATE_SETTLING]
        pairs += [QuaternionParams(_nonzero_rational(rng), _nonzero_rational(rng))
                  for _ in range(150)]
        for params in pairs:
            e = energy(params)
            n1 = fibmod._settle_index(params)
            for n in range(n1, 81):
                norm = fib_norm_direct(n, params)
                assert norm != 0 and (1 if norm > 0 else -1) == e.sign(), (params, n)

    def test_settle_index_and_threshold_match_the_fraction_oracle(self):
        rng = random.Random(32)
        pairs = [*LATE_SETTLING, (1, 1), (-1, -1), (2, -3), (-9, 9)]
        pairs += [(rng.choice([x for x in range(-9, 10) if x]),
                   rng.choice([x for x in range(-9, 10) if x])) for _ in range(40)]
        pairs += [(_nonzero_rational(rng), _nonzero_rational(rng)) for _ in range(200)]
        for a1, a2 in pairs:
            params = QuaternionParams(a1, a2)
            assert fibmod._settle_index(params) == settle_index(params), params
            for n_max in (0, 2, 7, 200):
                assert invertibility_threshold(params, n_max) == threshold(params, n_max), \
                    (params, n_max)

    def test_late_settling_parameters(self):
        for (a1, a2), (n1, n0) in zip(LATE_SETTLING, ((7, 6), (5, 5), (5, 5), (5, 4))):
            params = QuaternionParams(a1, a2)
            assert fibmod._settle_index(params) == n1
            assert invertibility_threshold(params, 200) == n0
            for n_max in range(12):
                assert invertibility_threshold(params, n_max) == \
                    _downward_scan(params, n_max), (params, n_max)

    def test_settle_index_matches_the_oracle_on_the_grid(self):
        # 3,000 seeded pairs, numerators in +-1..9 and denominators in 1..9.
        rng = random.Random(33)
        for _ in range(3000):
            params = QuaternionParams(_nonzero_rational(rng), _nonzero_rational(rng))
            assert fibmod._settle_index(params) == settle_index(params), params

    def test_the_settle_cap_is_reached(self):
        # For 5*D*E = +-1 and z = 0 the cap is 1 bit, and n1 is 1: at n = 0
        # both sides are 1, at n = 1 the left is a**2.
        for u in (1, -1):
            form = SimpleNamespace(_form=(u, 0, 0, 1))
            assert fibmod._settle_index(form) == 1

    def test_a_failing_cap_raises(self, monkeypatch):
        # Zero energy never settles, and neither does a sign read wrong; the
        # bisection stops at the cap instead of looping.
        with pytest.raises(ArithmeticError, match="cap 0"):
            fibmod._settle_index(SimpleNamespace(_form=(0, 0, 3, 1)))
        params = QuaternionParams(*LATE_SETTLING[0])
        monkeypatch.setattr(GoldenNumber, "sign", lambda self: -1)
        with pytest.raises(ArithmeticError, match="no settle index"):
            fibmod._settle_index(params)

    def test_unit_parameters_stable_from_start(self):
        assert invertibility_threshold(QuaternionParams(1, 1), 50) == 0

    def test_split_parameters(self):
        params = QuaternionParams(-1, -1)
        n0 = invertibility_threshold(params, 200)
        assert n0 is not None
        e_sign = energy(params).sign()
        for n in range(n0, 201):
            norm = fib_norm_direct(n, params)
            assert norm != 0
            assert (1 if norm > 0 else -1) == e_sign

    def test_threshold_is_minimal(self):
        rng = random.Random(18)
        for _ in range(10):
            params = QuaternionParams(
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)),
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)))
            n0 = invertibility_threshold(params, 200)
            assert n0 is not None
            if n0 > 0:
                prev = fib_norm_direct(n0 - 1, params)
                sign = 0 if prev == 0 else (1 if prev > 0 else -1)
                assert sign != energy(params).sign()

    def test_unstabilized_window_returns_none(self):
        # A window that ends before the sign settles reports no threshold.
        found = None
        rng = random.Random(19)
        for _ in range(500):
            params = QuaternionParams(
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)),
                Fraction(rng.choice([x for x in range(-9, 10) if x]),
                         rng.randint(1, 9)))
            norm0 = fib_norm_direct(0, params)
            sign0 = 0 if norm0 == 0 else (1 if norm0 > 0 else -1)
            if sign0 != energy(params).sign():
                found = params
                break
        assert found is not None
        assert invertibility_threshold(found, 0) is None

    def test_window_is_an_index(self):
        params = QuaternionParams(1, 1)
        for bad in (True, False):
            with pytest.raises(TypeError, match="not bool"):
                invertibility_threshold(params, n_max=bad)
        with pytest.raises(TypeError):
            invertibility_threshold(params, n_max=50.0)
        assert invertibility_threshold(params, n_max=np.int64(50)) == \
            invertibility_threshold(params, n_max=50)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            invertibility_threshold(QuaternionParams(1, 1), -1)

    def test_zero_energy_rejected(self, monkeypatch):
        # Unreachable through rational parameters, so force it.
        monkeypatch.setattr(fibmod, "energy", lambda params: GoldenNumber(0, 0))
        with pytest.raises(ValueError):
            invertibility_threshold(QuaternionParams(1, 1), 10)


class TestConcurrency:
    def test_fib_memo_is_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        indices = list(range(400, 0, -1)) * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fib, indices))
        assert results == [fib(n) for n in indices]

    def test_shared_elements_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        params = QuaternionParams(2, 3)
        xs = [fibonacci_quaternion(n, params) for n in range(8)]

        def work(pair):
            x, y = pair
            return (x * y).norm()

        pairs = [(x, y) for x in xs for y in xs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(work, pairs))
        assert concurrent == [work(p) for p in pairs]


class TestBinet:
    def test_first_power(self):
        check = binet_residual(1)
        assert check.holds
        assert (check.power_u, check.power_v) == (0, 1)

    def test_exact_through_forty(self):
        for n in (0, 1, 2, 10, 25, 40):
            check = binet_residual(n)
            assert check.holds
            assert check.residual == 0
            assert check.power_v == fib(n)
