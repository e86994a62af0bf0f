"""Unit tests for integer subrings, modulo reduction, fields and labelling."""

import dataclasses
import gc
import logging
import operator
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from oracles import round_quotient

from cdalgebra import residue as resmod
from cdalgebra.algebra import MAX_FIELD_DEPTH, Convention, Element, make_algebra, quaternions
from cdalgebra.residue import (MAX_FIELD_SIZE, ResidueField, UElement, WGenerator,
                               decode_symbols,
                               encode_symbols, four_square_root, is_prime_u,
                               make_w, residue_field, u_mod)


def fraction_round(x: Fraction) -> int:
    """Ties-away rounding through Fraction, as u_mod rounded before."""
    if x < 0:
        return -fraction_round(-x)
    floor, rem = divmod(x.numerator, x.denominator)
    return floor + (1 if 2 * rem >= x.denominator else 0)


def fraction_u_mod(x, y):
    """u_mod with the quotient rounded through Fraction (the oracle)."""
    n = y.norm()
    prod = x * y.conjugate()
    za, zb = fraction_round(Fraction(prod.a, n)), fraction_round(Fraction(prod.b, n))
    best = x - y.gen.element(za, zb) * y
    if abs(best.norm()) >= abs(n):
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                cand = x - y.gen.element(za + da, zb + db) * y
                if abs(cand.norm()) < abs(best.norm()):
                    best = cand
    return best


def class_minimum(x, y) -> int:
    """The least norm of x - z*y over integer quotients z = za + zb*w near x / y,
    for a definite generator, by search.  The nearest z has zb within 1.5 of the
    exact quotient's w-coordinate and za within 1.5*|k| + 2 of its other one,
    k = q // 2 (round in the reduced basis (1, w - k)); the window is wider."""
    gen, n = y.gen, y.norm()
    prod = x * y.conjugate()
    za, zb = fraction_round(Fraction(prod.a, n)), fraction_round(Fraction(prod.b, n))
    reach = 2 * abs(gen.q) + 4
    return min((x - gen.element(za + da, zb + db) * y).norm()
               for da in range(-reach, reach + 1) for db in range(-2, 3))


@pytest.fixture(scope="module")
def golden_gen():
    return make_w(2, (1, 2, 3), (1, 1, 1, 1))


@pytest.fixture(scope="module")
def golden_field(golden_gen):
    return residue_field(golden_gen.element(-1, 2))


def integer_remainder(gen, a: int, n: int) -> int:
    """u_mod(a + 0w, n + 0w): its quotient is round(a/n), ties away from zero, and
    its remainder a - round(a/n)*n has norm at most n*n/4, so no fallback runs."""
    r = u_mod(gen.element(a, 0), gen.element(n, 0))
    assert r.b == 0
    return r.a


class TestRounding:
    """u_mod's inline rounding, on integer operands, against the divmod oracle."""

    def test_half_away_from_zero(self, golden_gen):
        for a, n, want in ((1, 2, 1), (-1, 2, -1), (3, 2, 2), (2, 5, 0), (-7, 5, -1),
                           (7, 1, 7)):
            assert round_quotient(a, n) == want
            assert integer_remainder(golden_gen, a, n) == a - want * n

    def test_integer_rounding_matches_fraction_oracle(self, golden_gen):
        rng = random.Random(28)
        grid = [(a, n) for n in (-12, -7, -2, -1, 1, 2, 7, 12) for a in range(-40, 41)]
        half = [rng.randint(1, 10 ** 12) for _ in range(200)]
        ties = [((2 * rng.randint(-10 ** 9, 10 ** 9) + 1) * h, rng.choice((2, -2)) * h)
                for h in half]
        wide = [(rng.randint(-10 ** 30, 10 ** 30), rng.choice((1, -1)) * rng.randint(1, 10 ** 15))
                for _ in range(2000)]
        assert any(abs(Fraction(a, n).denominator) == 2 for a, n in grid)
        for a, n in grid + ties + wide:
            want = fraction_round(Fraction(a, n))
            assert round_quotient(a, n) == want, (a, n)
            assert integer_remainder(golden_gen, a, n) == a - want * n, (a, n)

    def test_u_mod_matches_fraction_rounding(self, golden_gen):
        # Split signatures give generators with indefinite norm forms, so
        # moduli of negative norm occur.
        split = [resmod.WGenerator(make_algebra(1, [1], Convention.CONJUGATE_RIGHT)
                                   .element(w)) for w in ([0, 1], [1, 2])]
        rng = random.Random(29)
        negative = 0
        for gen in [golden_gen] + split:
            for _ in range(300):
                x = gen.element(rng.randint(-90, 90), rng.randint(-90, 90))
                y = gen.element(rng.randint(-20, 20), rng.randint(-20, 20))
                if y.norm() == 0:
                    continue
                negative += y.norm() < 0
                assert u_mod(x, y) == fraction_u_mod(x, y), (x, y)
        assert negative > 100


class TestMakeW:
    def test_golden_generator(self, golden_gen):
        assert golden_gen.q == 2
        assert golden_gen.m == 4
        w = golden_gen.w
        sig = w.signature
        assert (w * w - 2 * w + 4 * sig.one()).is_zero()

    def test_scalar_generator_still_quadratic(self):
        gen = make_w(2, (1, 2, 3), (1, 0, 0, 0))
        assert gen.q == 2 and gen.m == 1
        assert not gen.is_definite()

    def test_depth_three(self):
        gen = make_w(3, (1, 2, 4), (1, 1, 1, 1))
        assert gen.q == 2 and gen.m == 4

    def test_one_integer_signature_per_depth(self):
        # The scaled constants live on the signature, so sharing it means
        # building them once per depth.
        sig = make_w(2, (1, 2, 3), (1, 1, 1, 1)).w.signature
        assert make_w(2, (1, 2, 3), (0, 1, 0, 0)).w.signature is sig
        assert four_square_root(37, (1, 2, 3), 2).signature is sig
        assert make_w(3, (1, 2, 4), (1, 1, 1, 1)).w.signature is not sig

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            make_w(2, (1, 2, 3), (0, 0, 0, 0))

    def test_bad_basis_choice(self):
        with pytest.raises(ValueError):
            make_w(2, (1, 1, 2), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            make_w(2, (0, 1, 2), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            make_w(2, (1, 2, 5), (1, 1, 1, 1))

    def test_bool_indices_refused(self):
        for indices in ((1, True, 3), (False, 2, 3)):
            with pytest.raises(TypeError, match="not bool"):
                make_w(2, indices, (1, 1, 1, 1))
            with pytest.raises(TypeError, match="not bool"):
                four_square_root(7, indices, 2)
        with pytest.raises(TypeError, match="not bool"):
            make_w(True, (1, 2, 3), (1, 1, 1, 1))
        with pytest.raises(TypeError, match="not bool"):
            four_square_root(True, (1, 2, 3), 2)

    def test_bool_indices_refused_after_the_same_ints(self):
        # True == 1 and hash(True) == hash(1), so a placement remembered by its raw
        # arguments would let (True, 2, 3) through once (1, 2, 3) had been used.
        assert four_square_root(7, (1, 2, 3), 2).coeffs == (1, 1, 1, 2)
        assert make_w(2, (1, 2, 3), (1, 1, 1, 1)).q == 2
        for indices in ((True, 2, 3), (1, 2, True)):
            with pytest.raises(TypeError, match="not bool"):
                four_square_root(7, indices, 2)
            with pytest.raises(TypeError, match="not bool"):
                make_w(2, indices, (1, 1, 1, 1))

    def test_coefficients_checked_once(self):
        with pytest.raises(TypeError):
            make_w(2, (1, 2, 3), (1, 1.0, 1, 1))
        with pytest.raises(TypeError):
            make_w(2, (1, 2, 3), (1, 1, True, 1))
        with pytest.raises(ValueError, match="generator must have integer coefficients"):
            make_w(2, (1, 2, 3), (1, Fraction(1, 2), 1, 1))
        gen = make_w(2, (1, 2, 3), (Fraction(2), 1, 1, 1))
        assert gen == make_w(2, (1, 2, 3), (2, 1, 1, 1))
        assert all(type(c) is int for c in gen.w.coeffs)

    def test_depth_above_the_bound_refused_before_allocating(self, monkeypatch):
        def signature(t):
            raise AssertionError("built the depth-t signature")
        monkeypatch.setattr(resmod, "integer_signature", signature)
        for t in (MAX_FIELD_DEPTH + 1, 64):
            with pytest.raises(ValueError, match="MAX_FIELD_DEPTH"):
                make_w(t, (1, 2, 3), (1, 1, 1, 1))
            with pytest.raises(ValueError, match="MAX_FIELD_DEPTH"):
                four_square_root(7, (1, 2, 3), t)

    def test_placement_skips_the_public_constructor(self, monkeypatch):
        sig = resmod.integer_signature(3)
        want = (sig.element([1, 1, 1, 0, 1, 0, 0, 0]), sig.element([1, 0, 1, 0, 0, 1, 2, 0]))

        def refuse(self, *args):
            raise AssertionError("validated a placed element again")
        monkeypatch.setattr(Element, "__init__", refuse)
        assert make_w(3, (1, 2, 4), (1, 1, 1, 1)).w == want[0]
        assert four_square_root(7, (2, 5, 6), 3) == want[1]

    def test_generator_multiplies_nothing(self, golden_gen, monkeypatch):
        def refuse(self, other):
            raise AssertionError("multiplied out the quadratic identity")
        monkeypatch.setattr(Element, "__mul__", refuse)
        gen = resmod.WGenerator(golden_gen.w)
        assert (gen.q, gen.m) == (2, 4) and gen == golden_gen

    def test_non_integral_generator_refused(self):
        for coeffs in ([Fraction(1, 2), 0, 0, 0], [1, 0, Fraction(-3, 4), 0]):
            with pytest.raises(ValueError, match="integer coefficients"):
                resmod.WGenerator(quaternions().element(coeffs))

    def test_generator_with_a_fractional_norm_refused(self):
        # w = e1 under gamma = 1/2 has integer coefficients but norm -1/2,
        # so w*w would leave the integer subring.
        for gammas, p in (([Fraction(1, 2)], 1), ([-1, Fraction(-2, 3)], 3)):
            w = make_algebra(len(gammas), gammas).basis(p)
            assert type(w.norm()) is Fraction
            with pytest.raises(ValueError, match="integer trace and norm"):
                resmod.WGenerator(w)
        gen = resmod.WGenerator(make_algebra(1, [2]).basis(1))
        assert (gen.q, gen.m) == (0, -2)


class TestUElementArithmetic:
    def test_norm_values(self, golden_gen):
        assert golden_gen.element(-1, 2).norm() == 13
        assert golden_gen.element(-3, 1).norm() == 7
        assert golden_gen.element(1, 0).norm() == 1

    def test_conjugate(self, golden_gen):
        x = golden_gen.element(3, -5)
        conj = x.conjugate()
        assert (conj.a, conj.b) == (3 - 10, 5)
        assert x * conj == x.norm()

    def test_ring_laws(self, golden_gen):
        rng = random.Random(20)
        for _ in range(60):
            x = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            y = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            z = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_matches_ambient_algebra(self, golden_gen):
        rng = random.Random(21)
        for _ in range(40):
            x = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            y = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            assert (x * y).to_element() == x.to_element() * y.to_element()
            assert (x + y).to_element() == x.to_element() + y.to_element()
            assert x.norm() == x.to_element().norm()

    def test_mixed_generators_rejected(self, golden_gen):
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        with pytest.raises(ValueError):
            golden_gen.element(1, 0) + other.element(1, 0)

    def test_equal_generators_combine(self, golden_gen):
        twin = make_w(2, (1, 2, 3), (1, 1, 1, 1))
        assert twin is not golden_gen and twin == golden_gen
        x, y = golden_gen.element(2, -1), twin.element(-3, 4)
        same = golden_gen.element(-3, 4)
        for op in (operator.add, operator.sub, operator.mul):
            assert op(x, y) == op(x, same)
        foreign = make_w(2, (1, 2, 3), (0, 1, 0, 0)).element(-3, 4)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(x, foreign)

    def test_integer_coordinates_required(self, golden_gen):
        with pytest.raises(TypeError):
            UElement(Fraction(1, 2), 0, golden_gen)

    def test_element_refuses_what_the_constructor_refuses(self, golden_gen):
        # The int fast path keeps the slow path's checks and message.
        message = r"^subring coordinates must be integers \(not bool\)$"
        for a, b in ((True, 0), (0, False), (Fraction(1, 2), 0), (1, 2.0), (1, "2")):
            for make in (golden_gen.element, lambda a, b: UElement(a, b, golden_gen)):
                with pytest.raises(TypeError, match=message):
                    make(a, b)

        class Int(int):
            pass

        assert golden_gen.element(Int(3), 4) == golden_gen.element(3, 4) == UElement(3, 4, golden_gen)

    def test_numpy_integer_symbols(self, golden_field):
        # Symbols are indices, taken as every other index argument is.
        assert golden_field.unlabel(np.int64(9)) == golden_field.unlabel(9)
        assert encode_symbols(np.arange(13), golden_field) == encode_symbols(range(13),
                                                                             golden_field)

    def test_bools_refused(self, golden_gen, golden_field):
        for a, b in ((True, 0), (0, False), (False, True)):
            with pytest.raises(TypeError, match="not bool"):
                UElement(a, b, golden_gen)
        x = golden_gen.element(2, -1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, True)
        with pytest.raises(TypeError):
            golden_field.unlabel(True)
        with pytest.raises(TypeError):
            encode_symbols([4, False], golden_field)
        # The ints 1 and 0 are equal elements; bools compare unequal in either order.
        for u, flag in ((golden_gen.element(1, 0), True), (golden_gen.element(0, 0), False)):
            assert u == int(flag) and int(flag) == u
            assert not u == flag and not flag == u
            assert u != flag and flag != u

    def test_generator_required(self, golden_gen):
        with pytest.raises(TypeError, match="WGenerator"):
            UElement(1, 2, golden_gen.w)
        for bad in (5, None, golden_gen.w):
            with pytest.raises(TypeError, match=f"^expected a WGenerator, got {type(bad).__name__}$"):
                resmod.Representatives([], bad)
        for bad in (5, None, golden_gen):
            with pytest.raises(TypeError, match=f"^expected an Element, got {type(bad).__name__}$"):
                resmod.WGenerator(bad)

    def test_equal_elements_hash_equal(self, golden_gen):
        # An element with b == 0 equals the integer a, so it hashes like a;
        # with b != 0 it equals no integer.
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        for a in range(-6, 7):
            for b in range(-3, 4):
                u = golden_gen.element(a, b)
                assert u == golden_gen.element(a, b)
                assert hash(u) == hash(golden_gen.element(a, b))
                assert len({u, golden_gen.element(a, b)}) == 1
                if b == 0:
                    assert u == a and hash(u) == hash(a) and len({u, a}) == 1
                    assert u * u.conjugate() == a * a
                else:
                    assert u != a and all(u != c for c in range(-50, 50))
                    assert len({u, a}) == 2
                assert u != other.element(a, b)

    def test_internal_results_are_plain_elements(self, golden_gen):
        # Sums, products, negatives, conjugates and remainders skip the
        # public constructor; they must still be what it would build.
        x, y = golden_gen.element(7, -3), golden_gen.element(-2, 5)
        results = [x + y, x - y, x * y, 3 * x, x * -4, x + 2, 2 - x, -x,
                   x.conjugate(), u_mod(x, y)]
        for u in results:
            assert type(u) is UElement and u.gen is golden_gen
            assert type(u.a) is int and type(u.b) is int
            assert u == UElement(u.a, u.b, golden_gen)
            with pytest.raises(AttributeError):
                u.a = 0


class TestPrimality:
    def test_norm_thirteen_prime(self, golden_gen):
        assert is_prime_u(golden_gen.element(-1, 2))

    def test_norm_seven_prime(self, golden_gen):
        assert is_prime_u(golden_gen.element(1, 1))

    def test_composite_norm(self, golden_gen):
        assert not is_prime_u(golden_gen.element(2, 0))


class TestIsPrime:
    # psi_k: the least strong pseudoprime to the first k prime bases, k = 1..12
    # (k = 7, 8 and k = 9, 10, 11 share a value).
    PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, 318665857834031151167461)

    @staticmethod
    def sieve(lo, hi):
        """The primes in [lo, hi), by the sieve of Eratosthenes on that window."""
        flags = bytearray(n >= 2 for n in range(lo, hi))
        for d in range(2, isqrt(hi - 1) + 1):
            start = max(d * d, -(-lo // d) * d)
            flags[start - lo::d] = bytes(len(range(start, hi, d)))
        return [n for n in range(lo, hi) if flags[n - lo]]

    def test_agrees_with_a_sieve(self):
        limit = 200_000
        assert [n for n in range(limit) if resmod._is_prime(n)] == self.sieve(0, limit)

    @pytest.mark.parametrize("centre", [MAX_FIELD_SIZE, 1031 ** 2])
    def test_agrees_with_a_sieve_across_the_trial_bound(self, centre):
        # Trial division settles every n <= MAX_FIELD_SIZE; the least
        # composite that no trial prime divides is 1031 ** 2, the square of
        # the least prime above isqrt(MAX_FIELD_SIZE).
        lo, hi = centre - 20_000, centre + 20_000
        assert [n for n in range(lo, hi) if resmod._is_prime(n)] == self.sieve(lo, hi)

    def test_products_of_trial_primes_are_composite(self):
        # Where both factors are trial primes from 43 on, the second gcd is n.
        primes = self.sieve(43, 1022)
        products = [p * q for i, p in enumerate(primes) for q in primes[i:]
                    if p * q <= MAX_FIELD_SIZE]
        assert len(products) > 2000 and max(products) == 1021 ** 2
        assert not any(resmod._is_prime(n) for n in products)

    def test_squares_across_the_trial_bound(self):
        assert not any(resmod._is_prime(n) for n in (1021 ** 2, 1031 ** 2, 1031 * 1033))
        assert all(resmod._is_prime(n) for n in (1021, 1031, 1033))

    def test_no_field_check_runs_a_miller_rabin_round(self, monkeypatch):
        # Every composite below 1031 ** 2 has a prime factor of at most 1021.
        assert MAX_FIELD_SIZE < 1031 ** 2
        assert isqrt(MAX_FIELD_SIZE) < 43 ** 2
        def no_round(*args):
            raise AssertionError("a Miller-Rabin round ran")
        monkeypatch.setattr(resmod, "pow", no_round, raising=False)
        lo = MAX_FIELD_SIZE - 2000
        assert [n for n in range(lo, MAX_FIELD_SIZE + 1)
                if resmod._is_prime(n)] == self.sieve(lo, MAX_FIELD_SIZE + 1)
        with pytest.raises(AssertionError, match="Miller-Rabin"):
            resmod._is_prime(1031 ** 2)

    def test_strong_pseudoprimes_are_composite(self):
        assert not any(resmod._is_prime(n) for n in self.PSI)

    def test_carmichael_numbers_are_composite(self):
        assert not any(resmod._is_prime(n) for n in (561, 1105, 1729))

    def test_large_primes(self):
        assert resmod._is_prime(2 ** 61 - 1)
        # Between psi_12 and psi_13: decided only by the thirteenth base.
        assert resmod._is_prime(2 ** 81 - 51)
        assert not resmod._is_prime(2 ** 81 - 1)

    def test_beyond_psi_13_raises(self):
        with pytest.raises(ValueError, match="only decided below"):
            resmod._is_prime(2 ** 89 - 1)
        with pytest.raises(ValueError):
            resmod._is_prime(3317044064679887385961981)

    def test_small_and_negative_are_not_prime(self):
        assert not any(resmod._is_prime(n) for n in (0, 1, -1, -2, -7, -13))


class TestUMod:
    def test_golden_example_reduction(self, golden_gen):
        pi = golden_gen.element(-1, 2)
        v = u_mod(golden_gen.element(3, 2), pi)
        assert v == golden_gen.element(-3, 1)
        assert v.norm() == 7

    def test_self_reduction_is_zero(self, golden_gen):
        x = golden_gen.element(5, -3)
        assert u_mod(x, x).is_zero()

    def test_zero_modulus(self, golden_gen):
        with pytest.raises(ZeroDivisionError):
            u_mod(golden_gen.element(1, 0), golden_gen.element(0, 0))

    def test_operands_of_different_subrings(self, golden_gen):
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        with pytest.raises(ValueError, match="different subrings"):
            u_mod(other.element(3, 2), golden_gen.element(-1, 2))

    def test_nonzero_modulus_of_norm_zero(self):
        # Under a split parameter, w = e1 has norm -1 and 1 + w has norm 0.
        split = resmod.WGenerator(make_algebra(1, [1], Convention.CONJUGATE_RIGHT)
                                  .element([0, 1]))
        with pytest.raises(ValueError, match="modulus has norm zero"):
            u_mod(split.element(3, 2), split.element(1, 1))

    def test_strict_bound_on_euclidean_generators(self):
        rng = random.Random(22)
        gens = [make_w(2, (1, 2, 3), (0, 1, 0, 0)),
                make_w(2, (1, 2, 3), (1, 1, 0, 0)),
                make_w(3, (1, 2, 4), (1, 1, 1, 0))]
        for gen in gens:
            for _ in range(150):
                x = gen.element(rng.randint(-60, 60), rng.randint(-60, 60))
                y = gen.element(rng.randint(-25, 25), rng.randint(-25, 25))
                if y.is_zero():
                    continue
                assert u_mod(x, y).norm() < y.norm()

    def test_skewed_generator_counterexample(self):
        # w = 5 + e1 + e2: q = 10, m = 27, discriminant 8.  The search around the
        # rounding in (1, w) stops at -24 + 6w, of norm 108; 18 - 3w is in its class.
        gen = make_w(2, (1, 2, 3), (5, 1, 1, 0))
        assert (gen.q, gen.m) == (10, 27)
        x, y = gen.element(-6, -6), gen.element(-3, 2)
        assert fraction_u_mod(x, y) == gen.element(-24, 6)
        v = u_mod(x, y)
        assert v == gen.element(18, -3) and (v.norm(), y.norm()) == (27, 57)
        assert x - v == gen.element(-10, 1) * y

    def test_strict_bound_on_skewed_generators(self):
        # The bound at every definite generator: 4m - q*q < 12, or 12 at odd norm(y).
        # Where the search in (1, w) already meets it, the remainder is that search's;
        # where it misses, the remainder is the least norm in its class.
        rng = random.Random(32)
        missed = 0
        for coeffs in ((5, 1, 1, 0), (4, 1, 1, 0), (3, 1, 1, 1), (7, 1, 1, 1), (2, 1, 0, 0)):
            gen = make_w(2, (1, 2, 3), coeffs)
            disc = 4 * gen.m - gen.q * gen.q
            assert disc in (4, 8, 12)
            for _ in range(300):
                x = gen.element(rng.randint(-500, 500), rng.randint(-500, 500))
                y = gen.element(rng.randint(-30, 30), rng.randint(-30, 30))
                if y.is_zero():
                    continue
                n, v = y.norm(), u_mod(x, y)
                if disc < 12 or n % 2:
                    assert v.norm() < n, (coeffs, x, y)
                searched = fraction_u_mod(x, y)
                if searched.norm() < n:
                    assert v == searched, (coeffs, x, y)
                    continue
                missed += 1
                assert v.norm() == class_minimum(x, y), (coeffs, x, y)
                quotient = (x - v) * y.conjugate()
                assert quotient.a % n == 0 and quotient.b % n == 0
        assert missed > 100

    def test_strict_bound_for_odd_norm_moduli(self, golden_gen):
        rng = random.Random(23)
        pi = golden_gen.element(-1, 2)
        for _ in range(200):
            x = golden_gen.element(rng.randint(-80, 80), rng.randint(-80, 80))
            assert u_mod(x, pi).norm() < 13

    def test_deep_hole_reaches_class_minimum(self, golden_gen, caplog):
        # The class of 40 - 25w modulo -2 + 3w has minimal norm exactly
        # equal to the modulus norm: the quotient sits on a lattice deep
        # hole, so no strictly smaller remainder exists.
        x = golden_gen.element(40, -25)
        y = golden_gen.element(-2, 3)
        with caplog.at_level(logging.DEBUG, logger="cdalgebra.residue"):
            v = u_mod(x, y)
        assert v.norm() == y.norm() == 28
        assert any("neighbor" in record.message for record in caplog.records)
        best = min((x - y.gen.element(za, zb) * y).norm()
                   for za in range(-10, 10) for zb in range(-10, 10))
        assert best == 28

    def test_one_log_record_per_missed_rounding(self, golden_gen, caplog):
        # The neighbour search, and its debug record, run exactly when the
        # nearest rounding misses the norm bound.
        rng = random.Random(31)
        pi = golden_gen.element(-1, 2)
        xs = [golden_gen.element(rng.randint(-80, 80), rng.randint(-80, 80))
              for _ in range(400)]
        misses = 0
        for x in xs:
            prod = x * pi.conjugate()
            z = golden_gen.element(fraction_round(Fraction(prod.a, 13)),
                                   fraction_round(Fraction(prod.b, 13)))
            misses += (x - z * pi).norm() >= 13
        with caplog.at_level(logging.DEBUG, logger="cdalgebra.residue"):
            assert [u_mod(x, pi) for x in xs] == [fraction_u_mod(x, pi) for x in xs]
        assert 20 < misses == len([r for r in caplog.records if "neighbor" in r.message])


class TestPublicBoundary:
    """Non-elements are refused with TypeError where they enter."""

    def test_u_mod(self, golden_gen):
        pi = golden_gen.element(-1, 2)
        for x, y in ((5, pi), (pi, 5), (pi.to_element(), pi), (pi, (-1, 2))):
            with pytest.raises(TypeError, match="UElement"):
                u_mod(x, y)

    def test_field_entry_points(self, golden_gen, golden_field):
        for bad in (5, (-3, 1), golden_gen.element(-3, 1).to_element()):
            with pytest.raises(TypeError, match="UElement"):
                golden_field.label(bad)
            with pytest.raises(TypeError, match="UElement"):
                golden_field.reduce(bad)
            with pytest.raises(TypeError, match="UElement"):
                decode_symbols([golden_gen.element(1, 1), bad], golden_field)
            with pytest.raises(TypeError, match="UElement"):
                residue_field(bad)
            with pytest.raises(TypeError, match="UElement"):
                is_prime_u(bad)
        for bad in (Fraction(1), 1.0, "1"):
            with pytest.raises(TypeError):
                golden_field.unlabel(bad)

    def test_non_integer_scalars(self, golden_gen):
        x = golden_gen.element(2, -1)
        for bad in (Fraction(1, 2), 0.5, "2"):
            with pytest.raises(TypeError):
                x * bad
            with pytest.raises(TypeError):
                bad * x
            with pytest.raises(TypeError):
                x + bad


class TestFourSquareRoot:
    def test_examples(self):
        assert four_square_root(4, (1, 2, 3), 2).coeffs == (0, 0, 0, 2)
        assert four_square_root(7, (1, 2, 3), 2).coeffs == (1, 1, 1, 2)
        z = four_square_root(1, (1, 2, 3), 2)
        assert z.coeffs == (0, 0, 0, 1)
        assert (z * z + z.signature.one()).is_zero()

    def test_custom_indices_at_depth_three(self):
        z = four_square_root(7, (2, 5, 6), 3)
        assert z[2] == 1 and z[5] == 1 and z[6] == 2

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            four_square_root(0, (1, 2, 3), 2)

    def test_search_equals_the_unfiltered_search(self):
        # Skipping each a1 whose remainder is no sum of three squares keeps the
        # lexicographically smallest tuple.
        def unfiltered(m):
            for a1 in range(isqrt(m) + 1):
                for a2 in range(isqrt(m - a1 * a1) + 1):
                    for a3 in range(isqrt(m - a1 * a1 - a2 * a2) + 1):
                        a4 = isqrt(m - a1 * a1 - a2 * a2 - a3 * a3)
                        if a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 == m:
                            return a1, a2, a3, a4
        for m in range(1, 3000):
            assert resmod._four_square_decomposition(m) == unfiltered(m), m

    def test_seven_times_a_power_of_four(self):
        # Every a1 < 128 leaves a remainder of the form 4^a (8b + 7); the
        # unfiltered search took 6.6 s on a 2-vCPU host to scan their pairs.
        z = four_square_root(7 * 4 ** 8, (1, 2, 3), 2)
        assert z.coeffs == (128, 128, 128, 640)

    def test_bad_indices_rejected_before_the_search(self, monkeypatch):
        # The same checks and messages as make_w, made before the
        # four-square search.
        def search(m):
            raise AssertionError("searched before checking the indices")
        monkeypatch.setattr(resmod, "_four_square_decomposition", search)
        for indices in ((1, 1, 2), (0, 1, 2), (1, 2, 9), (1, 2)):
            with pytest.raises(ValueError) as want:
                make_w(2, indices, (1, 1, 1, 1))
            with pytest.raises(ValueError) as got:
                four_square_root(2 ** 22 - 1, indices, 2)
            assert str(got.value) == str(want.value)


class TestResidueField:
    def test_label_examples(self, golden_field, golden_gen):
        assert golden_field.label(golden_gen.element(-3, 1)) == 4
        assert golden_field.label(golden_gen.element(1, -1)) == 7
        assert golden_field.label(golden_gen.element(0, 0)) == 0
        assert golden_field.unlabel(9) == golden_gen.element(3, -1)
        assert golden_field.unlabel(12) == golden_gen.element(-1, 0)

    def test_label_checks_the_subring(self, golden_field):
        # An equal generator built separately is the same subring; a
        # different one is refused.
        twin = make_w(2, (1, 2, 3), (1, 1, 1, 1))
        assert twin is not golden_field.gen
        assert golden_field.label(twin.element(-3, 1)) == 4
        other = make_w(2, (1, 2, 3), (1, 1, 1, 0))
        with pytest.raises(ValueError, match="different subring"):
            golden_field.label(other.element(-3, 1))

    def test_an_indefinite_generator_is_refused(self):
        # w = e1 under gamma_1 = 1 has q = 0 and m = -1; pi = 3 + 2w has the prime norm 5.
        gen = WGenerator(make_algebra(2, [1, 1]).basis(1))
        pi = gen.element(3, 2)
        assert (gen.q, gen.m, pi.norm()) == (0, -1, 5)
        with pytest.raises(ValueError, match="^generator norm form must be positive definite$"):
            residue_field(pi)

    def test_unlabel_range(self, golden_field):
        with pytest.raises(ValueError):
            golden_field.unlabel(13)

    def test_labels_are_class_invariants(self, golden_field, golden_gen):
        rng = random.Random(24)
        pi = golden_gen.element(-1, 2)
        for _ in range(100):
            x = golden_gen.element(rng.randint(-40, 40), rng.randint(-40, 40))
            z = golden_gen.element(rng.randint(-10, 10), rng.randint(-10, 10))
            assert golden_field.label(x) == golden_field.label(x + z * pi)

    def test_inverses_exist(self, golden_field):
        for i in range(1, golden_field.p):
            j = pow(i, -1, golden_field.p)
            prod = golden_field.reps[i] * golden_field.reps[j]
            assert golden_field.label(prod) == 1

    def test_norm_seven_field(self, golden_gen):
        field = residue_field(golden_gen.element(1, 1))
        assert field.p == 7
        assert len({(u.a, u.b) for u in field.reps}) == 7

    def test_depth_three_field_matches(self, golden_field):
        gen = make_w(3, (1, 2, 4), (1, 1, 1, 1))
        field = residue_field(gen.element(-1, 2))
        assert ([(u.a, u.b) for u in field.reps]
                == [(u.a, u.b) for u in golden_field.reps])

    def test_composite_modulus_rejected(self, golden_gen):
        with pytest.raises(ValueError):
            residue_field(golden_gen.element(2, 0))

    def test_indefinite_generator_rejected(self):
        gen = make_w(2, (1, 2, 3), (1, 0, 0, 0))
        candidate = gen.element(2, 1)
        with pytest.raises(ValueError):
            residue_field(candidate)

    def test_degenerate_congruence_guard(self, golden_gen, monkeypatch):
        # Unreachable through genuine norm-primes (p | b forces p*p | norm),
        # so force the primality gate open to exercise the guard.
        monkeypatch.setattr(resmod, "_is_prime", lambda n: True)
        with pytest.raises(ValueError, match="degenerate"):
            residue_field(golden_gen.element(2, 0))

    @pytest.mark.parametrize("p, pi", [(13, (-1, 2)), (61, (5, 2))])
    def test_reduce_gives_the_class_representative(self, golden_gen, p, pi):
        field = residue_field(golden_gen.element(*pi))
        assert field.p == p
        rng = random.Random(p)
        for _ in range(200):
            u = golden_gen.element(rng.randint(-90, 90), rng.randint(-90, 90))
            rep = field.reduce(u)
            assert rep == field.reps[field.label(u)]
            assert rep.norm() < p
            z = golden_gen.element(rng.randint(-9, 9), rng.randint(-9, 9))
            assert field.reduce(u + z * field.pi) == rep
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        with pytest.raises(ValueError):
            field.reduce(other.element(1, 1))

    def test_mismatched_subring_rejected(self, golden_field):
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        with pytest.raises(ValueError):
            golden_field.label(other.element(1, 0))


def exhaustive_field_check(field: ResidueField) -> bool:
    """O(p^2) oracle: p distinct representatives of norm below p, labelled
    0..p-1, whose pairwise sums and products label as the sums and
    products mod p (inverses follow, since every label is present)."""
    p, reps = field.p, field.reps
    if len({(u.a, u.b) for u in reps}) != p:
        return False
    if any(field.label(u) != k or u.norm() >= p for k, u in enumerate(reps)):
        return False
    return all(field.label(reps[i] + reps[j]) == (i + j) % p
               and field.label(reps[i] * reps[j]) == (i * j) % p
               for i in range(p) for j in range(p))


def certified(field: ResidueField) -> bool:
    try:
        resmod._verify_field(field)
    except ArithmeticError:
        return False
    return True


class TestCertificate:
    PRIMES = {13: (-1, 2), 43: (1, 3), 211: (-15, 7)}

    @pytest.fixture(scope="class", params=sorted(PRIMES))
    def field(self, request, golden_gen):
        field = residue_field(golden_gen.element(*self.PRIMES[request.param]),
                              verify=False)
        assert field.p == request.param
        return field

    def test_genuine_fields_pass_both(self, field):
        assert exhaustive_field_check(field)
        assert certified(field)

    def test_swapped_representatives_fail_both(self, field):
        reps = list(field.reps)
        reps[1], reps[2] = reps[2], reps[1]
        bad = dataclasses.replace(field, reps=tuple(reps))
        assert not exhaustive_field_check(bad)
        assert not certified(bad)

    @pytest.mark.parametrize("edit", ["duplicate", "one short"])
    def test_wrong_count_of_distinct_representatives_fails_both(self, field, edit):
        reps = list(field.reps)
        if edit == "duplicate":
            reps[3] = reps[2]
        else:
            del reps[-1]
        bad = dataclasses.replace(field, reps=tuple(reps))
        assert not exhaustive_field_check(bad)
        assert not certified(bad)

    def test_large_class_mate_fails_both(self, field):
        reps = list(field.reps)
        reps[5] = reps[5] + 3 * field.pi
        assert field.label(reps[5]) == 5 and reps[5].norm() >= field.p
        bad = dataclasses.replace(field, reps=tuple(reps))
        assert not exhaustive_field_check(bad)
        assert not certified(bad)

    def test_broken_product_fails_both(self, field, monkeypatch):
        mul = UElement.__mul__

        def off_by_one(x, y):
            out = mul(x, y)
            if isinstance(y, UElement) and x.b and y.b:
                return UElement(out.a + 1, out.b, out.gen)
            return out

        monkeypatch.setattr(UElement, "__mul__", off_by_one)
        w = field.gen.element(0, 1)
        assert w * w == mul(w, w) + 1
        assert not exhaustive_field_check(field)
        assert not certified(field)

    def test_non_root_labelling_fails_both(self, golden_field):
        # s = 10 is no root of s^2 - 2s + 4 mod 13, yet keeps 13 distinct
        # labels: additive and bijective but not multiplicative.
        assert (10 * 10 - 2 * 10 + 4) % 13 != 0
        reps = {(u.a + 10 * u.b) % 13: u for u in golden_field.reps}
        assert sorted(reps) == list(range(13))
        bad = ResidueField(pi=golden_field.pi, p=13, s=10,
                           reps=tuple(reps[k] for k in range(13)))
        assert not exhaustive_field_check(bad)
        assert not certified(bad)

    def test_conjugate_prime_field_fails_the_certificate(self, golden_field):
        # Conjugating every representative gives the field modulo conj(pi),
        # labelled by the other root q - s.  The oracle accepts it as a
        # field; the certificate sees that pi itself does not label as 0.
        field = golden_field
        bad = ResidueField(pi=field.pi, p=field.p, s=(field.gen.q - field.s) % field.p,
                           reps=tuple(u.conjugate() for u in field.reps))
        assert exhaustive_field_check(bad)
        assert not certified(bad)

    def test_large_field_is_certified(self, golden_gen):
        pi = golden_gen.element(-133, 107)
        field = residue_field(pi, verify=True)
        assert field.p == 35023 and len(field.reps) == 35023
        rng = random.Random(27)
        for _ in range(200):
            i, j = rng.randrange(field.p), rng.randrange(field.p)
            assert field.label(field.reps[i] * field.reps[j]) == i * j % field.p
            x = golden_gen.element(rng.randint(-500, 500), rng.randint(-500, 500))
            assert field.label(u_mod(x, pi)) == field.label(x)

    def test_size_bound_comes_before_primality(self, golden_gen, monkeypatch):
        def no_primality_test(n):
            raise AssertionError("primality tested above the size bound")

        monkeypatch.setattr(resmod, "_is_prime", no_primality_test)
        with pytest.raises(ValueError, match=f"MAX_FIELD_SIZE = {MAX_FIELD_SIZE}"):
            residue_field(golden_gen.element(1000015, 1))


class TestRepresentatives:
    """``reps`` is a read-only sequence over coordinates, not a tuple of
    elements: each entry is made when it is read."""

    def test_length_indexing_and_iteration_order(self, golden_field):
        reps = golden_field.reps
        assert len(reps) == 13
        assert reps[4] == golden_field.unlabel(4)
        assert reps[-1] == reps[12] and reps[-13] == reps[0]
        for k in (13, -14):
            with pytest.raises(IndexError):
                reps[k]
        items = list(reps)
        assert items == [reps[k] for k in range(13)]
        assert [golden_field.label(u) for u in items] == list(range(13))
        assert reps[2:5] == tuple(items[2:5]) and reps[::-1] == tuple(reversed(items))
        assert type(items[0]) is UElement and items[0].gen is golden_field.gen

    def test_an_index_is_an_int_and_not_a_bool(self, golden_field):
        reps = golden_field.reps
        assert reps[np.int64(4)] == reps[4] and reps[np.int64(-2)] == reps[11]
        for k in (True, False):
            for read in (reps.__getitem__, golden_field.unlabel):
                with pytest.raises(TypeError, match="^index must be an int, not bool$"):
                    read(k)

    def test_two_builds_compare_and_hash_equal(self, golden_gen, golden_field):
        again = residue_field(golden_gen.element(-1, 2))
        assert again.reps is not golden_field.reps
        assert again.reps == golden_field.reps and again == golden_field
        assert hash(again.reps) == hash(golden_field.reps) and hash(again) == hash(golden_field)
        assert residue_field(golden_gen.element(5, 2)).reps != golden_field.reps
        assert golden_field.reps != tuple(golden_field.reps)

    def test_a_sequence_of_elements_is_converted(self, golden_field):
        for seq in (tuple(golden_field.reps), list(golden_field.reps)):
            field = dataclasses.replace(golden_field, reps=seq)
            assert type(field.reps) is resmod.Representatives and field == golden_field

    def test_a_representative_of_another_subring_is_refused(self, golden_field):
        reps = list(golden_field.reps)
        other = make_w(2, (1, 2, 3), (0, 1, 0, 0))
        for gen in (other, make_w(3, (1, 2, 3), (1, 1, 1, 1))):
            with pytest.raises(ValueError, match="different subring"):
                dataclasses.replace(golden_field, reps=reps[:5] + [gen.element(1, 1)] + reps[6:])
        foreign = residue_field(other.element(5, 2))
        with pytest.raises(ValueError, match="different subring"):
            dataclasses.replace(golden_field, reps=foreign.reps)
        with pytest.raises(TypeError, match="UElement"):
            dataclasses.replace(golden_field, reps=reps[:5] + [(1, 1)] + reps[6:])

    def test_repr_lists_no_elements(self, golden_gen):
        field = residue_field(golden_gen.element(-133, 107), verify=False)
        text = repr(field.reps)
        assert "35023" in text and "UElement" not in text and len(text) < 200
        assert repr(field) == repr(residue_field(golden_gen.element(-133, 107), verify=False))

    def test_certified_build_makes_no_element_per_class(self, golden_gen, monkeypatch):
        made = []
        make = resmod._u

        def counting(a, b, gen):
            made.append((a, b))
            return make(a, b, gen)

        monkeypatch.setattr(resmod, "_u", counting)
        field = residue_field(golden_gen.element(-133, 107), verify=True)
        assert field.p == 35023 and len(made) < 10
        assert field.unlabel(7) == field.reps[7] and len(made) < 12

    def test_equal_coordinates_share_one_int(self, golden_gen):
        # The sweep stores each class's a-coordinate from one shared list,
        # not a fresh int per class: 427 values for 35,023 classes here.
        xs = residue_field(golden_gen.element(-133, 107), verify=False).reps.xs
        assert len(xs) == 35023 and len(set(xs)) == 427
        assert len({id(a) for a in xs}) <= len(set(xs))


class TestCodec:
    def test_encode_examples(self, golden_field, golden_gen):
        assert encode_symbols([4, 7], golden_field) == [
            golden_gen.element(-3, 1), golden_gen.element(1, -1)]

    def test_round_trip(self, golden_field):
        rng = random.Random(25)
        ks = [rng.randrange(13) for _ in range(50)]
        assert decode_symbols(encode_symbols(ks, golden_field), golden_field) == ks

    def test_decode_ignores_multiples_of_the_prime(self, golden_field, golden_gen):
        rng = random.Random(26)
        pi = golden_gen.element(-1, 2)
        ks = [rng.randrange(13) for _ in range(50)]
        noisy = [golden_field.unlabel(k)
                 + golden_gen.element(rng.randint(-6, 6), rng.randint(-6, 6)) * pi
                 for k in ks]
        assert decode_symbols(noisy, golden_field) == ks

    @pytest.mark.parametrize("coeffs, pi", [((1, 1, 1, 1), (-1, 2)),    # golden, p = 13
                                            ((0, 1, 0, 0), (5, 2))])    # Euclidean, p = 29
    def test_decode_reads_labels(self, coeffs, pi):
        gen = make_w(2, (1, 2, 3), coeffs)
        field = residue_field(gen.element(*pi))
        rng = random.Random(30)
        us = [gen.element(rng.randint(-300, 300), rng.randint(-300, 300))
              for _ in range(500)]
        assert decode_symbols(us, field) == [field.label(u_mod(u, field.pi)) for u in us]
        with pytest.raises(ValueError):
            decode_symbols([make_w(2, (1, 2, 3), (1, 1, 0, 0)).element(1, 1)], field)

    def test_symbol_out_of_range(self, golden_field):
        with pytest.raises(ValueError):
            encode_symbols([13], golden_field)


def _points_with_norm_below(gen, bound):
    """All (b, a) with a*a + q*a*b + m*b*b < bound, for a definite form."""
    q, m = gen.q, gen.m
    disc = 4 * m - q * q
    b_max = isqrt((4 * bound) // disc)
    for b in range(-b_max, b_max + 1):
        rest = 4 * bound - disc * b * b
        if rest <= 0:
            continue
        r = isqrt(rest - 1)  # (2a + qb)^2 <= 4*norm < 4*bound
        lo = -(q * b + r)
        hi = r - q * b
        for twice_a in range(lo, hi + 1):
            if twice_a % 2:
                continue
            a = twice_a // 2
            if a * a + q * a * b + m * b * b < bound:
                yield b, a


def oracle_reps(pi):
    """The per-point table build (the oracle): every point of norm below p
    is a candidate for its class, compared on (norm, b < 0, b, a)."""
    gen, p = pi.gen, pi.norm()
    s = (-pi.a * pow(pi.b, -1, p)) % p
    reps = [None] * p
    for b, a in _points_with_norm_below(gen, p):
        k = (a + b * s) % p
        cand = (a * a + gen.q * a * b + gen.m * b * b, b < 0, b, a)
        if reps[k] is None or cand < reps[k][0]:
            reps[k] = (cand, UElement(a, b, gen))
    assert all(entry is not None for entry in reps)
    return tuple(entry[1] for entry in reps)


def coordinates(reps):
    return [(u.a, u.b, type(u.a), type(u.b)) for u in reps]


def representations(gen, p):
    """Every (a, b) with a*a + q*a*b + m*b*b == p, for a definite form:
    (2a + q*b)^2 = 4p - disc*b*b must be a square of q*b's parity."""
    q, m = gen.q, gen.m
    disc = 4 * m - q * q
    out = []
    for b in range(-isqrt(4 * p // disc), isqrt(4 * p // disc) + 1):
        x = isqrt(4 * p - disc * b * b)
        if x * x == 4 * p - disc * b * b:
            out += [((sx - q * b) // 2, b) for sx in {x, -x} if (sx - q * b) % 2 == 0]
    return out


class TestTableBuild:
    """The one-pass build against the per-point oracle."""

    GENERATORS = {"golden": (1, 1, 1, 1), "euclidean": (1, 1, 1, 0),
                  "gaussian e1": (0, 1, 0, 0), "gaussian 1+e1": (1, 1, 0, 0)}

    @pytest.mark.parametrize("coeffs", GENERATORS.values(), ids=GENERATORS.keys())
    def test_every_prime_below_2000(self, coeffs):
        gen = make_w(2, (1, 2, 3), coeffs)
        oracle = {}    # associates generate one ideal: one s, one table
        fields = 0
        for p in range(2, 2000):
            if not resmod._is_prime(p):
                continue
            for a, b in representations(gen, p):
                pi = gen.element(a, b)
                field = residue_field(pi, verify=False)
                assert field.p == p
                if (p, field.s) not in oracle:
                    oracle[p, field.s] = coordinates(oracle_reps(pi))
                assert coordinates(field.reps) == oracle[p, field.s], (p, a, b)
                fields += 1
        assert fields > 550

    def test_large_field(self, golden_gen):
        pi = golden_gen.element(-133, 107)
        assert coordinates(residue_field(pi, verify=False).reps) == coordinates(oracle_reps(pi))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, golden_gen, monkeypatch, enabled):
        # The build runs, and refuses a sweep that leaves a class empty,
        # with the cyclic collector on or off.
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            residue_field(golden_gen.element(-1, 2))
            monkeypatch.setattr(resmod, "isqrt", lambda n: 0)  # row 0, a = 0 only
            with pytest.raises(ArithmeticError, match="without small representatives"):
                residue_field(golden_gen.element(-1, 2))
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("coeffs", [(0, 1, 0, 0), (1, 1, 0, 0)])
    def test_ties_prefer_a_nonnegative_w_coordinate(self, coeffs):
        # Modulo a prime over 2 in the Gaussian integers the four units
        # share class 1 and norm 1; b < 0 loses first, then the least
        # (b, a) wins, so -1 is picked where (b, a) alone would pick the
        # unit with b = -1.
        gen = make_w(2, (1, 2, 3), coeffs)
        for a, b in representations(gen, 2):
            field = residue_field(gen.element(a, b))
            assert [(u.a, u.b) for u in field.reps] == [(0, 0), (-1, 0)]
