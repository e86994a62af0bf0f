"""Unit tests for signatures, elements and the doubling product."""

import ast
import copy
import dataclasses
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from cdalgebra import algebra, twist
from cdalgebra.algebra import (Convention, Element, _conj, _mul, as_rational,
                               make_algebra, octonions, power_left_nested,
                               quadratic_check, quaternions, sedenions)
from cdalgebra.fibonacci import GoldenNumber
from cdalgebra.residue import ResidueField, make_w, residue_field
from cdalgebra.suites import GAMMA_POOL, run_twist_suite
from cdalgebra.twist import TwistTable, basis_product, build_table

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
    kept._constants()  # fills the lazily kept slot
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

    def test_float_scalars_rejected(self):
        with pytest.raises(TypeError):
            make_algebra(1, [-1.0], RIGHT)
        with pytest.raises(TypeError):
            quaternions().element([0.5, 0, 0, 0])

    def test_depth_must_be_an_int(self):
        with pytest.raises(TypeError):
            make_algebra(2.0, [-1, -1])
        with pytest.raises(TypeError):
            make_algebra(True, [-1])


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

    def test_signature_mismatch(self):
        x = quaternions().one()
        y = octonions().one()
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y

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
    def test_left_nested_matches_binary(self):
        rng = random.Random(11)
        sig = octonions()
        x = sig.element([rng.randint(-3, 3) for _ in range(8)])
        for k in (0, 1, 2, 5):
            acc = sig.one()
            for _ in range(k):
                acc = acc * x
            assert power_left_nested(x, k) == acc

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_left_nested(quaternions().one(), -1)


class TestKernel:
    """Element products (the structure-constant kernel at depths 2-8)
    against the doubling recursion ``algebra._mul``."""

    MIXED = (2, -3, Fraction(5, 7), Fraction(-1, 2), 11, -1, Fraction(3, 4), 5,
             Fraction(-9, 4))

    @staticmethod
    def _pairs(sig, rng):
        """Dense, rational, basis, two-term and zero operands, paired.

        The dense operand has no zero coefficient, so products with it
        take the dense gather at depths 4-8 and sparse ones the support
        loop.  At depths 7 and 8 one dense pair stands for the rest: the
        recursion takes 0.05-0.2 s for each.
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

    def test_both_sides_of_the_support_pair_switch(self):
        # Against a full operand, the pair loop runs for supports up to s
        # and the dense gather from s + 1 on; both read the same codes.
        rng = random.Random(26)
        for t, s in ((4, 12), (6, 36)):
            n = 1 << t
            assert 2 * n * s <= n * (n + 8) < 2 * n * (s + 1)
            for conv in Convention:
                sig = make_algebra(t, self.MIXED[:t], conv)
                full = sig.element([rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(n)])
                for support in (s, s + 1):
                    coeffs = [0] * n
                    for p in rng.sample(range(n), support):
                        coeffs[p] = rng.choice((1, -1)) * rng.randint(1, 9)
                    part = sig.element(coeffs)
                    assert self._mismatches([(full, part), (part, full)]) == [], \
                        (t, conv, support)

    def test_codes_are_the_structure_constants(self):
        # The doubled codes against two independent derivations: the
        # pointwise coefficient and the sign-plane doubling of build_table.
        for t in range(1, 9):
            n = 1 << t
            table = build_table(t)
            for k, row in enumerate(algebra._codes(t)):
                assert len(row) == n, (t, k)
                for p, code in enumerate(row):
                    sign, mask = twist._coefficient(p, p ^ k)
                    assert code == 2 * mask + (sign < 0), (t, k, p)
                    assert code == (2 * int(table.gamma_masks[p, p ^ k])
                                    + (table.base_signs[p, p ^ k] < 0)), (t, k, p)

    @staticmethod
    def _flipped_codes(t, k, p):
        """``_codes`` with the sign bit of codes[k][p] flipped at depth t."""
        codes = algebra._codes
        codes(algebra.KERNEL_MAX_DEPTH)  # every depth doubled from true codes first
        bad = [row[:] for row in codes(t)]
        bad[k][p] ^= 1
        return lambda depth: bad if depth == t else codes(depth)

    def test_corrupted_plane_is_caught(self, monkeypatch):
        # One flipped sign of e_2 * e_7 must show in the comparison and must
        # not reach the twist suite's oracle.  The pair loop and the dense
        # gather both read _codes (at depth 3 dense operands take the pair
        # loop; from depth 4 on they take the gather).
        rng = random.Random(22)
        for t in (3, 5, 7):
            monkeypatch.setattr(algebra, "_codes", self._flipped_codes(t, 2 ^ 7, 2))
            # An empty plane cache, so the gather reads the flipped codes.
            planes = lru_cache(maxsize=None)(algebra._planes.__wrapped__)
            monkeypatch.setattr(algebra, "_planes", planes)
            sig = make_algebra(t, self.MIXED[:t], RIGHT)
            assert self._mismatches([(sig.basis(2), sig.basis(7))])
            dense = [sig.element([rng.choice((1, -1)) * rng.randint(1, 9)
                                  for _ in range(sig.dimension)]) for _ in range(2)]
            assert self._mismatches([tuple(dense)])
            assert planes.cache_info().currsize == (t > 3)  # the gather ran
            assert run_twist_suite(exhaustive_depth=3, random_pairs=10,
                                   table_depth=t).passed
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
    assert shown == ["Fraction(57, 4)", "True", "<0>", "<-2/21>"]
