"""Unit tests for structure constants, sign tables and tile partition."""

import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cdalgebra.algebra import Convention, _coefficient, _sign_rows, make_algebra
from cdalgebra.suites import (SuiteResult, _descent_coefficient, _zero_divisor_census,
                              _zero_divisor_checks)
from cdalgebra.twist import (MAX_TABLE_DEPTH, BlockClassificationError,
                             BlockKind, PowerRowReport, ProductCell, TwistCoefficient, TwistTable,
                             _bit_reverse, _tile_kinds, basis_product,
                             basis_product_element, bit_reversal_permutation,
                             build_table, partition_blocks, power_row_operands,
                             check_power_row_claim, sweep_power_row_claims, shuffle,
                             shuffle_string, twist_sign)
from oracles import _mul

RIGHT = Convention.CONJUGATE_RIGHT
LEFT = Convention.CONJUGATE_LEFT


def _eq31_product(x, y, gammas):
    """eq31 doubling product: (a, b)(c, d) = (ac + g d conj(b), conj(a) d + c b)."""
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    g, rest = gammas[-1], gammas[:-1]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]

    def conj(v):
        return v[:1] + [-e for e in v[1:]]

    lo = [u + g * w for u, w in zip(_eq31_product(a, c, rest),
                                    _eq31_product(d, conj(b), rest))]
    hi = [u + w for u, w in zip(_eq31_product(conj(a), d, rest),
                                _eq31_product(c, b, rest))]
    return lo + hi


def _random_coeffs(n, rng):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.3
            else rng.randint(-9, 9) for _ in range(n)]


def _unit(p, n):
    return [1 if i == p else 0 for i in range(n)]


# ---- oracles: the stage-by-stage forms the bit algebra replaced -------------
#
# The descent is cdalgebra.suites._descent_coefficient, which verify shares.

def _descent_value(p, q, sig):
    """The coefficient of e_p * e_q under sig's parameters, by the descent;
    eq31 is eq11 with the operands swapped."""
    if sig.convention is LEFT:
        p, q = q, p
    return TwistCoefficient(*_descent_coefficient(p, q)).value(sig.gammas)


def _doubling_planes(t, convention):
    """(base_signs, gamma_masks) by quadrant doubling of both planes."""
    signs = np.array([[1, 1], [1, 1]], dtype=np.int8)
    masks = np.array([[0, 0], [0, 1]], dtype=np.uint16)
    for stage in range(2, t + 1):
        h = 1 << (stage - 1)
        s = np.empty((2 * h, 2 * h), dtype=np.int8)
        m = np.empty((2 * h, 2 * h), dtype=np.uint16)
        st = signs.T
        mt = masks.T
        col_flip = np.ones(h, dtype=np.int8)
        col_flip[1:] = -1
        s[:h, :h] = signs
        m[:h, :h] = masks
        s[:h, h:] = st
        m[:h, h:] = mt
        s[h:, :h] = signs * col_flip[np.newaxis, :]
        m[h:, :h] = masks
        s[h:, h:] = st * col_flip[np.newaxis, :]
        m[h:, h:] = mt | np.uint16(h)
        signs, masks = s, m
    if convention is LEFT:
        signs, masks = signs.T, masks.T
    return signs, masks


def _parity_sign_table(t, signs, masks):
    """Signs under all-(-1) parameters, folding the mask bits onto bit 0."""
    parity = masks
    shift = 1
    while shift < t:
        parity = parity ^ parity >> shift
        shift <<= 1
    return np.where(parity & 1, -signs, signs)


def _parity(t):
    """(-1) ** popcount(p & q) as an int8 plane, by the oracle's fold."""
    n = 1 << t
    index = np.arange(n, dtype=np.uint16)
    return _parity_sign_table(t, np.ones((n, n), dtype=np.int8),
                              np.bitwise_and.outer(index, index))


_SEVEN_PATTERNS = np.array(
    [[[1, 1], [1, -1]], [[1, -1], [1, 1]], [[1, -1], [-1, -1]],
     [[-1, 1], [-1, -1]], [[-1, 1], [1, 1]], [[1, 1], [-1, 1]],
     [[-1, -1], [1, -1]]], dtype=np.int8)


# Each convention's alphabet, by BlockKind value: eq31 holds the published
# A, B, C, -B, -C, and eq11, its transpose, the same with the B family transposed.
_ALPHABETS = {LEFT: (0, 1, 2, 3, 4), RIGHT: (0, 5, 2, 6, 4)}


def _pattern_blocks(signs, t, convention):
    """Outcome of partition_blocks on a table of this convention, by matching
    each tile of the tree-order sign table against the seven patterns: the
    kinds as a list, or the error text."""
    rev = np.array([int(format(p, f"0{t}b")[::-1], 2) for p in range(1 << t)])
    signs = signs[np.ix_(rev, rev)]
    nb = len(rev) // 2
    tiles = signs.reshape(nb, 2, nb, 2).transpose(0, 2, 1, 3)
    kinds = np.full((nb, nb), -1, dtype=np.int8)
    for kind_value, pattern in enumerate(_SEVEN_PATTERNS):
        kinds[(tiles == pattern).all(axis=(2, 3))] = kind_value
    outside = ~np.isin(kinds, _ALPHABETS[convention])
    if outside.any():
        i, j = np.argwhere(outside)[0]
        alphabet = f"the {convention.value} alphabet"
        if kinds[i, j] < 0:
            return f"tile ({i}, {j}) matches no pattern of {alphabet}: {tiles[i, j].tolist()}"
        return (f"tile ({i}, {j}) is pattern {BlockKind(kinds[i, j]).label()}, "
                f"outside {alphabet}: {tiles[i, j].tolist()}")
    if kinds[0, 0] != BlockKind.A:
        return f"unit-corner tile is not pattern A: {tiles[0, 0].tolist()}"
    kinds[0, 0] = BlockKind.A_CORNER
    return kinds.tolist()


class TestZeroDivisorCensus:
    """At depth 5, 294 assessors carrying 588 diagonals, this library's own
    count, through the helper that verify's twist suite runs at depths 3 and 4
    (its ``zero divisors`` family, read by criterion 09)."""

    @pytest.mark.parametrize("convention", [RIGHT, LEFT])
    @pytest.mark.parametrize("t, assessors, diagonals", [(5, 294, 588)])
    def test_counts(self, t, assessors, diagonals, convention):
        census = _zero_divisor_census(t, convention)
        assert len({(a, b) for a, b, _ in census}) == assessors
        assert len(census) == diagonals

    @pytest.mark.parametrize("convention", [RIGHT, LEFT])
    @pytest.mark.parametrize("t", [5])
    def test_every_witness_is_an_exact_zero_product(self, t, convention):
        out = SuiteResult("census")
        _zero_divisor_checks(t, convention, 294, 588, out)
        assert out.passed, out.summary()
        assert out.counts == {"zero divisors": 2 + 588}

    @pytest.mark.parametrize("convention", [RIGHT, LEFT])
    @pytest.mark.parametrize("t", [4, 5])
    def test_both_diagonals_share_their_witness(self, t, convention):
        # The cancellation test does not depend on s, so (a, b, +1) and
        # (a, b, -1) enter together, in that order, with one c and opposite v.
        census = _zero_divisor_census(t, convention)
        plus = list(census)[::2]
        assert list(census)[1::2] == [(a, b, -1) for a, b, _ in plus]
        for a, b, s in plus:
            assert s == 1
            c, v = census[a, b, 1]
            assert census[a, b, -1] == (c, -v), (a, b)

    @pytest.mark.parametrize("convention", [RIGHT, LEFT])
    @pytest.mark.parametrize("t", [3, 4])
    def test_census_equals_a_product_search(self, t, convention):
        # The first c (with d = a^b^c) and v whose product is exactly zero,
        # found by kernel products rather than by the sign rows.
        e = make_algebra(t, (-1,) * t, convention).basis
        n = 1 << t
        want = {}
        for a in range(1, n):
            for b in range(a + 1, n):
                for s in (1, -1):
                    x = e(a) + s * e(b)
                    for c in range(1, n):
                        vs = [v for v in (1, -1) if (x * (e(c) + v * e(a ^ b ^ c))).is_zero()]
                        if vs:
                            want[a, b, s] = (c, *vs)
                            break
        assert _zero_divisor_census(t, convention) == want


class TestSignRows:
    """``algebra._sign_rows``, read from the kernel's codes, against the
    independent oracles: ``twist_sign`` pointwise, the descent, and the
    transposing doubling times the parity of the masks."""

    @pytest.mark.parametrize("t", range(1, 9))
    def test_rows_equal_the_oracles(self, t):
        n = 1 << t
        for conv in Convention:
            rows = _sign_rows(t, conv)
            assert len(rows) == n and all(0 <= row < 1 << n for row in rows)
            got = [[-1 if row >> q & 1 else 1 for q in range(n)] for row in rows]
            assert got == [[twist_sign(p, q, t, conv) for q in range(n)]
                           for p in range(n)], conv
            descent = []
            for p in range(n):
                descent.append([])
                for q in range(n):
                    sign, mask = _descent_coefficient(*((q, p) if conv is LEFT else (p, q)))
                    descent[p].append(-sign if mask.bit_count() & 1 else sign)
            assert got == descent, conv
            assert got == _parity_sign_table(t, *_doubling_planes(t, conv)).tolist(), conv

    @pytest.mark.parametrize("t", range(1, 9))
    def test_rows_are_the_tables_sign_table(self, t):
        # blocks classifies these rows where partition_blocks reads the table's.
        for conv in Convention:
            assert _sign_rows(t, conv) == _rows(build_table(t, conv).sign_table()), conv


class TestBasisProduct:
    def test_unit_row(self):
        sig = make_algebra(3, [-1] * 3, RIGHT)
        for q in range(8):
            coeff, idx = basis_product(0, q, sig)
            assert idx == q
            assert coeff == TwistCoefficient(1, 0)

    def test_squares_are_minus_one_under_all_minus_one(self):
        for t in (1, 2, 3, 4, 5):
            sig = make_algebra(t, [-1] * t, RIGHT)
            for p in range(1, sig.dimension):
                coeff, idx = basis_product(p, p, sig)
                assert idx == 0
                assert coeff.value(sig.gammas) == -1

    def test_pinned_quaternion_sign(self):
        sig = make_algebra(2, [-1, -1], RIGHT)
        coeff, idx = basis_product(1, 2, sig)
        assert (coeff.sign, coeff.gamma_mask, idx) == (1, 0, 3)
        sig31 = make_algebra(2, [-1, -1], LEFT)
        coeff, idx = basis_product(1, 2, sig31)
        assert (coeff.sign, coeff.gamma_mask, idx) == (-1, 0, 3)

    def test_monomial_masks(self):
        sig = make_algebra(2, [Fraction(2, 3), -5], RIGHT)
        coeff, idx = basis_product(3, 3, sig)
        assert idx == 0
        # e3 squared collects both stage parameters with one sign flip
        assert coeff.sign == -1
        assert coeff.gamma_mask == 0b11
        assert coeff.value(sig.gammas) == Fraction(10, 3)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, "1"])
    def test_value_refuses_inexact_parameters(self, bad):
        for mask in (0, 1):
            with pytest.raises(TypeError):
                TwistCoefficient(1, mask).value([bad])

    def test_value_refuses_a_mask_beyond_the_parameters(self):
        # Bit 2 selects stage 3; with two parameters it was once dropped.
        for mask in (0b100, 0b101, 0b1000):
            with pytest.raises(ValueError, match=f"^gamma_mask {mask:#b} selects stage"):
                TwistCoefficient(1, mask).value([2, 3])
        assert TwistCoefficient(-1, 0b11).value([2, 3]) == -6
        assert TwistCoefficient(1, 0).value([]) == 1

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(-1)])
    def test_sign_and_mask_must_be_ints(self, bad):
        with pytest.raises(TypeError):
            TwistCoefficient(bad, 0)
        with pytest.raises(TypeError):
            TwistCoefficient(1, bad)

    def test_sign_and_mask_ranges(self):
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="sign must be"):
                TwistCoefficient(sign, 0)
        with pytest.raises(ValueError, match="gamma_mask must be nonnegative"):
            TwistCoefficient(1, -1)

    def test_out_of_range(self):
        sig = make_algebra(2, [-1, -1], RIGHT)
        with pytest.raises(ValueError):
            basis_product(4, 0, sig)
        # At depth 30 the range is checked by bit length, in both conventions.
        top = (1 << 30) - 1
        for conv in Convention:
            sig = make_algebra(30, [-1] * 30, conv)
            for p, q in ((-1, 0), (0, -1), (-1, -1), (1 << 30, 0), (0, 1 << 30),
                         (top + 1, top), (top, (1 << 31) | 1)):
                with pytest.raises(ValueError, match="out of range for dimension 1073741824"):
                    basis_product(p, q, sig)
            coeff, index = basis_product(top, top, sig)
            assert index == 0 and coeff.gamma_mask == top and coeff.sign in (1, -1)

    def test_coefficients_are_the_public_values(self):
        # Built by the internal constructor, a coefficient equals, hashes,
        # pickles and prints as the one the validating constructor builds.
        for t, pairs in ((3, [(p, q) for p in range(8) for q in range(8)]),
                         (30, [((1 << 29) | 5, (3 << 27) | 6), ((1 << 30) - 1,) * 2])):
            for conv in Convention:
                sig = make_algebra(t, [-1] * t, conv)
                for p, q in pairs:
                    got = basis_product(p, q, sig)[0]
                    want = TwistCoefficient(got.sign, got.gamma_mask)
                    assert type(got) is TwistCoefficient
                    assert got == want and hash(got) == hash(want)
                    assert repr(got) == repr(want)
                    assert (got.sign, got.gamma_mask) == (want.sign, want.gamma_mask)
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                        data = pickle.dumps(got, protocol)
                        assert data == pickle.dumps(want, protocol)
                        assert pickle.loads(data) == want
                    with pytest.raises(AttributeError):
                        got.sign = -got.sign

    def test_bool_indices_are_refused(self):
        # A bool would silently stand for index 0 or 1.  Other integer
        # types give the int answer; a float is no index.
        sig = make_algebra(2, [-1, -1], RIGHT)
        deep = make_algebra(30, [-1] * 30, LEFT)
        table = build_table(2, RIGHT)
        calls = (sig.basis, lambda b: basis_product(b, 2, sig),
                 lambda b: basis_product(2, b, sig), lambda b: basis_product(b, 2, deep),
                 lambda b: basis_product(2, b, deep), lambda b: twist_sign(b, 2, 2),
                 lambda b: twist_sign(2, b, 2), lambda b: shuffle(b, 1, 2),
                 lambda b: shuffle(1, b, 2), lambda b: table.entry(b, 2),
                 lambda b: table.entry(2, b))
        for call in calls:
            for bad in (True, False):
                with pytest.raises(TypeError, match="not bool"):
                    call(bad)
            with pytest.raises(TypeError):
                call(3.0)
            want = call(3)
            got = call(np.int64(3))
            assert got == want and repr(got) == repr(want)

    def test_agrees_with_element_multiplication(self):
        rng = random.Random(12)
        for t in (1, 2, 3, 4):
            for conv in Convention:
                gammas = [rng.choice([-1, 2, Fraction(1, 2), -3])
                          for _ in range(t)]
                sig = make_algebra(t, gammas, conv)
                for _ in range(40):
                    p = rng.randrange(sig.dimension)
                    q = rng.randrange(sig.dimension)
                    assert (basis_product_element(p, q, sig)
                            == sig.basis(p) * sig.basis(q))


class TestTwistSign:
    def test_unit(self):
        assert twist_sign(0, 0, 3) == 1

    def test_diagonal(self):
        for t in (1, 3, 5):
            for p in range(1, 1 << t):
                assert twist_sign(p, p, t) == -1
                assert twist_sign(p, p, t, LEFT) == -1

    def test_anticommutation(self):
        for t in (2, 3, 4, 5):
            for conv in Convention:
                n = 1 << t
                for p in range(1, n):
                    for q in range(1, n):
                        if p != q:
                            assert (twist_sign(p, q, t, conv)
                                    * twist_sign(q, p, t, conv)) == -1

    def test_opposite_products_transpose(self):
        # The library reaches eq31 by swapping eq11 operands; this checks
        # that against the eq31 pair formula written out independently.
        rng = random.Random(31)
        pool = (-1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))
        for t in range(6):
            sig = make_algebra(t, [rng.choice(pool) for _ in range(t)], LEFT)
            for _ in range(6):
                x, y = (sig.element(_random_coeffs(sig.dimension, rng))
                        for _ in range(2))
                assert (x * y).coeffs == tuple(
                    _eq31_product(list(x.coeffs), list(y.coeffs), sig.gammas))
        # Distinct primes as stage parameters make the oracle's value
        # spell out the sign and the gamma mask of each basis product.
        primes = (2, 3, 5, 7)
        for t in range(1, 5):
            sig = make_algebra(t, primes[:t], LEFT)
            table = build_table(t, LEFT)
            signs = table.sign_table()
            n = sig.dimension
            for p in range(n):
                for q in range(n):
                    prod = _eq31_product(_unit(p, n), _unit(q, n), sig.gammas)
                    value = prod[p ^ q]
                    assert sum(c != 0 for c in prod) == 1
                    mask = sum(1 << i for i, g in enumerate(primes[:t])
                               if value % g == 0)
                    want = TwistCoefficient(1 if value > 0 else -1, mask)
                    assert basis_product(p, q, sig) == (want, p ^ q)
                    assert table.entry(p, q) == want
                    assert (signs[p, q] == twist_sign(p, q, t, LEFT)
                            == want.value([-1] * t))

    def test_stable_under_index_doubling(self):
        for t in (1, 2, 3, 4, 5):
            for conv in Convention:
                n = 1 << t
                for p in range(n):
                    for q in range(n):
                        assert (twist_sign(2 * p, 2 * q, t + 1, conv)
                                == twist_sign(p, q, t, conv))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            twist_sign(4, 0, 2)
        with pytest.raises(ValueError):
            twist_sign(-1, 0, 2)

    def test_convention_values_are_accepted(self):
        for t in range(4):
            n = 1 << t
            for p in range(n):
                for q in range(n):
                    assert twist_sign(p, q, t, "eq11") == twist_sign(p, q, t, RIGHT)
                    assert twist_sign(p, q, t, "eq31") == twist_sign(p, q, t, LEFT)
        assert twist_sign(3, 5, 3, "eq31") == -twist_sign(3, 5, 3, "eq11") == 1

    @pytest.mark.parametrize("convention", ["bogus", None, 3, "EQ31", ""])
    def test_a_bad_convention_is_refused(self, convention):
        # Refused as build_table and make_algebra refuse it, not read as eq11.
        for call in (lambda: twist_sign(3, 5, 3, convention),
                     lambda: build_table(3, convention),
                     lambda: make_algebra(3, [-1] * 3, convention)):
            with pytest.raises(ValueError, match="is not a valid Convention"):
                call()

    @pytest.mark.parametrize("depth, error, message", [
        (1.5, TypeError, None), (2.0, TypeError, None), (True, TypeError, "not bool"),
        (-1, ValueError, "out of range for depth -1")])
    def test_depth_is_an_index(self, depth, error, message):
        # A float or bool depth is no depth, and a negative one is out of range.
        with pytest.raises(error, match=message):
            twist_sign(3, 1, depth)
        assert twist_sign(3, 1, np.int64(2)) == twist_sign(3, 1, 2)

    def test_depth_above_the_indices_costs_nothing(self):
        # Stages above the top bit of p | q contribute nothing, so a
        # depth of ten million answers at once and as at depth 2.
        assert twist_sign(1, 2, 10 ** 7) == twist_sign(1, 2, 2)
        assert twist_sign(2, 1, 10 ** 7, LEFT) == twist_sign(2, 1, 2, LEFT)
        assert twist_sign(3, 3, 2) == twist_sign(3, 3, 10 ** 7) == -1


class TestBuildTable:
    def test_depth_one_is_pattern_a(self):
        for conv in Convention:
            table = build_table(1, conv)
            assert np.array_equal(table.sign_table(),
                                  np.array([[1, 1], [1, -1]], dtype=np.int8))

    def test_quaternion_diagonal(self):
        table = build_table(2, RIGHT)
        signs = table.sign_table()
        assert signs[0, 0] == 1
        for p in range(1, 4):
            assert signs[p, p] == -1

    def test_unit_row_and_column(self):
        table = build_table(4, LEFT)
        signs = table.sign_table()
        assert (signs[0] == 1).all()
        assert (signs[:, 0] == 1).all()

    def test_matches_pointwise(self):
        for t in range(1, 9):
            for conv in Convention:
                table = build_table(t, conv)
                signs = table.sign_table()
                n = 1 << t
                for p in range(n):
                    for q in range(n):
                        assert signs[p, q] == twist_sign(p, q, t, conv)

    def test_entries_match_basis_product(self):
        sig = make_algebra(4, [-1] * 4, LEFT)
        table = build_table(4, LEFT)
        for p in range(16):
            for q in range(16):
                coeff, _ = basis_product(p, q, sig)
                assert table.entry(p, q) == coeff

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_entry_out_of_range(self, p, q):
        # numpy would read -1 as the last row, and 4 as an IndexError.
        with pytest.raises(ValueError, match=rf"^basis indices \({p}, {q}\) out of range "
                                             r"for dimension 4$"):
            build_table(2).entry(p, q)

    def test_repr(self):
        assert repr(build_table(2)) == "TwistTable(t=2, convention=eq11)"
        assert repr(build_table(3, LEFT)) == "TwistTable(t=3, convention=eq31)"

    def test_deterministic_rebuild(self):
        assert build_table(6, RIGHT) == build_table(6, RIGHT)

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            build_table(13)

    def test_depth_below_one(self):
        for t in (0, -1):
            with pytest.raises(ValueError, match="table depth must be >= 1"):
                build_table(t)

    def test_a_plane_of_another_depth_is_refused(self):
        table = build_table(2)
        for t, plane in ((3, table.base_signs), (2, table.base_signs[:, :2].copy()),
                         (2, build_table(3).base_signs)):
            with pytest.raises(ValueError, match="do not match the stated depth"):
                TwistTable(t, RIGHT, plane)

    @pytest.mark.parametrize("t", [True, False, 2.0, "2", Fraction(2)])
    def test_depth_must_be_an_int(self, t):
        with pytest.raises(TypeError, match="not bool" if isinstance(t, bool) else None):
            build_table(t)

    def test_numpy_depth_is_stored_as_an_int(self):
        for conv in Convention:
            table = build_table(np.int64(3), conv)
            assert type(table.t) is int
            assert table == build_table(3, conv)

    def test_constructor_depth_is_checked_like_build_table(self):
        # A bool would stand for depth 1, a numpy int would be kept as t,
        # depth 0 would reach partition_blocks and a negative one a shift.
        with pytest.raises(TypeError, match="not bool"):
            TwistTable(True, "eq11", build_table(1).base_signs)
        with pytest.raises(TypeError):
            TwistTable(2.0, RIGHT, build_table(2).base_signs)
        for t in (0, -1):
            with pytest.raises(ValueError, match="table depth must be >= 1"):
                TwistTable(t, RIGHT, np.ones((1, 1), dtype=np.int8))
        table = TwistTable(np.int64(2), RIGHT, build_table(2).base_signs)
        assert type(table.t) is int and table == build_table(2)

    def test_planes_are_contiguous_and_eq31_is_the_transpose(self):
        # An elementwise pass over a transposed view costs several times
        # one over a contiguous plane, so every plane is laid out in C order.
        for t in range(1, MAX_TABLE_DEPTH + 1):
            tables = {conv: build_table(t, conv) for conv in Convention}
            for table in tables.values():
                for plane, dtype in ((table.base_signs, np.int8),
                                     (table.gamma_masks, np.uint16),
                                     (table.sign_table(), np.int8)):
                    assert plane.dtype == dtype and plane.flags.c_contiguous, (t, dtype)
            for name in ("base_signs", "gamma_masks"):
                assert np.array_equal(getattr(tables[LEFT], name),
                                      getattr(tables[RIGHT], name).T), (t, name)

    @pytest.mark.parametrize("name", ["base_signs", "gamma_masks"])
    def test_planes_of_another_dtype_are_refused(self, name):
        # A float plane would be truncated on read: a mask of 1.7 read as 1,
        # a sign of 1.9 kept in the sign table.
        table = build_table(2)
        planes = {"base_signs": table.base_signs, "gamma_masks": table.gamma_masks}
        for bad in (np.full((4, 4), 1.7), planes[name].astype(np.int64),
                    planes[name].tolist()):
            with pytest.raises(TypeError, match=f"^{name} must be"):
                TwistTable(2, RIGHT, **{**planes, name: bad})

    def test_a_sign_plane_holding_other_than_plus_minus_one_is_refused(self):
        # Such a sign would pass into sign_table() and raise only when
        # entry() read it.  A pickle goes through the same check.
        for value in (0, 2, -128):
            plane = build_table(2).base_signs.copy()
            plane[1, 2] = value
            with pytest.raises(ValueError, match=r"^base_signs must hold only \+1 and -1$"):
                TwistTable(2, RIGHT, plane)
            assert plane.flags.writeable
        zeros = np.zeros((4, 4), np.int8)
        with pytest.raises(ValueError, match=r"only \+1 and -1"):
            TwistTable(2, "eq11", zeros)
        data = pickle.dumps(TwistTable._new(2, RIGHT, zeros, None))  # unchecked
        with pytest.raises(ValueError, match=r"only \+1 and -1"):
            pickle.loads(data)

    def test_tables_immutable(self):
        table = build_table(3)
        with pytest.raises((ValueError, AttributeError)):
            table.base_signs[0, 0] = -1

    def test_writing_the_base_of_a_passed_view_leaves_the_table_unchanged(self):
        # A frozen view stays writable through its base, so the table copies it.
        signs = build_table(2, LEFT).base_signs.copy()
        masks = build_table(2, LEFT).gamma_masks.copy()
        table = TwistTable(2, LEFT, signs[:, :], masks[:, :])
        signs[0, 1] = 0
        masks[0, 1] = 3
        assert signs.flags.writeable and masks.flags.writeable
        assert table == build_table(2, LEFT)
        assert table.entry(0, 1) == TwistCoefficient(1, 0)

    def test_a_table_built_from_a_plane_holds_one_copy_of_it(self):
        # One n**2 int8 copy; the +-1 check allocates no plane-sized temporary.
        n = 1 << 10
        plane = build_table(10).base_signs.copy()
        TwistTable(10, RIGHT, plane)  # numpy's first-call caches are not the table's
        tracemalloc.start()
        try:
            table = TwistTable(10, RIGHT, plane)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n, peak
        assert table == build_table(10)

    @pytest.mark.parametrize("conv", list(Convention))
    def test_table_keeps_only_its_sign_plane(self, conv):
        # Masks are p & q where they are read: a table keeps its n**2 int8
        # signs and no uint16 mask plane (3 n**2 bytes kept with one).
        n = 1 << 10
        build_table(10, conv)  # numpy's first-call caches are not the table's
        tracemalloc.start()
        try:
            table = build_table(10, conv)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * n * n and peak < 2 * n * n, (kept, peak)
        assert table.gamma_masks is not table.gamma_masks  # built on each read

    @pytest.mark.parametrize("conv", list(Convention))
    def test_pickle_holds_only_the_sign_plane(self, conv):
        n = 1 << 10
        table = build_table(10, conv)
        for protocol in range(3, pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(table, protocol)
            assert len(data) < 1.1 * n * n, (protocol, len(data))
            restored = pickle.loads(data)
            assert restored == table
            assert not restored.base_signs.flags.writeable
            assert not restored.gamma_masks.flags.writeable

    def test_a_passed_mask_plane_is_stored_and_read(self):
        # The plane is there so that checkers can be tested on wrong masks.
        table = build_table(3, LEFT)
        assert TwistTable(3, LEFT, table.base_signs, table.gamma_masks.copy()) == table
        masks = table.gamma_masks.copy()
        masks[5, 6] ^= 1
        bad = TwistTable(3, LEFT, table.base_signs, masks)
        # The table keeps its own read-only copy; the caller's plane stays writable.
        assert bad.gamma_masks is not masks and np.array_equal(bad.gamma_masks, masks)
        assert masks.flags.writeable and not bad.gamma_masks.flags.writeable
        assert bad != table and table != bad
        assert bad.entry(5, 6) == TwistCoefficient(table.entry(5, 6).sign, (5 & 6) ^ 1)
        assert pickle.loads(pickle.dumps(bad)) == bad
        # sign_table() derives the parity from the index, not from the plane.
        assert np.array_equal(bad.sign_table(), table.sign_table())


class TestPartitionBlocks:
    def test_depth_one_single_corner(self):
        kinds = partition_blocks(build_table(1, LEFT))
        assert kinds.shape == (1, 1)
        assert kinds[0, 0] == BlockKind.A_CORNER

    def test_left_convention_uses_published_kinds(self):
        for t in range(1, 9):
            kinds = partition_blocks(build_table(t, LEFT))
            present = {BlockKind(k) for k in np.unique(kinds)}
            assert present <= {BlockKind.A_CORNER, BlockKind.A, BlockKind.B,
                               BlockKind.C, BlockKind.NEG_B, BlockKind.NEG_C}

    def test_right_convention_transposes_b_family(self):
        kinds = partition_blocks(build_table(4, RIGHT))
        present = {BlockKind(k) for k in np.unique(kinds)}
        assert present == {BlockKind.A_CORNER, BlockKind.A, BlockKind.B_TRANSPOSED,
                           BlockKind.C, BlockKind.NEG_B_TRANSPOSED, BlockKind.NEG_C}

    @pytest.mark.parametrize("conv, foreign", [(LEFT, "Bt"), (RIGHT, "B")])
    def test_a_tile_of_the_other_alphabet_raises(self, conv, foreign):
        # One B-family tile transposed: eq31 then holds a Bt tile, eq11 a B.
        # The int classifier on the table's rows gives the same message, at
        # t = 4 and t = 9, one depth on each side of KERNEL_MAX_DEPTH.
        for t in (4, 9):
            table = build_table(t, conv)
            kinds = partition_blocks(table)
            i, j = np.argwhere(np.isin(kinds, (BlockKind.B, BlockKind.B_TRANSPOSED)))[0]
            rev, h = bit_reversal_permutation(t - 1), 1 << (t - 1)
            block = np.ix_([rev[i], rev[i] + h], [rev[j], rev[j] + h])
            signs = table.sign_table()
            signs[block] = signs[block].T
            bad = TwistTable(t, conv, signs * _parity(t))
            assert np.array_equal(bad.sign_table(), signs)
            with pytest.raises(BlockClassificationError,
                               match=rf"^tile \({i}, {j}\) is pattern {foreign}, "
                                     rf"outside the {conv.value} alphabet") as exc:
                partition_blocks(bad)
            assert _int_outcome(bad) == str(exc.value), t

    @pytest.mark.parametrize("table", [None, np.ones((4, 4), dtype=np.int8)],
                             ids=["None", "sign-table"])
    def test_anything_but_a_table_is_a_type_error(self, table):
        # As Element refuses a bad signature, rather than an AttributeError.
        with pytest.raises(TypeError, match=f"^expected a TwistTable, got {type(table).__name__}$"):
            partition_blocks(table)

    @pytest.mark.parametrize("t", [3, 9])
    def test_the_result_is_a_fresh_writable_matrix(self, t):
        table = build_table(t, LEFT)
        first, second = partition_blocks(table), partition_blocks(table)
        assert first.dtype == np.int8 and first.shape == (1 << (t - 1),) * 2
        first[0, 0] = BlockKind.A
        assert second[0, 0] == BlockKind.A_CORNER

    @pytest.mark.parametrize("t", range(1, 11))
    def test_the_int_route_equals_numpys_tile_codes(self, t):
        # blocks classifies the kernel's rows up to KERNEL_MAX_DEPTH and a
        # table by partition_blocks above it; on one table both agree at every depth.
        for conv in Convention:
            table = build_table(t, conv)
            int_route = _int_outcome(table)
            assert int_route == partition_blocks(table).tolist()
            if t <= 8:
                assert [list(row) for row in _tile_kinds(_sign_rows(t, conv), conv)] == int_route

    @pytest.mark.parametrize("t", [4, 9])
    def test_both_routes_agree_on_corrupted_tiles(self, t):
        # One depth on each side of KERNEL_MAX_DEPTH, where blocks switches
        # classifiers: the same outcome and message from each.
        rng = random.Random(2031 + t)
        for conv in Convention:
            signs = build_table(t, conv).sign_table()
            for how in ("flip", "negate", "transpose", "corner") * 3:
                bad = _corrupt(signs, t, how, rng, conv)
                outcome = _outcome(bad)
                assert _int_outcome(bad) == outcome, (conv, how)
                assert outcome == _pattern_blocks(bad.sign_table(), t, conv), (conv, how)

    def test_block_counts_at_depth_three(self):
        kinds = partition_blocks(build_table(3, LEFT))
        labels = [BlockKind(k).label() for k in kinds.flatten()]
        assert labels.count("A0") == 1
        assert labels.count("A") == 3
        assert labels.count("B") == 3
        assert labels.count("-B") == 3
        assert labels.count("C") == 3
        assert labels.count("-C") == 3

    def test_tiles_cover_top_bit_pairs(self):
        # Tile (i, j) collects the quadrant-corner entries of the sign table.
        t = 3
        table = build_table(t, LEFT)
        signs = table.sign_table()
        kinds = partition_blocks(table)
        h = 1 << (t - 1)
        for i in range(h):
            for j in range(h):
                p = int(format(2 * i, f"0{t}b")[::-1], 2)
                q = int(format(2 * j, f"0{t}b")[::-1], 2)
                tile = np.array([[signs[p, q], signs[p, q + h]],
                                 [signs[p + h, q], signs[p + h, q + h]]])
                assert np.array_equal(tile, BlockKind(kinds[i, j]).pattern())


def test_bit_reversal_permutation_matches_the_string_reversal():
    for t in range(13):
        rev = bit_reversal_permutation(t)
        assert rev.dtype == np.int64
        assert rev.tolist() == [_bit_reverse(p, t) for p in range(1 << t)]


@pytest.mark.parametrize("depth, error, message", [
    (2.0, TypeError, None), (True, TypeError, "not bool"),
    (-2, ValueError, "depth must be >= 0, got -2")])
def test_bit_reversal_permutation_depth_is_an_index(depth, error, message):
    # A bool would stand for depth 0 or 1, and a negative depth is no depth.
    with pytest.raises(error, match=message):
        bit_reversal_permutation(depth)
    assert bit_reversal_permutation(np.int64(2)).tolist() == [0, 2, 1, 3]


def _outcome(table):
    try:
        return partition_blocks(table).tolist()
    except BlockClassificationError as exc:
        return str(exc)


def _rows(signs):
    """A sign matrix as one int per row, bit q set where entry q is -1."""
    return [int("".join("1" if sign < 0 else "0" for sign in reversed(row)), 2)
            for row in signs.tolist()]


def _int_outcome(table):
    """``_outcome`` of the int tile classifier on the table's sign rows."""
    try:
        return [list(row) for row in _tile_kinds(_rows(table.sign_table()), table.convention)]
    except BlockClassificationError as exc:
        return str(exc)


def _corrupt(signs, t, how, rng, convention):
    """A copy of the sign table with one tile changed, as a table of the
    same convention whose base signs are that copy times the parity of
    p & q (its masks are all zero), so that its sign_table is exactly
    that copy."""
    signs = signs.copy()
    h = 1 << (t - 1)
    i, j = (0, 0) if how == "corner" else (rng.randrange(h), rng.randrange(h))
    rev = bit_reversal_permutation(t - 1)
    rows, cols = [rev[i], rev[i] + h], [rev[j], rev[j] + h]
    tile = signs[np.ix_(rows, cols)]
    if how == "flip":
        tile[rng.randrange(2), rng.randrange(2)] *= -1
    elif how == "negate":
        tile = -tile
    elif how == "transpose":
        tile = tile.T
    else:  # the corner becomes pattern B
        tile = BlockKind.B.pattern()
    signs[np.ix_(rows, cols)] = tile
    bad = TwistTable(t, convention, signs * _parity(t))
    assert np.array_equal(bad.sign_table(), signs)
    return bad


class TestBitAlgebraAgainstOracles:
    def test_descent_equals_the_recursion_on_unit_vectors(self):
        # The descent is the twist suite's oracle; here it meets the vector
        # recursion, with eq31 as eq11 on swapped operands.
        mixed = (2, Fraction(-1, 3), 5, Fraction(7, 2), -11)
        for t in range(1, 6):
            n = 1 << t
            units = [tuple(_unit(p, n)) for p in range(n)]
            for conv in Convention:
                for gammas in ((-1,) * t, mixed[:t]):
                    sig = make_algebra(t, gammas, conv)
                    for p in range(n):
                        for q in range(n):
                            a, b = (q, p) if conv is LEFT else (p, q)
                            want = [0] * n
                            want[p ^ q] = _descent_value(p, q, sig)
                            got = _mul(units[a], units[b], sig.gammas)
                            assert list(got) == want, (t, conv, gammas, p, q)

    def test_coefficient_exhaustive_through_depth_eight(self):
        n = 1 << 8
        for p in range(n):
            for q in range(n):
                want = _descent_coefficient(p, q)
                assert _coefficient(p, q) == want
                assert want[1] == p & q
                sign = want[0] if want[1].bit_count() % 2 == 0 else -want[0]
                assert twist_sign(p, q, 8) == sign
                assert twist_sign(q, p, 8, LEFT) == sign

    def test_basis_product_both_conventions(self):
        for conv in Convention:
            sig = make_algebra(6, [-1, 2, Fraction(1, 3), -5, 7, -1], conv)
            for p in range(64):
                for q in range(64):
                    a, b = (q, p) if conv is LEFT else (p, q)
                    want = TwistCoefficient(*_descent_coefficient(a, b))
                    assert basis_product(p, q, sig) == (want, p ^ q)

    def test_coefficient_on_wide_and_lopsided_pairs(self):
        rng = random.Random(2029)
        for bits in (30, 64, 200, 1000):
            pairs = [(rng.getrandbits(bits), rng.getrandbits(bits))
                     for _ in range(300)]
            pairs += [(rng.getrandbits(bits), rng.getrandbits(rng.randint(1, 12)))
                      for _ in range(100)]
            pairs += [(rng.getrandbits(bits), 0) for _ in range(20)]
            pairs += [(1 << (bits - 1), 1), (1 << (bits - 1), 3),
                      ((1 << bits) - 1, (1 << bits) - 1)]
            for p, q in pairs:
                for a, b in ((p, q), (q, p)):
                    assert _coefficient(a, b) == _descent_coefficient(a, b), (a, b)

    def test_tables_equal_the_doubling_oracle(self):
        for t in range(1, MAX_TABLE_DEPTH + 1):
            for conv in Convention:
                table = build_table(t, conv)
                signs, masks = _doubling_planes(t, conv)
                for got, want in ((table.base_signs, signs),
                                  (table.gamma_masks, masks)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                got = table.sign_table()
                want = _parity_sign_table(t, signs, masks)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_blocks_equal_the_pattern_matcher(self):
        rng = random.Random(2030)
        hows = ("flip", "negate", "transpose", "corner")
        deep = {9: ("transpose",), 10: ("flip", "negate", "corner")}
        for t in range(1, 11):
            for conv in Convention:
                table = build_table(t, conv)
                signs = table.sign_table()
                cases = [(table, signs)]
                for how in deep.get(t, hows):
                    bad = _corrupt(signs, t, how, rng, conv)
                    cases.append((bad, bad.sign_table()))
                for case, case_signs in cases:
                    assert _outcome(case) == _pattern_blocks(case_signs, t, conv)


class TestShuffle:
    def test_zeros(self):
        assert shuffle(0, 0, 2) == [(0, 0), (0, 0)]

    def test_direct_interleave(self):
        assert shuffle(2, 1, 2) == [(1, 0), (0, 1)]

    def test_walk_string_for_power_row_operands(self):
        # r=1, k=3, i=4 at depth 5 keeps every display group nonempty:
        # one leading pair, then the run into the closing zero pair.
        row, col = power_row_operands(1, 3, 4, 5)
        assert row == 0b01000 and col == 0b11110
        assert shuffle_string(row, col, 5) == "01 11 01 01 00"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shuffle(4, 0, 2)

    @pytest.mark.parametrize("depth, error, message", [
        (2.0, TypeError, None), (True, TypeError, "not bool"),
        (-1, ValueError, "out of range for depth -1")])
    def test_depth_is_an_index(self, depth, error, message):
        # A float or bool depth is no depth; a negative one gets the range
        # message, not "negative shift count".
        with pytest.raises(error, match=message):
            shuffle(0, 0, depth)
        assert shuffle(2, 1, np.int64(2)) == shuffle(2, 1, 2)


class TestPowerRowReports:
    def test_constraint_violations(self):
        with pytest.raises(ValueError):
            check_power_row_claim(2, 2, 3, 5)  # needs r < k
        with pytest.raises(ValueError):
            check_power_row_claim(1, 2, 5, 5)  # needs i < t

    def test_arguments_are_indices(self):
        # A bool would read as 0 or 1, and a float depth used to fail on a shift.
        with pytest.raises(TypeError, match="not bool"):
            power_row_operands(True, 2, 3, 5)
        with pytest.raises(TypeError):
            check_power_row_claim(1, 2, 3, 5.0)
        for bad in ((1, 2.0, 3, 5), (1, 2, Fraction(3), 5), (False, 2, 3, 5)):
            for check in (power_row_operands, check_power_row_claim):
                with pytest.raises(TypeError):
                    check(*bad)
        report = check_power_row_claim(*map(np.int64, (1, 2, 3, 5)))
        assert report == check_power_row_claim(1, 2, 3, 5)
        assert all(type(v) is int for v in (report.r, report.k, report.i, report.t))
        # The sweep refuses what each report refuses, even where it has no triple.
        for bad in (True, 2.0, Fraction(3)):
            with pytest.raises(TypeError):
                sweep_power_row_claims(bad)
        with pytest.raises(ValueError, match="depth must be >= 0, got -3"):
            sweep_power_row_claims(-3)
        assert [sweep_power_row_claims(t) for t in (0, 1, 2)] == [[], [], []]
        assert sweep_power_row_claims(np.int64(3)) == sweep_power_row_claims(3) != []

    def test_operand_bit_patterns(self):
        row, col = power_row_operands(1, 2, 3, 4)
        assert row == 0b0100
        assert col == 0b1110

    def test_single_report(self):
        report = check_power_row_claim(1, 2, 3, 4)
        assert report.supported_index_reading == "both"
        assert (report.row_base, report.col_base) == power_row_operands(1, 2, 3, 4)
        assert report.m_computed == report.row_base ^ report.col_base
        assert report.tree_forms_c_tile
        assert len(report.cells) == 4

    def test_summary_pinned(self):
        # The line the twist demo prints per report.
        assert check_power_row_claim(1, 2, 3, 5).summary() == (
            "r=1 k=2 i=3: index reading both; tree cells C-tile with corner +1 "
            "(table claim -1, walk claim +1)")
        assert check_power_row_claim(2, 3, 4, 5).summary() == (
            "r=2 k=3 i=4: index reading computed; tree cells C-tile with corner -1 "
            "(table claim +1, walk claim +1)")

    def test_stated_and_neither_readings_on_built_reports(self):
        # Rows 4-5 against columns 28-29 at k = 3: m_computed = 24, m_stated = 20.
        def report(indices, tree_cells):
            cells = tuple(ProductCell(row, col, 1, 1, m) for (row, col), m in
                          zip(((4, 28), (4, 29), (5, 28), (5, 29)), indices))
            return PowerRowReport(2, 3, 4, 5, cells, tree_cells)

        stated = report((20, 21, 21, 20), (1, 1, 1, 1))
        assert (stated.m_computed, stated.m_stated) == (24, 20)
        assert stated.supported_index_reading == "stated"
        assert stated.summary() == (
            "r=2 k=3 i=4: index reading stated; tree cells not a C-tile with corner +0 "
            "(table claim +1, walk claim +1)")
        neither = report((24, 25, 25, 25), (-1, 1, 1, 1))
        assert neither.supported_index_reading == "neither"
        assert neither.tree_corner_sign == -1

    def test_no_published_exponent_matches_every_depth_five_triple(self):
        reports = sweep_power_row_claims(5)
        assert not all(r.tree_matches_table_sign for r in reports)
        assert not all(r.tree_matches_walk_sign for r in reports)

    def test_depth_thirty_verdicts_pinned(self):
        # Every admissible triple at t = 30.  The computed reading of the
        # result index holds everywhere; the stated one coincides with it
        # only where r = 1.  Every tree reading forms a C tile, and neither
        # published exponent gives its sign everywhere.
        reports = sweep_power_row_claims(30)
        assert len(reports) == 4060
        assert Counter((r.supported_index_reading, r.r == 1) for r in reports) == {
            ("both", True): 406, ("computed", False): 3654}
        assert all(r.tree_forms_c_tile for r in reports)
        assert Counter(r.tree_corner_sign for r in reports) == {1: 2849, -1: 1211}
        assert sum(r.tree_matches_table_sign for r in reports) == 2016
        assert sum(r.tree_matches_walk_sign for r in reports) == 2226
        assert not any(r.literal_signs_match_claim for r in reports)

    def test_literal_reading_never_forms_the_claimed_pattern(self):
        # In plain XOR indexing the four products never reproduce the
        # published sign layout; the tree reading is the meaningful one.
        for report in sweep_power_row_claims(5):
            assert not report.literal_signs_match_claim
