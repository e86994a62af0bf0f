"""Unit tests for structure constants, sign tables and tile partition."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cdalgebra.algebra import Convention, _mul, make_algebra
from cdalgebra.suites import _descent_coefficient
from cdalgebra.twist import (MAX_TABLE_DEPTH, BlockClassificationError,
                             BlockKind, TwistCoefficient, TwistTable,
                             _bit_reverse, _coefficient, basis_product,
                             basis_product_element, bit_reversal_permutation,
                             build_table, partition_blocks, power_row_operands,
                             check_power_row_claim, sweep_power_row_claims, shuffle,
                             shuffle_string, twist_sign)

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

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(-1)])
    def test_sign_and_mask_must_be_ints(self, bad):
        with pytest.raises(TypeError):
            TwistCoefficient(bad, 0)
        with pytest.raises(TypeError):
            TwistCoefficient(1, bad)

    def test_out_of_range(self):
        sig = make_algebra(2, [-1, -1], RIGHT)
        with pytest.raises(ValueError):
            basis_product(4, 0, sig)

    def test_bool_indices_are_refused(self):
        # A bool would silently stand for index 0 or 1.  Other integer
        # types give the int answer; a float is no index.
        sig = make_algebra(2, [-1, -1], RIGHT)
        calls = (sig.basis, lambda b: basis_product(b, 2, sig),
                 lambda b: basis_product(2, b, sig), lambda b: twist_sign(b, 2, 2),
                 lambda b: twist_sign(2, b, 2), lambda b: shuffle(b, 1, 2),
                 lambda b: shuffle(1, b, 2))
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

    def test_deterministic_rebuild(self):
        assert build_table(6, RIGHT) == build_table(6, RIGHT)

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            build_table(13)

    @pytest.mark.parametrize("t", [True, False, 2.0, "2", Fraction(2)])
    def test_depth_must_be_an_int(self, t):
        with pytest.raises(TypeError, match="not bool" if isinstance(t, bool) else None):
            build_table(t)

    def test_numpy_depth_is_stored_as_an_int(self):
        for conv in Convention:
            table = build_table(np.int64(3), conv)
            assert type(table.t) is int
            assert table == build_table(3, conv)

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

    def test_tables_immutable(self):
        table = build_table(3)
        with pytest.raises((ValueError, AttributeError)):
            table.base_signs[0, 0] = -1


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
        t = 4
        table = build_table(t, conv)
        kinds = partition_blocks(table)
        i, j = np.argwhere(np.isin(kinds, (BlockKind.B, BlockKind.B_TRANSPOSED)))[0]
        rev, h = bit_reversal_permutation(t - 1), 1 << (t - 1)
        block = np.ix_([rev[i], rev[i] + h], [rev[j], rev[j] + h])
        signs = table.sign_table()
        signs[block] = signs[block].T
        bad = TwistTable(t, conv, signs * _parity(t), np.zeros_like(table.gamma_masks))
        assert np.array_equal(bad.sign_table(), signs)
        with pytest.raises(BlockClassificationError,
                           match=rf"^tile \({i}, {j}\) is pattern {foreign}, "
                                 rf"outside the {conv.value} alphabet"):
            partition_blocks(bad)

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


def _outcome(table):
    try:
        return partition_blocks(table).tolist()
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
    elif how == "zero":
        tile[rng.randrange(2), rng.randrange(2)] = 0
    elif how == "negate":
        tile = -tile
    elif how == "transpose":
        tile = tile.T
    else:  # the corner becomes pattern B
        tile = BlockKind.B.pattern()
    signs[np.ix_(rows, cols)] = tile
    n = 1 << t
    bad = TwistTable(t, convention, signs * _parity(t), np.zeros((n, n), dtype=np.uint16))
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
        hows = ("flip", "zero", "negate", "transpose", "corner")
        for t in range(1, 11):
            for conv in Convention:
                table = build_table(t, conv)
                signs = table.sign_table()
                cases = [(table, signs)]
                for how in hows if t <= 8 else hows[t % 2::2]:
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


class TestPowerRowReports:
    def test_constraint_violations(self):
        with pytest.raises(ValueError):
            check_power_row_claim(2, 2, 3, 5)  # needs r < k
        with pytest.raises(ValueError):
            check_power_row_claim(1, 2, 5, 5)  # needs i < t

    def test_operand_bit_patterns(self):
        row, col = power_row_operands(1, 2, 3, 4)
        assert row == 0b0100
        assert col == 0b1110

    def test_single_report(self):
        report = check_power_row_claim(1, 2, 3, 4)
        assert report.supported_index_reading == "both"
        assert report.m_computed == report.row_base ^ report.col_base
        assert report.tree_forms_c_tile
        assert len(report.cells) == 4
        d = report.to_dict()
        assert d["r"] == 1 and len(d["cells"]) == 4

    def test_sweep_depth_five_reading_is_consistent(self):
        reports = sweep_power_row_claims(5)
        assert len(reports) == 10
        # The computed reading of the result index holds everywhere; the
        # stated one only coincides when r = 1 collapses the two.
        for report in reports:
            assert report.supported_index_reading in ("computed", "both")
            assert (report.supported_index_reading == "both") == (report.r == 1)
            assert report.tree_forms_c_tile

    def test_sweep_corner_signs_frozen(self):
        # Oracle-computed corner signs of the tree-order tiles at depth 5.
        reports = sweep_power_row_claims(5)
        assert [r.tree_corner_sign for r in reports] == [
            1, 1, 1, -1, -1, 1, -1, -1, 1, 1]
        # Neither published exponent matches every triple.
        assert not all(r.tree_matches_table_sign for r in reports)
        assert not all(r.tree_matches_walk_sign for r in reports)

    def test_literal_reading_never_forms_the_claimed_pattern(self):
        # In plain XOR indexing the four products never reproduce the
        # published sign layout; the tree reading is the meaningful one.
        for report in sweep_power_row_claims(5):
            assert not report.literal_signs_match_claim
