"""Structure constants of the doubling basis, and their sign tables.

A product of two basis elements e_p * e_q is a signed parameter monomial
times the basis element e_(p ^ q).  The monomial's stage parameters are
the bits of p & q, and its sign is a parity of p and q computed in
O(log L) word operations on L-bit indices.  This module computes that
coefficient, materializes full tables (masks as p & q, signs doubled
together with their transpose, so that no stage transposes), collapses
them to sign tables (the base signs times the parity of p & q),
partitions sign tables into the five 2x2 block patterns, and checks the
published product-table claim for rows indexed by powers of two.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from .algebra import (AlgebraSignature, Convention, Element, Rational, _Frozen, _index,
                      as_rational)

if TYPE_CHECKING:
    import numpy as np

MAX_TABLE_DEPTH = 12


class BlockClassificationError(Exception):
    """A 2x2 tile of a sign table matched none of the allowed patterns."""


@dataclass(frozen=True)
class TwistCoefficient:
    """Sign times a product of stage parameters, one bit per stage.

    Bit ``i - 1`` of ``gamma_mask`` selects the stage-``i`` parameter.
    """

    sign: int
    gamma_mask: int

    def __post_init__(self):
        if type(self.sign) is not int or type(self.gamma_mask) is not int:
            raise TypeError("sign and gamma_mask must be ints")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.gamma_mask < 0:
            raise ValueError("gamma_mask must be nonnegative")

    def value(self, gammas: Sequence[Rational]) -> Rational:
        """Evaluate against concrete stage parameters, each an exact rational."""
        v: Rational = self.sign
        for i, g in enumerate(gammas):
            g = as_rational(g)
            if self.gamma_mask >> i & 1:
                v = v * g
        return v


def _coefficient(p: int, q: int) -> Tuple[int, int]:
    """(sign, gamma_mask) of the eq11 basis product, in O(log L) word operations.

    The descent on the top bit of p | q applies one line of the doubling
    product per stage j: a swap of the factors' lower bits where the right
    factor has bit j (the product order reverses), a sign flip where the
    left factor has bit j and the right factor is a nonzero pure vector
    below it (its conjugate appears), and the stage parameter where both
    factors have bit j.  Swaps never change the unordered pair of bits at a
    stage, so the parameter enters exactly at a = p & q.  The orientation
    o_j (whether the factors are swapped at stage j) is the parity of a
    above j, reset to q_k at the nearest stage k > j where d = p ^ q is set:
    o = R ^ G with R_j the parity of a above j and G_j = q_k ^ R_k.  R is an
    xor-shift prefix cascade and G a segmented fill with the bits of d as
    blockers, each log2(L) shifts of L = (p | q).bit_length() bits, so the
    depth does not enter.  eq31 is the opposite product, so callers reach
    it by passing (q, p).
    """
    a = p & q
    d = p ^ q
    width = (p | q).bit_length()
    parity = a >> 1  # R_j: parity of the bits of a above j
    shift = 1
    while shift < width:
        parity ^= parity >> shift
        shift <<= 1
    # G_j: copy q_k ^ R_k down from each stage k where d is set, through
    # the stages below it that are not themselves set in d.
    known = d >> 1
    fill = ((q ^ parity) & d) >> 1
    shift = 1
    while shift < width:
        fill |= fill >> shift & ~known
        known |= known >> shift
        shift <<= 1
    orient = parity ^ fill
    left = p ^ (orient & d)
    # Stages above the lowest set bit of a factor see it nonzero below.
    p_below = -(p & -p) << 1
    q_below = -(q & -q) << 1
    flips = left & ((orient & p_below) | (~orient & q_below))
    return -1 if flips.bit_count() & 1 else 1, a


def basis_product(p: int, q: int, sig: AlgebraSignature) -> Tuple[TwistCoefficient, int]:
    """Coefficient and index of the product of basis elements p and q."""
    n = sig.dimension
    p, q = _index(p), _index(q)
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"basis indices ({p}, {q}) out of range for dimension {n}")
    if sig.convention is Convention.CONJUGATE_LEFT:
        sign, mask = _coefficient(q, p)
    else:
        sign, mask = _coefficient(p, q)
    return TwistCoefficient(sign, mask), p ^ q


def basis_product_element(p: int, q: int, sig: AlgebraSignature) -> Element:
    """The product as an element, evaluated against the signature's parameters."""
    coeff, index = basis_product(p, q, sig)
    return coeff.value(sig.gammas) * sig.basis(index)


def twist_sign(p: int, q: int, t: int,
               convention: Convention = Convention.CONJUGATE_RIGHT) -> int:
    """Sign of the basis product when every stage parameter is -1.

    The sign of the coefficient times (-1) ** popcount(p & q).  Costs
    O(log L) word operations on L = (p | q).bit_length() bits whatever
    the depth: the range check compares bit lengths instead of building
    2**t.
    """
    p, q = _index(p), _index(q)
    if p < 0 or q < 0 or (p | q).bit_length() > t:
        raise ValueError(f"basis indices ({p}, {q}) out of range for depth {t}")
    if convention == Convention.CONJUGATE_LEFT:
        p, q = q, p
    sign, mask = _coefficient(p, q)
    return sign if mask.bit_count() % 2 == 0 else -sign


class TwistTable(_Frozen):
    """Dense table of structure coefficients for one depth and convention.

    ``base_signs[p, q]`` (int8) and ``gamma_masks[p, q]`` (uint16) carry
    the symbolic coefficient that ``entry``, ``__eq__`` and the table
    writers read.  Other dtypes are refused rather than truncated on read.
    Tables are immutable once built.

    Precondition: ``gamma_masks[p, q] == p & q``, as ``build_table`` makes
    it.  ``sign_table()`` rests on it: it derives the parity of each mask
    from the index and ignores the stored mask plane.  The constructor
    does not enforce it, so that checkers can be tested on tables with
    wrong masks; on such a table ``sign_table()`` disagrees with
    ``entry()``.
    """

    __slots__ = ("t", "convention", "base_signs", "gamma_masks")

    def __init__(self, t: int, convention: Convention,
                 base_signs: np.ndarray, gamma_masks: np.ndarray):
        n = 1 << t
        for name, plane, dtype in (("base_signs", base_signs, "int8"),
                                   ("gamma_masks", gamma_masks, "uint16")):
            if getattr(plane, "dtype", None) != dtype:
                raise TypeError(f"{name} must be a {dtype} array, "
                                f"got {getattr(plane, 'dtype', type(plane).__name__)}")
        if base_signs.shape != (n, n) or gamma_masks.shape != (n, n):
            raise ValueError("table arrays do not match the stated depth")
        base_signs.setflags(write=False)
        gamma_masks.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "convention", Convention(convention))
        object.__setattr__(self, "base_signs", base_signs)
        object.__setattr__(self, "gamma_masks", gamma_masks)

    def __reduce__(self):
        # Through the constructor, so that unpickled arrays are read-only again.
        return TwistTable, (self.t, self.convention, self.base_signs, self.gamma_masks)

    @property
    def dimension(self) -> int:
        return 1 << self.t

    def entry(self, p: int, q: int) -> TwistCoefficient:
        return TwistCoefficient(int(self.base_signs[p, q]), int(self.gamma_masks[p, q]))

    def sign_table(self) -> np.ndarray:
        """Collapsed signs under all-(-1) parameters, as a new int8 matrix.

        The mask of e_p * e_q is p & q, so the collapsed sign is the base
        sign times (-1) ** popcount(p & q): the Sylvester-Hadamard matrix,
        doubled as [[H, H], [H, -H]] into the result's own buffer.  The
        stored mask plane is not read, so the result holds only for a
        table that meets the class precondition.
        """
        import numpy as np
        n = self.dimension
        signs = np.empty((n, n), dtype=np.int8)
        signs[0, 0] = 1
        h = 1
        while h < n:
            signs[:h, h:2 * h] = signs[h:2 * h, :h] = signs[:h, :h]
            np.negative(signs[:h, :h], out=signs[h:2 * h, h:2 * h])
            h *= 2
        return np.multiply(signs, self.base_signs, out=signs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistTable):
            return NotImplemented
        import numpy as np
        return (self.t == other.t and self.convention is other.convention
                and np.array_equal(self.base_signs, other.base_signs)
                and np.array_equal(self.gamma_masks, other.gamma_masks))

    def __hash__(self) -> int:
        # Equal tables share depth and convention; hashing the planes would cost O(4**t).
        return hash((self.t, self.convention))

    def __repr__(self) -> str:
        return f"TwistTable(t={self.t}, convention={self.convention.value})"


def build_table(t: int,
                convention: Convention = Convention.CONJUGATE_RIGHT) -> TwistTable:
    """Materialize the full coefficient table.

    The mask of e_p * e_q is p & q.  The signs are assembled by quadrant
    doubling: the size-2**t table from the size-2**(t-1) one, with the
    same quadrant rules the elementwise descent uses, so the two routes
    can be checked against each other.  The eq11 plane S doubles together
    with its transpose, each new pair written from contiguous copies of
    the old one, so no stage transposes.  The eq31 table is the opposite
    product's, whose signs are the transpose: the last stage writes only
    S (eq11) or its transpose (eq31), and both are C-contiguous.  The mask
    plane is symmetric, so it serves both conventions.
    """
    t = _index(t)
    if t < 1:
        raise ValueError("table depth must be >= 1")
    if t > MAX_TABLE_DEPTH:
        raise ValueError(f"depth {t} exceeds the resource guard "
                         f"({MAX_TABLE_DEPTH}); use twist_sign for pointwise queries")
    import numpy as np
    convention = Convention(convention)
    index = np.arange(1 << t, dtype=np.uint16)
    masks = np.bitwise_and.outer(index, index)  # symmetric, so eq31's too
    left = convention is Convention.CONJUGATE_LEFT
    signs = signs_t = np.ones((2, 2), dtype=np.int8)
    for stage in range(2, t + 1):
        h = 1 << (stage - 1)
        last = stage == t
        s = st = None  # the last stage writes only the plane it returns
        if not last or not left:
            # S: [[S, St], [-S, -St]] with columns 0 and h positive.
            s = np.empty((2 * h, 2 * h), dtype=np.int8)
            s[:h, :h] = signs
            s[:h, h:] = signs_t
            np.negative(s[:h], out=s[h:])
            s[h:, ::h] = 1
        if not last or left:
            # St: [[St, -St], [S, -S]] with rows 0 and h positive.
            st = np.empty((2 * h, 2 * h), dtype=np.int8)
            st[:h, :h] = signs_t
            st[h:, :h] = signs
            np.negative(st[:, :h], out=st[:, h:])
            st[::h, h:] = 1
        signs, signs_t = s, st
    return TwistTable(t, convention, signs_t if left else signs, masks)


class BlockKind(IntEnum):
    """2x2 tile patterns of a collapsed sign table in tree order.

    A, B, C and the negated B and C are the published tile alphabet, the
    one the left-conjugating table uses.  The right-conjugating table is
    the opposite product (its sign table is the transpose), so its
    alphabet has the B family transposed: A, Bt, C, -Bt, -C.
    """

    A = 0
    B = 1
    C = 2
    NEG_B = 3
    NEG_C = 4
    B_TRANSPOSED = 5
    NEG_B_TRANSPOSED = 6
    A_CORNER = 7

    def pattern(self) -> np.ndarray:
        import numpy as np
        return np.array(_TILES[0 if self is BlockKind.A_CORNER else self][1], dtype=np.int8)

    def label(self) -> str:
        return "A0" if self is BlockKind.A_CORNER else _TILES[self][0]


# Label and tile of each BlockKind below A_CORNER, indexed by kind.
_TILES = (
    ("A", ((1, 1), (1, -1))),
    ("B", ((1, -1), (1, 1))),
    ("C", ((1, -1), (-1, -1))),
    ("-B", ((-1, 1), (-1, -1))),
    ("-C", ((-1, 1), (1, 1))),
    ("Bt", ((1, 1), (-1, 1))),
    ("-Bt", ((-1, -1), (1, -1))),
)

# Each convention's tile alphabet, as BlockKind states it.
_ALPHABET = {
    Convention.CONJUGATE_LEFT: (BlockKind.A, BlockKind.B, BlockKind.C,
                                BlockKind.NEG_B, BlockKind.NEG_C),
    Convention.CONJUGATE_RIGHT: (BlockKind.A, BlockKind.B_TRANSPOSED, BlockKind.C,
                                 BlockKind.NEG_B_TRANSPOSED, BlockKind.NEG_C),
}


def _bit_reverse(x: int, t: int) -> int:
    return int(format(x, f"0{t}b")[::-1], 2)


def bit_reversal_permutation(t: int) -> np.ndarray:
    """Index permutation between XOR order and doubling-tree order.

    Built by doubling: the reversals of t + 1 bits are those of t bits,
    shifted left, followed by the same with the low bit set.
    """
    import numpy as np
    rev = np.zeros(1, dtype=np.int64)
    for _ in range(t):
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    return rev


def _tile_codes(bits: np.ndarray) -> np.ndarray:
    """Four quadrant bits of a boolean 2h x 2h matrix as one 4-bit code.

    Entry (P, Q) of the h x h result packs bits (P, Q), (P, Q+h),
    (P+h, Q) and (P+h, Q+h) as bits 0-3.
    """
    h = len(bits) // 2
    b = bits.view("uint8")
    return b[:h, :h] | b[:h, h:] << 1 | b[h:, :h] << 2 | b[h:, h:] << 3


@lru_cache(maxsize=None)
def _code_kind(convention: Convention) -> np.ndarray:
    """Negative-entry code of a tile -> BlockKind of the convention's
    alphabet, -1 for every other tile.

    The extra last code stands for a tile holding an entry other than +-1.
    """
    import numpy as np
    kinds = np.full(17, -1, dtype=np.int8)
    for kind in _ALPHABET[convention]:
        kinds[_tile_codes(kind.pattern() == -1)[0, 0]] = kind
    kinds.setflags(write=False)
    return kinds


def partition_blocks(table: TwistTable) -> np.ndarray:
    """Classify every aligned 2x2 tile of the sign table in tree order.

    The tile partition theorem holds in the enumeration where sibling
    basis indices differ in their lowest bit of the doubling tree, which
    is the bit reversal of the XOR-friendly indexing used everywhere
    else in this package.  Tile (i, j) therefore covers the four sign
    entries with row indices {P, P + n/2} and column indices
    {Q, Q + n/2} for P, Q the (t-1)-bit reversals of i, j.  Each tile is
    read as the 4-bit code of its negative entries straight from the
    four quadrants of the sign table; only the n/2 x n/2 code matrix is
    permuted into tree order.

    Returns a matrix of BlockKind codes, one per tile, each in the
    alphabet of the table's convention.  The origin tile holds the unit
    row and column and is reported as A_CORNER after being checked
    against pattern A.  Any other tile raises BlockClassificationError.
    """
    import numpy as np
    signs = table.sign_table()
    codes = _tile_codes(signs == -1)
    codes[(codes | _tile_codes(signs == 1)) != 15] = 16
    rev = bit_reversal_permutation(table.t - 1)
    kinds = _code_kind(table.convention)[codes[np.ix_(rev, rev)]]
    h = len(rev)

    def tile(i: int, j: int) -> list:
        p, q = rev[i], rev[j]
        return signs[[p, p + h]][:, [q, q + h]].tolist()

    if (kinds < 0).any():
        i, j = np.argwhere(kinds < 0)[0]
        entries = tile(i, j)
        alphabet = f"the {table.convention.value} alphabet"
        kind = next((k for k in BlockKind if k.pattern().tolist() == entries), None)
        raise BlockClassificationError(
            f"tile ({i}, {j}) matches no pattern of {alphabet}: {entries}" if kind is None
            else f"tile ({i}, {j}) is pattern {kind.label()}, outside {alphabet}: {entries}")
    if kinds[0, 0] != BlockKind.A:
        raise BlockClassificationError(
            f"unit-corner tile is not pattern A: {tile(0, 0)}")
    kinds[0, 0] = BlockKind.A_CORNER
    return kinds


def shuffle(p: int, q: int, t: int) -> List[Tuple[int, int]]:
    """Interleave the t-bit expansions of p and q, most significant first.

    Yields one (p_bit, q_bit) pair per stage, the order in which the
    walk on the tile patterns consumes them.
    """
    p, q = _index(p), _index(q)
    if not (0 <= p < 1 << t and 0 <= q < 1 << t):
        raise ValueError(f"indices ({p}, {q}) out of range for depth {t}")
    return [(p >> b & 1, q >> b & 1) for b in range(t - 1, -1, -1)]


def shuffle_string(p: int, q: int, t: int) -> str:
    return " ".join(f"{pb}{qb}" for pb, qb in shuffle(p, q, t))


# ---- power-of-two row check -------------------------------------------------

@dataclass(frozen=True)
class ProductCell:
    """One of the four products in the 2x2 claim, with its oracle verdict."""

    row: int
    col: int
    claimed_sign: int
    actual_sign: int
    actual_index: int

    @property
    def sign_matches(self) -> bool:
        return self.claimed_sign == self.actual_sign


@dataclass(frozen=True)
class PowerRowReport:
    """Oracle verdict on the claimed 2x2 product table for one (r, k, i).

    The claim concerns the row pair starting at 2**(k-r+1) against the
    column pair starting at the index with bit i and bits r..k set.  Two
    readings of the claimed result index are in circulation (one stated
    with 2**k, one computed with 2**(k-r+1)); the report records which
    one the actual product indices support.

    Signs are evaluated in two coordinate readings.  ``cells`` takes the
    operands literally in XOR indexing with +1 siblings.  ``tree_cells``
    takes them in doubling-tree enumeration (bit-reversed indices, so a
    +1 sibling is a top-bit flip); in that reading the four products
    always form a C tile up to one global sign, which is compared
    against both published exponents, (-1)**(r+2) from the table and
    (-1)**(k-r+1) from the supporting walk.
    """

    r: int
    k: int
    i: int
    t: int
    row_base: int
    col_base: int
    m_stated: int
    m_computed: int
    supported_index_reading: str
    cells: Tuple[ProductCell, ...]
    literal_signs_match_claim: bool
    tree_cells: Tuple[int, int, int, int]
    tree_forms_c_tile: bool
    tree_corner_sign: int
    tree_matches_table_sign: bool
    tree_matches_walk_sign: bool

    def to_dict(self) -> dict:
        return {
            "r": self.r, "k": self.k, "i": self.i, "t": self.t,
            "row_base": self.row_base, "col_base": self.col_base,
            "m_stated": self.m_stated, "m_computed": self.m_computed,
            "supported_index_reading": self.supported_index_reading,
            "literal_signs_match_claim": self.literal_signs_match_claim,
            "tree_cells": list(self.tree_cells),
            "tree_forms_c_tile": self.tree_forms_c_tile,
            "tree_corner_sign": self.tree_corner_sign,
            "tree_matches_table_sign": self.tree_matches_table_sign,
            "tree_matches_walk_sign": self.tree_matches_walk_sign,
            "cells": [
                {"row": c.row, "col": c.col, "claimed_sign": c.claimed_sign,
                 "actual_sign": c.actual_sign, "actual_index": c.actual_index,
                 "sign_matches": c.sign_matches}
                for c in self.cells
            ],
        }

    def summary(self) -> str:
        tree = "C-tile" if self.tree_forms_c_tile else "not a C-tile"
        return (f"r={self.r} k={self.k} i={self.i}: index reading "
                f"{self.supported_index_reading}; tree cells {tree} with corner "
                f"{self.tree_corner_sign:+d} (table claim "
                f"{(-1) ** (self.r + 2):+d}, walk claim "
                f"{(-1) ** (self.k - self.r + 1):+d})")


def power_row_operands(r: int, k: int, i: int, t: int) -> Tuple[int, int]:
    """Row and column base indices for the claim's (r, k, i) triple."""
    if not (r >= 1 and r < k <= i < t):
        raise ValueError(f"require 1 <= r < k <= i < t, got r={r} k={k} i={i} t={t}")
    row = 1 << (k - r + 1)
    col = (1 << i) | (((1 << (k + 1)) - 1) ^ ((1 << r) - 1))  # bit i plus bits r..k
    return row, col


def check_power_row_claim(r: int, k: int, i: int, t: int) -> PowerRowReport:
    """Evaluate the four claimed products via the sign oracle.

    The claim is stated for the left-conjugating convention with all
    parameters -1, which is what the oracle evaluates.
    """
    row, col = power_row_operands(r, k, i, t)
    base_sign = (-1) ** (r + 2)
    claim = {(0, 0): base_sign, (0, 1): -base_sign,
             (1, 0): -base_sign, (1, 1): -base_sign}
    cells = []
    tree_cells = []
    half = 1 << (t - 1)
    left = Convention.CONJUGATE_LEFT
    rrow, rcol = _bit_reverse(row, t), _bit_reverse(col, t)
    for dr in (0, 1):
        for dc in (0, 1):
            p, q = row + dr, col + dc
            cells.append(ProductCell(
                row=p, col=q,
                claimed_sign=claim[(dr, dc)],
                actual_sign=twist_sign(p, q, t, left),
                actual_index=p ^ q,
            ))
            tree_cells.append(
                twist_sign(rrow ^ (dr * half), rcol ^ (dc * half), t, left))
    m_stated = (1 << k) ^ col
    m_computed = row ^ col
    actual = tuple(c.actual_index for c in cells)
    fits_computed = actual == (m_computed, m_computed + 1, m_computed + 1, m_computed)
    fits_stated = actual == (m_stated, m_stated + 1, m_stated + 1, m_stated)
    if fits_computed and fits_stated:
        reading = "both"
    elif fits_computed:
        reading = "computed"
    elif fits_stated:
        reading = "stated"
    else:
        reading = "neither"
    corner = tree_cells[0]
    forms_c = tuple(tree_cells) == (corner, -corner, -corner, -corner)
    return PowerRowReport(
        r=r, k=k, i=i, t=t, row_base=row, col_base=col,
        m_stated=m_stated, m_computed=m_computed,
        supported_index_reading=reading,
        cells=tuple(cells),
        literal_signs_match_claim=all(c.sign_matches for c in cells),
        tree_cells=tuple(tree_cells),
        tree_forms_c_tile=forms_c,
        tree_corner_sign=corner if forms_c else 0,
        tree_matches_table_sign=forms_c and corner == base_sign,
        tree_matches_walk_sign=forms_c and corner == (-1) ** (k - r + 1),
    )


def admissible_triples(t: int) -> Iterator[Tuple[int, int, int]]:
    """All (r, k, i) with 1 <= r < k <= i < t."""
    for r in range(1, t):
        for k in range(r + 1, t):
            for i in range(k, t):
                yield r, k, i


def sweep_power_row_claims(t: int) -> List[PowerRowReport]:
    return [check_power_row_claim(r, k, i, t) for r, k, i in admissible_triples(t)]
