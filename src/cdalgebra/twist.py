"""Structure constants of the doubling basis, and their sign tables.

A product of two basis elements e_p * e_q is a signed parameter monomial
times the basis element e_(p ^ q).  The monomial's stage parameters are
the bits of p & q, and its sign is a parity of p and q computed in
O(log L) word operations on L-bit indices (``algebra._coefficient``,
which the product kernel also reads).  This module evaluates that
coefficient, materializes tables as one sign plane (doubled together
with its transpose, so that no stage transposes; masks are p & q, taken
where they are read and never stored), collapses them to sign tables
(the base signs times the parity of p & q), partitions sign tables into
the five 2x2 block patterns, and checks the published product-table
claim for rows indexed by powers of two.

numpy is imported only where a table is built or read.  Tiles are also
classified on sign rows held as ints (``_tile_kinds``), so that ``blocks``
runs on the kernel's rows (``algebra._sign_rows``) up to
``KERNEL_MAX_DEPTH`` without numpy; ``partition_blocks`` reads a table's
tiles with numpy at every depth.
"""
from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .algebra import (_CONJUGATE_LEFT, _CONJUGATE_RIGHT, MAX_TABLE_DEPTH, AlgebraSignature,
                      Convention, Element, Rational, _coefficient, _Frozen, _index,
                      as_rational)

if TYPE_CHECKING:
    import numpy as np


class BlockClassificationError(Exception):
    """A 2x2 tile of a sign table matched none of the allowed patterns."""


class TwistCoefficient(_Frozen):
    """Sign times a product of stage parameters, one bit per stage.

    Bit ``i - 1`` of ``gamma_mask`` selects the stage-``i`` parameter.
    """

    __slots__ = ("sign", "gamma_mask")
    sign: int
    gamma_mask: int

    def __init__(self, sign: int, gamma_mask: int):
        if type(sign) is not int or type(gamma_mask) is not int:
            raise TypeError("sign and gamma_mask must be ints")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if gamma_mask < 0:
            raise ValueError("gamma_mask must be nonnegative")
        self._set(sign, gamma_mask)

    def value(self, gammas: Sequence[Rational]) -> Rational:
        """Evaluate against concrete stage parameters, each an exact rational.

        A mask that selects a stage beyond the given parameters is refused.
        """
        if self.gamma_mask.bit_length() > len(gammas):
            raise ValueError(f"gamma_mask {self.gamma_mask:#b} selects stage "
                             f"{self.gamma_mask.bit_length()}, but {len(gammas)} "
                             f"parameters are given")
        v: Rational = self.sign
        for i, g in enumerate(gammas):
            g = as_rational(g)
            if self.gamma_mask >> i & 1:
                v = v * g
        return v


# TwistCoefficient(sign, mask) for a pair from ``_coefficient`` or a table entry,
# unchecked: a sign of +-1 and a nonnegative int mask are correct by construction.
_twist_coefficient = TwistCoefficient._new


def basis_product(p: int, q: int, sig: AlgebraSignature) -> Tuple[TwistCoefficient, int]:
    """Coefficient and index of the product of basis elements p and q.

    The range check compares bit lengths, as ``twist_sign`` does, so that no
    2**t is built.
    """
    if type(p) is not int or type(q) is not int:
        p, q = _index(p), _index(q)
    if p < 0 or q < 0 or (p | q).bit_length() > sig.t:
        raise ValueError(f"basis indices ({p}, {q}) out of range for dimension "
                         f"{sig.dimension}")
    if sig.convention is _CONJUGATE_LEFT:
        sign, mask = _coefficient(q, p)
    else:
        sign, mask = _coefficient(p, q)
    return _twist_coefficient(sign, mask), p ^ q


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
    2**t.  ``convention`` is a member or its value; anything else is
    refused with ``ValueError``.
    """
    if type(p) is not int or type(q) is not int or type(t) is not int:
        p, q, t = _index(p), _index(q), _index(t)
    if p < 0 or q < 0 or (p | q).bit_length() > t:  # also every t < 0
        raise ValueError(f"basis indices ({p}, {q}) out of range for depth {t}")
    if convention is not _CONJUGATE_RIGHT and (
            convention is _CONJUGATE_LEFT or Convention(convention) is _CONJUGATE_LEFT):
        p, q = q, p
    sign, mask = _coefficient(p, q)
    return -sign if mask.bit_count() & 1 else sign


class TwistTable(_Frozen):
    """Dense table of structure coefficients for one depth and convention.

    ``base_signs[p, q]`` (int8) is the sign of e_p * e_q.  Its mask is
    p & q, which ``entry``, ``__eq__`` and the ``gamma_masks`` property
    derive where they read it, so no mask plane is kept.  Other dtypes,
    and a sign plane holding any entry other than +-1, are refused when
    the table is made, rather than truncated or refused on read.  Tables
    are immutable once built: the constructor keeps a read-only copy of
    each plane it is given, and the caller's arrays stay as they were.

    A ``gamma_masks`` plane may still be passed in, so that checkers can
    be tested on tables whose masks are wrong.  It is validated, copied
    read-only and read by ``entry``, ``__eq__`` and ``gamma_masks``, but
    not by ``sign_table()``, which derives the parity of each mask from
    the index: on a table whose plane is not p & q, ``sign_table()``
    disagrees with ``entry()``.
    """

    __slots__ = ("t", "convention", "base_signs", "_masks")

    def __init__(self, t: int, convention: Convention, base_signs: np.ndarray,
                 gamma_masks: Optional[np.ndarray] = None):
        t = _index(t)
        if t < 1:
            raise ValueError("table depth must be >= 1")
        n = 1 << t
        planes = (("base_signs", base_signs, "int8"),)
        if gamma_masks is not None:
            planes += (("gamma_masks", gamma_masks, "uint16"),)
        for name, plane, dtype in planes:
            if getattr(plane, "dtype", None) != dtype:
                raise TypeError(f"{name} must be a {dtype} array, "
                                f"got {getattr(plane, 'dtype', type(plane).__name__)}")
            if plane.shape != (n, n):
                raise ValueError("table arrays do not match the stated depth")
        # Private copies: a caller's array, or the base of a view, stays
        # writable and cannot change the table.
        import numpy as np
        base_signs = np.array(base_signs, order="C")
        if gamma_masks is not None:
            gamma_masks = np.array(gamma_masks, order="C")
            gamma_masks.setflags(write=False)
        if not (base_signs.min() >= -1 and base_signs.max() <= 1
                and np.count_nonzero(base_signs) == base_signs.size):
            raise ValueError("base_signs must hold only +1 and -1")
        base_signs.setflags(write=False)
        self._set(t, Convention(convention), base_signs, gamma_masks)

    def __reduce__(self):
        # Through the constructor, so that unpickled planes are checked and kept read-only.
        return TwistTable, (self.t, self.convention, self.base_signs, self._masks)

    @property
    def dimension(self) -> int:
        return 1 << self.t

    @property
    def gamma_masks(self) -> np.ndarray:
        """The uint16 mask plane, read-only: p & q unless one was passed in.

        A derived plane is built afresh on each read (2 * 4**t bytes) and
        not kept; read single masks with ``entry``.
        """
        if self._masks is not None:
            return self._masks
        import numpy as np
        index = np.arange(self.dimension, dtype=np.uint16)
        masks = np.bitwise_and.outer(index, index)
        masks.setflags(write=False)
        return masks

    def entry(self, p: int, q: int) -> TwistCoefficient:
        if type(p) is not int or type(q) is not int:
            p, q = _index(p), _index(q)
        if p < 0 or q < 0 or (p | q).bit_length() > self.t:
            raise ValueError(f"basis indices ({p}, {q}) out of range for dimension "
                             f"{self.dimension}")
        mask = p & q if self._masks is None else int(self._masks[p, q])
        return _twist_coefficient(int(self.base_signs[p, q]), mask)

    def sign_table(self) -> np.ndarray:
        """Collapsed signs under all-(-1) parameters, as a new int8 matrix.

        The mask of e_p * e_q is p & q, so the collapsed sign is the base
        sign times (-1) ** popcount(p & q): the Sylvester-Hadamard matrix,
        doubled as [[H, H], [H, -H]] into the result's own buffer.  A mask
        plane passed to the constructor is not read.
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
                and (self._masks is None and other._masks is None
                     or np.array_equal(self.gamma_masks, other.gamma_masks)))

    def __hash__(self) -> int:
        # Equal tables share depth and convention; hashing the planes would cost O(4**t).
        return hash((self.t, self.convention))

    def __repr__(self) -> str:
        return f"TwistTable(t={self.t}, convention={self.convention.value})"


def build_table(t: int,
                convention: Convention = Convention.CONJUGATE_RIGHT) -> TwistTable:
    """Materialize the table's sign plane; its masks are p & q.

    The signs are assembled by quadrant doubling: the size-2**t table
    from the size-2**(t-1) one, with the same quadrant rules the
    elementwise descent uses, so the two routes can be checked against
    each other.  The eq11 plane S doubles together with its transpose,
    each new pair written from contiguous copies of the old one, so no
    stage transposes.  The eq31 table is the opposite product's, whose
    signs are the transpose: the last stage writes only S (eq11) or its
    transpose (eq31), and both are C-contiguous.
    """
    t = _index(t)
    if t < 1:
        raise ValueError("table depth must be >= 1")
    if t > MAX_TABLE_DEPTH:
        raise ValueError(f"depth {t} exceeds the resource guard "
                         f"({MAX_TABLE_DEPTH}); use twist_sign for pointwise queries")
    import numpy as np
    convention = Convention(convention)
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
    signs = signs_t if left else signs
    signs.setflags(write=False)
    # +-1 by construction, so the constructor's checks are skipped.
    return TwistTable._new(t, convention, signs, None)


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


def _alphabet_codes(kinds: Sequence[BlockKind]) -> bytes:
    """The BlockKind of each 4-bit negative-entry code (entry (r, c) of a tile at
    bit 2r + c, as ``_tile_codes`` packs it), 0xff for a tile outside ``kinds``."""
    codes = bytearray(b"\xff" * 16)
    for kind in kinds:
        tile = _TILES[kind][1]
        codes[sum(1 << 2 * r + c for r in (0, 1) for c in (0, 1) if tile[r][c] < 0)] = kind
    return bytes(codes)


# Each convention's alphabet by tile code, the one table both tile classifiers read.
_CODE_KINDS = {convention: _alphabet_codes(kinds) for convention, kinds in _ALPHABET.items()}


def _bit_reverse(x: int, t: int) -> int:
    return int(format(x, f"0{t}b")[::-1], 2)


def bit_reversal_permutation(t: int) -> np.ndarray:
    """Index permutation between XOR order and doubling-tree order.

    Built by doubling: the reversals of t + 1 bits are those of t bits,
    shifted left, followed by the same with the low bit set.
    """
    t = _index(t)
    if t < 0:
        raise ValueError(f"depth must be >= 0, got {t}")
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


def _check_tiles(bad: Optional[Tuple[int, int]], corner: int, tile: Callable,
                 convention: Convention) -> None:
    """Raise BlockClassificationError for the first tile outside the alphabet,
    ``bad`` in row-major tree order, and then for a ``corner`` kind other than A.

    ``tile(i, j)`` gives the signs of tile (i, j) as a 2 x 2 list.
    """
    if bad is not None:
        i, j = bad
        entries = tile(i, j)
        alphabet = f"the {convention.value} alphabet"
        label = next((label for label, pattern in _TILES
                      if pattern == tuple(map(tuple, entries))), None)
        raise BlockClassificationError(
            f"tile ({i}, {j}) matches no pattern of {alphabet}: {entries}" if label is None
            else f"tile ({i}, {j}) is pattern {label}, outside {alphabet}: {entries}")
    if corner != BlockKind.A:
        raise BlockClassificationError(f"unit-corner tile is not pattern A: {tile(0, 0)}")


def _tile_kinds(rows: Sequence[int], convention: Convention) -> List[bytes]:
    """The tile kinds of a sign table given as rows, one ``bytes`` per tree-order row.

    Bit q of ``rows[p]`` is set where sign (p, q) is -1.  Each row pair
    {P, P + h} becomes one int holding the 4-bit code of column Q's tile in
    hex digit Q: each half-row's bits, written in binary and read as hex,
    land one to a digit.  Bit-reversal swaps of the digits put the columns
    in tree order, and ``bytes.translate`` maps each hex digit to its kind.
    Ints and bytes only, so that no numpy is needed where the rows are.
    """
    h = len(rows) // 2
    m = h.bit_length() - 1
    low = (1 << h) - 1
    # Swapping index bits a and m - 1 - a for every a < m / 2 reverses all m:
    # each swap trades the digits whose index has only the lower of the two set
    # with those that have only the higher.
    swaps = []
    for a in range(m // 2):
        shift = 4 * ((1 << (m - 1 - a)) - (1 << a))
        lower = sum(15 << 4 * q for q in range(h) if q >> a & 1 and not q >> (m - 1 - a) & 1)
        swaps.append((shift, lower))
    tree = [_bit_reverse(i, m) for i in range(h)]
    kind_of_digit = bytes.maketrans(b"0123456789abcdef", _CODE_KINDS[convention])
    kinds = []
    for p in tree:
        top, bottom = rows[p], rows[p + h]
        code = (int(f"{top & low:b}", 16) | int(f"{top >> h:b}", 16) << 1
                | int(f"{bottom & low:b}", 16) << 2 | int(f"{bottom >> h:b}", 16) << 3)
        for shift, lower in swaps:
            d = (code >> shift ^ code) & lower
            code ^= d | d << shift
        kinds.append((b"%0*x" % (h, code))[::-1].translate(kind_of_digit))

    def tile(i: int, j: int) -> list:
        p, q = tree[i], tree[j]
        return [[-1 if rows[r] >> c & 1 else 1 for c in (q, q + h)] for r in (p, p + h)]

    bad = next(((i, row.find(0xff)) for i, row in enumerate(kinds) if 0xff in row), None)
    _check_tiles(bad, kinds[0][0], tile, convention)
    kinds[0] = bytes((BlockKind.A_CORNER,)) + kinds[0][1:]
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

    Returns a new matrix of BlockKind codes, one per tile, each in the
    alphabet of the table's convention.  The origin tile holds the unit
    row and column and is reported as A_CORNER after being checked
    against pattern A.  Any other tile raises BlockClassificationError,
    the first in row-major tree order.
    """
    if not isinstance(table, TwistTable):
        raise TypeError(f"expected a TwistTable, got {type(table).__name__}")
    import numpy as np
    signs = table.sign_table()
    codes = _tile_codes(signs == -1)
    rev = bit_reversal_permutation(table.t - 1)
    code_kind = np.frombuffer(_CODE_KINDS[table.convention], dtype=np.int8)
    kinds = code_kind[codes[np.ix_(rev, rev)]]
    h = len(rev)

    def tile(i: int, j: int) -> list:
        p, q = rev[i], rev[j]
        return signs[[p, p + h]][:, [q, q + h]].tolist()

    outside = kinds < 0
    _check_tiles(tuple(np.argwhere(outside)[0]) if outside.any() else None, kinds[0, 0],
                 tile, table.convention)
    kinds[0, 0] = BlockKind.A_CORNER
    return kinds


def shuffle(p: int, q: int, t: int) -> List[Tuple[int, int]]:
    """Interleave the t-bit expansions of p and q, most significant first.

    Yields one (p_bit, q_bit) pair per stage, the order in which the
    walk on the tile patterns consumes them.
    """
    p, q, t = _index(p), _index(q), _index(t)
    if not (t >= 0 and 0 <= p < 1 << t and 0 <= q < 1 << t):
        raise ValueError(f"indices ({p}, {q}) out of range for depth {t}")
    return [(p >> b & 1, q >> b & 1) for b in range(t - 1, -1, -1)]


def shuffle_string(p: int, q: int, t: int) -> str:
    return " ".join(f"{pb}{qb}" for pb, qb in shuffle(p, q, t))


# ---- power-of-two row check -------------------------------------------------

class ProductCell(_Frozen):
    """One of the four products in the 2x2 claim, with its oracle verdict."""

    __slots__ = ("row", "col", "claimed_sign", "actual_sign", "actual_index")
    row: int
    col: int
    claimed_sign: int
    actual_sign: int
    actual_index: int

    @property
    def sign_matches(self) -> bool:
        return self.claimed_sign == self.actual_sign


class PowerRowReport(_Frozen):
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
    (-1)**(k-r+1) from the supporting walk.  Only the eight measured
    products are stored; every verdict is derived from them.
    """

    __slots__ = ("r", "k", "i", "t", "cells", "tree_cells")
    r: int
    k: int
    i: int
    t: int
    cells: Tuple[ProductCell, ...]
    tree_cells: Tuple[int, int, int, int]

    @property
    def row_base(self) -> int:
        return self.cells[0].row

    @property
    def col_base(self) -> int:
        return self.cells[0].col

    @property
    def m_stated(self) -> int:
        return (1 << self.k) ^ self.col_base

    @property
    def m_computed(self) -> int:
        return self.row_base ^ self.col_base

    @property
    def supported_index_reading(self) -> str:
        """Which of m_computed and m_stated the actual indices fit as
        (m, m + 1, m + 1, m): "both", "computed", "stated" or "neither"."""
        actual = tuple(c.actual_index for c in self.cells)
        computed, stated = (actual == (m, m + 1, m + 1, m)
                            for m in (self.m_computed, self.m_stated))
        if computed:
            return "both" if stated else "computed"
        return "stated" if stated else "neither"

    @property
    def literal_signs_match_claim(self) -> bool:
        return all(c.sign_matches for c in self.cells)

    @property
    def tree_forms_c_tile(self) -> bool:
        corner = self.tree_cells[0]
        return self.tree_cells == (corner, -corner, -corner, -corner)

    @property
    def tree_corner_sign(self) -> int:
        """The C tile's global sign, 0 when the tree cells form no C tile."""
        return self.tree_cells[0] if self.tree_forms_c_tile else 0

    @property
    def tree_matches_table_sign(self) -> bool:
        return self.tree_corner_sign == (-1) ** (self.r + 2)

    @property
    def tree_matches_walk_sign(self) -> bool:
        return self.tree_corner_sign == (-1) ** (self.k - self.r + 1)

    def summary(self) -> str:
        tree = "C-tile" if self.tree_forms_c_tile else "not a C-tile"
        return (f"r={self.r} k={self.k} i={self.i}: index reading "
                f"{self.supported_index_reading}; tree cells {tree} with corner "
                f"{self.tree_corner_sign:+d} (table claim "
                f"{(-1) ** (self.r + 2):+d}, walk claim "
                f"{(-1) ** (self.k - self.r + 1):+d})")


def power_row_operands(r: int, k: int, i: int, t: int) -> Tuple[int, int]:
    """Row and column base indices for the claim's (r, k, i) triple."""
    r, k, i, t = map(_index, (r, k, i, t))
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
    r, k, i, t = map(_index, (r, k, i, t))
    row, col = power_row_operands(r, k, i, t)
    base_sign = (-1) ** (r + 2)
    claim = {(0, 0): base_sign, (0, 1): -base_sign,
             (1, 0): -base_sign, (1, 1): -base_sign}
    half = 1 << (t - 1)
    left = Convention.CONJUGATE_LEFT
    rrow, rcol = _bit_reverse(row, t), _bit_reverse(col, t)
    cells = tuple(ProductCell(row=row + dr, col=col + dc, claimed_sign=claimed,
                              actual_sign=twist_sign(row + dr, col + dc, t, left),
                              actual_index=(row + dr) ^ (col + dc))
                  for (dr, dc), claimed in claim.items())
    tree_cells = tuple(twist_sign(rrow ^ (dr * half), rcol ^ (dc * half), t, left)
                       for dr, dc in claim)
    return PowerRowReport(r=r, k=k, i=i, t=t, cells=cells, tree_cells=tree_cells)


def sweep_power_row_claims(t: int) -> List[PowerRowReport]:
    """The reports of every (r, k, i) with 1 <= r < k <= i < t."""
    t = _index(t)
    if t < 0:
        raise ValueError(f"depth must be >= 0, got {t}")
    return [check_power_row_claim(r, k, i, t)
            for r in range(1, t) for k in range(r + 1, t) for i in range(k, t)]
