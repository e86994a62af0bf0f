"""Exact Cayley-Dickson algebras over the rationals.

An algebra of dimension 2**t is built by applying the doubling product
t times to the rationals, with one nonzero parameter per doubling stage.
Elements are immutable coefficient vectors over exact scalars (int or
fractions.Fraction); every operation is a pure function, so values are
safe to share between threads.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, attrgetter, floordiv, index, mul, neg, sub
from typing import Iterable, Sequence, Tuple, Union

Rational = Union[int, Fraction]


class Convention(str, Enum):
    """Which operand the doubling product conjugates.

    The two variants build isomorphic algebras but differ elementwise,
    so every basis-level sign in tests and exported tables is pinned to
    one of them. ``CONJUGATE_RIGHT`` is the default everywhere.

    ``eq31`` is the opposite algebra of ``eq11``: x*y under eq31 equals
    y*x under eq11 at every depth, signs and stage masks included (by
    induction, eq31(a, b) and eq11(b, a) expand to the same pair). The
    code therefore implements only the eq11 formula and reaches eq31 by
    swapping operands, or transposing tables, at the public entry points.
    """

    CONJUGATE_RIGHT = "eq11"  # (a1*b1 + g*conj(b2)*a2, a2*conj(b1) + b2*a1)
    CONJUGATE_LEFT = "eq31"   # (a1*b1 + g*b2*conj(a2), conj(a1)*b2 + b1*a2)


# Module-level names: reading the member off the enum class on every
# product costs about a tenth of a depth-1 product.
_CONJUGATE_LEFT = Convention.CONJUGATE_LEFT
_CONJUGATE_RIGHT = Convention.CONJUGATE_RIGHT


def as_rational(value: Rational) -> Rational:
    """Coerce to an exact scalar, rejecting floats.

    Fractions with denominator 1 and int subclasses collapse to int, so
    that integer-only computations stay on the fast path; other Fraction
    subclasses come back as a plain Fraction.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid scalar")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        return num if den == 1 else Fraction(num, den)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _index(value) -> int:
    """``operator.index(value)``, refusing bool: it would stand for 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("index must be an int, not bool")
    return index(value)


class _Frozen:
    """Base of every value type: a value is its fields, and no attribute can be set.

    ``_fields`` names the fields, by default the stored slots: the class's own,
    in ``__slots__`` order, less those named in ``_transient``.  ``==`` (the
    same type and equal fields), ``hash`` and ``repr`` read the fields alone, as
    a frozen dataclass's do, so a class that names its fields may keep derived
    values in further slots.  Two rules follow from Python: a class that
    defines ``__eq__`` must define ``__hash__`` too, or it has none; and
    ``_values`` gives a tuple only over two or more fields, so every type has
    two or more.

    Every value is built by one rule, written out as source over the class's
    own slot names and compiled once when the class is made, as ``dataclasses``
    writes ``__init__``: ``cls._new(*slots)`` makes an instance and
    ``self._set(*slots)`` fills one, both from the stored slots, each set
    through its descriptor, with no loop.  ``_new`` is the constructor of
    internal results, which are valid by construction and so skip the boundary
    validation; a public ``__init__`` validates its arguments, then calls
    ``_set``.  Unless the class defines its own, ``__init__`` is written out
    in the same source, over the fields: it takes them in order, positionally
    or by name, and stores them unchecked, and a wrong call raises the
    ``TypeError`` a dataclass's would.

    Pickles and copies rebuild through ``_new`` from the stored slots, so they
    do not rerun the constructor's validation.  Slots named in ``_transient``
    are not saved: they are rebuilt on first use.
    """

    __slots__ = ()
    _transient = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__["__slots__"]
        stored = [s for s in slots if s not in cls._transient]
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(stored)
        cls._values = attrgetter(*cls._fields)
        cls._stored = attrgetter(*stored)

        # The source's globals start with two underscores, which no slot name
        # can (Python mangles it), so no parameter hides one.
        def setting(names):
            return "".join(f" __set_{name}(self, {name})\n" for name in names)
        source = (f"def _new({', '.join(stored)}):\n self = __make(__cls)\n"
                  f"{setting(stored)} return self\n"
                  f"def _set(self, {', '.join(stored)}):\n{setting(stored)}")
        if "__init__" not in cls.__dict__:
            source += f"def __init__(self, {', '.join(cls._fields)}):\n{setting(cls._fields)}"
        namespace = {"__make": object.__new__, "__cls": cls}
        namespace.update((f"__set_{name}", cls.__dict__[name].__set__) for name in slots)
        exec(compile(source, f"<constructors of {cls.__qualname__}>", "exec"), namespace)
        for name in ("_new", "_set", "__init__"):
            if name in namespace:
                function = namespace[name]
                # The qualified name makes a wrong call read, say,
                # "ProductCell.__init__() missing 1 required positional
                # argument", and lets pickle find _new on the class.
                function.__qualname__ = f"{cls.__qualname__}.{name}"
                function.__module__ = cls.__module__
                setattr(cls, name, staticmethod(function) if name == "_new" else function)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self._new, self._stored(self)


class AlgebraSignature(_Frozen):
    """Doubling depth, stage parameters, and product convention.

    Two elements interoperate only when their signatures compare equal.
    ``t = 0`` is the base field itself (dimension 1).

    ``_scaled`` keeps the signature's kernel, filled on first use
    (``_kernel``).  It holds generated functions, which do not pickle, so
    pickles and copies carry (t, gammas, convention) alone.
    """

    __slots__ = ("t", "gammas", "convention", "_scaled")
    _transient = ("_scaled",)

    def __init__(self, t: int, gammas: Sequence[Rational],
                 convention: Convention = Convention.CONJUGATE_RIGHT):
        t = _index(t)
        if t < 0:
            raise ValueError(f"doubling depth must be >= 0, got {t}")
        gammas = tuple(map(as_rational, gammas))
        if len(gammas) != t:
            raise ValueError(f"expected {t} stage parameters, got {len(gammas)}")
        if 0 in gammas:
            raise ValueError("stage parameters must all be nonzero")
        self._set(t, gammas, convention if type(convention) is Convention
                  else Convention(convention))

    @property
    def dimension(self) -> int:
        return 1 << self.t

    def __repr__(self) -> str:
        gs = ", ".join(str(g) for g in self.gammas)
        return f"AlgebraSignature(t={self.t}, gammas=({gs}), {self.convention.value})"

    def _kernel(self) -> tuple:
        """``_bind_kernel(self.t, self.gammas)``, built and kept in ``_scaled``.

        The one place a kernel is bound.  Callers read the slot and call this
        only where it is still empty.
        """
        kernel = _bind_kernel(self.t, self.gammas)
        object.__setattr__(self, "_scaled", kernel)
        return kernel

    # ---- element factories -------------------------------------------------

    def element(self, coeffs: Iterable[Rational]) -> Element:
        return Element(self, coeffs)

    def zero(self) -> Element:
        return _element(self, (0,) * self.dimension, 1)

    def one(self) -> Element:
        return _element(self, (1,) + (0,) * (self.dimension - 1), 1)

    def scalar(self, c: Rational) -> Element:
        c = as_rational(c)
        return _element(self, (c.numerator,) + (0,) * (self.dimension - 1), c.denominator)

    def basis(self, p: int) -> Element:
        """The basis element with index ``p`` (``basis(0)`` is the unit)."""
        p = _index(p)
        if not 0 <= p < self.dimension:
            raise ValueError(f"basis index {p} out of range for dimension {self.dimension}")
        return _element(self, (0,) * p + (1,) + (0,) * (self.dimension - p - 1), 1)


def _scaled_constants(gammas: Sequence[Rational]) -> tuple:
    """(signed, D, weights), the stage parameters scaled to integers.

    D = prod(den(gamma_i)), ``signed[2 * mask + s]`` = (-1)**s * D * prod(gamma_i,
    bit i of mask) and the norm's ``weights[p]`` = D * prod(-gamma_i, bit i of p).
    Zero parameters are allowed here, so the weights of a form are defined even
    where no algebra is.
    """
    monomials = [1]
    den = 1
    for g in gammas:
        a, b = g.as_integer_ratio()
        monomials = [m * c for c in (b, a) for m in monomials]
        den *= b
    signed = [v for m in monomials for v in (m, -m)]
    weights = [signed[2 * p + (p.bit_count() & 1)] for p in range(len(monomials))]
    return signed, den, weights


def make_algebra(t: int, gammas: Sequence[Rational],
                 convention: Convention = Convention.CONJUGATE_RIGHT) -> AlgebraSignature:
    """Validated signature for the depth-``t`` doubling algebra."""
    return AlgebraSignature(t, gammas, convention)


def quaternions(convention: Convention = Convention.CONJUGATE_RIGHT) -> AlgebraSignature:
    """The classical quaternions: depth 2, both parameters -1."""
    return AlgebraSignature(2, (-1, -1), convention)


def octonions(convention: Convention = Convention.CONJUGATE_RIGHT) -> AlgebraSignature:
    return AlgebraSignature(3, (-1, -1, -1), convention)


def sedenions(convention: Convention = Convention.CONJUGATE_RIGHT) -> AlgebraSignature:
    return AlgebraSignature(4, (-1, -1, -1, -1), convention)


def _conj(a: tuple) -> tuple:
    # Negating every coordinate but the scalar one is what the recursive
    # definition (conjugate low half, negate high half) unrolls to.
    return a[:1] + tuple(map(neg, a[1:]))


# ---- structure-constant kernel ----------------------------------------------
#
# e_p * e_q = sign(p, q) * prod(gamma_i for i in mask(p, q)) * e_(p^q), the
# entries of twist.build_table.  Scaled by D = prod(den(gamma_i)), every
# constant is the integer sign * prod(num(gamma_i), i in mask)
# * prod(den(gamma_i), i not in mask), so a product is integer arithmetic on
# the stored numerators with a single gcd reduction at the end.
#
# Every Element product runs here, at every depth.  A signature binds its
# depth's functions once, on first use (_bind_kernel), and keeps them with its
# scaled constants, so a product, norm or inverse reads one slot and makes one
# call.  Up to depth 3 the product is _straight(t), the product written out as
# one compiled function.  Above depth 3 it is one switch, _dense_or_pairs: a
# loop over the nonzero coefficient pairs up to a pair-count limit bound per
# signature, and the dense product past it.  The pair loop reads the codes up
# to KERNEL_MAX_DEPTH and calls _coefficient above it.  The dense product is
# _straight(t) at t = 4-5 and, from t = 6 on, a split into halves by the eq11
# stage rule down to _straight(5) (_halves), so no table is built above depth 5
# for a dense product.  The limits are the measured crossings:
#   - t = 4-5, n**2 // 6: generated products take 0.39 / 1.5 / 5.7 / 26 us at
#     t = 2-5 against 3.1 / 7.7 / 25 / 102 us by the pair loop on dense
#     operands, and the two crossed near 34 pairs at t = 4 and 190 at t = 5;
#     compiling a depth's product with the norm and conjugate below takes
#     0.18 / 0.37 / 1.0 / 3.3 ms once per process;
#   - t = 6 to KERNEL_MAX_DEPTH, n * (n + 8) // 2, where the halves take over;
#   - above, n**2 // 24: a _coefficient call takes 0.8-1.0 us at 9-12 bits
#     and a pair of the loop 0.9-1.1 us, and against a full operand the loop
#     crossed the halves near n**2 / 20-24 at t = 9-11.
# The doubling recursion to scalars is the oracle the tests compare them against.
#
# The same compile writes out the norm (the weighted sum of squares) and the
# scaled conjugate that inverse returns, so at t <= STRAIGHT_MAX_DEPTH the
# kernel binds those too: the norm's sum takes 0.10 / 0.16 / 0.30 / 0.54 / 1.2
# us at t = 1-5 against 0.43 / 0.57 / 0.87 / 1.2 / 1.8 us by sum(map(...)), and
# the conjugate 0.12 / 0.15 / 0.24 / 0.31 / 0.86 us against 0.53 / 0.57 / 0.69
# / 0.89 / 1.2 us.  Above that depth both stay loops (_norm_sum, _conjugate).
# (Integer coefficients in [-9, 9], parameters -1, best of five alternated
# processes, Python 3.11 on a 2-vCPU host.)


def _coefficient(p: int, q: int) -> Tuple[int, int]:
    """(sign, gamma_mask) of the eq11 basis product, in O(log L) word operations.

    The descent on the top bit of p | q applies one line of the doubling
    product per stage j: a swap of the factors' lower bits where the right
    factor has bit j (the product order reverses), a sign flip where the
    left factor has bit j and the right factor is a nonzero pure vector
    below it (its conjugate appears), and the stage parameter where both
    factors have bit j.  Swaps never change the unordered pair of bits at a
    stage, so the parameter enters exactly at a = p & q.  The orientation
    o_j (whether the factors are swapped at stage j) is the segmented suffix
    xor of q: o_j = q_(j+1) ^ ... ^ q_k, with k the nearest stage above j
    where d = p ^ q is set, or the top stage.  Where d_k is clear the right
    factor's bit at k is q_k in either orientation; where d_k is set the
    orientation resets to q_k.  One log-step scan computes it in log2(L)
    shifts of L = (p | q).bit_length() bits, so the depth does not enter.
    Its stop mask ``go`` (no stop in the window above j) is bounded to L
    bits, so every int in the loop is nonnegative; stages at L and above
    count as stops, where q has no bits.  eq31 is the opposite product, so
    callers reach it by passing (q, p).
    """
    a = p & q
    d = p ^ q
    width = (p | q).bit_length()
    orient = q >> 1
    go = (d >> 1) ^ ((1 << width) - 1)
    shift = 1
    while shift < width:
        orient ^= orient >> shift & go
        go &= go >> shift
        shift <<= 1
    left = p ^ (orient & d)
    # Stages above the lowest set bit of a factor see it nonzero below.
    p_below = -(p & -p) << 1
    q_below = -(q & -q) << 1
    flips = left & ((orient & p_below) | (~orient & q_below))
    return -1 if flips.bit_count() & 1 else 1, a


# The pair loop reads codes up to here and calls _coefficient above, so a
# sparse product builds no table above depth 8: _codes(t) would take about
# 20 ms and 4 MB at t = 9, 0.1 s and 24 MB at t = 10, 0.45 s and 107 MB at
# t = 11, where a product of two four-term elements by _coefficient takes
# 0.04 / 0.06 / 0.22 ms at t = 9 / 10 / 12 (the doubling recursion took
# 1.0 / 1.7 / 6.0 ms).
KERNEL_MAX_DEPTH = 8
# Dense tables (twist.build_table) stop here: one of depth 12 holds 4**12
# int8 signs in 16 MB, and its sign table takes 16 MB more.
MAX_TABLE_DEPTH = 12
# Residue-field generators build no table; one of depth t has 2**t slots and a
# norm over them: a `label` process takes about 0.5 s and 57 MB at t = 20.
MAX_FIELD_DEPTH = 20
# Generated products stop here; their source grows fourfold a depth (14 KB at
# t = 5, 55 KB at t = 6).
STRAIGHT_MAX_DEPTH = 5


@lru_cache(maxsize=None)
def _codes(t: int) -> list:
    """The parameter-free eq11 table at depth t as nested lists over [k][p].

    ``codes[k][p]`` is 2 * mask + (sign < 0) of e_p * e_(p^k).  With h = 2**(t-1), P < h,
    Q = P ^ k: row k appends e_(P+h) e_(Q+h) = gamma_t conj(e_Q) e_P, row k + h is
    e_P e_(Q+h) = e_Q e_P, then e_(P+h) e_Q = e_P conj(e_Q); conj(e_Q) = -e_Q if Q != 0.

    Read by the kernels' pair loop, by ``_straight`` and by ``_code_row``,
    through which the CLI's ``mul-table`` and ``_sign_rows`` read their rows.
    """
    if not t:
        return [[0]]  # e_0 * e_0 = e_0
    old = _codes(t - 1)
    h = len(old)
    low, high = [], []
    for k, row in enumerate(old):
        crossed = [row[p ^ k] for p in range(h)]
        low.append(row + [(c ^ (p != k)) | 2 * h for p, c in enumerate(crossed)])
        high.append(crossed + [c ^ (p != k) for p, c in enumerate(row)])
    return low + high


def _code_row(t: int, convention: Convention, p: int) -> list:
    """The codes of e_p * e_q for q = 0 ... 2**t - 1 under ``convention``.

    The code is ``_codes(t)[p ^ q][p]`` under eq11.  eq31 is the opposite
    product, so its e_p * e_q is eq11's e_q * e_p, ``_codes(t)[p ^ q][q]``.
    """
    codes = _codes(t)
    if convention is Convention.CONJUGATE_LEFT:
        return [codes[p ^ q][q] for q in range(len(codes))]
    by_k = [row[p] for row in codes]  # a column read is faster than codes[p ^ q][p]
    return [by_k[p ^ q] for q in range(len(codes))]


def _sign_rows(t: int, convention: Convention) -> list:
    """The sign table at all parameters -1 as one int per row p, with bit q set
    where e_p * e_q is negative there: code c has sign bit ^ popcount(mask).

    Not cached: from the cached codes the rows take about 0.05 / 0.12 / 7.5 ms
    at t = 4 / 5 / 8 (2-vCPU host), and a cache would outlive a patched ``_codes``.
    """
    n = 1 << t
    negative = ["01"[(c ^ (c >> 1).bit_count()) & 1] for c in range(2 * n)]
    return [int("".join(map(negative.__getitem__, reversed(_code_row(t, convention, p)))), 2)
            for p in range(n)]


@lru_cache(maxsize=None)
def _straight(t: int) -> tuple:
    """(product, norm, conjugate) at depth t, compiled together as written-out code.

    ``product(xs, ys, signed)`` is the eq11 product: output k is sum over masks
    of m_mask * (sum of +-x_p * y_(p^k) over the p whose code has that mask),
    with m_mask = signed[2 * mask]: one monomial product per mask, 3**t in all
    rather than 4**t.  ``norm(xs, weights)`` is sum(x_p * x_p * weights[p]) and
    ``conjugate(xs, m)`` is (x_0 * m, -x_1 * m, ...).  The source is built only
    from the depth and the integers of ``_codes(t)``, never from operand values.

    The per-depth compile that ``_bind_kernel`` builds kernels from, once per
    process: 0.18 / 0.37 / 1.0 / 3.3 ms at t = 2-5.
    """
    n = 1 << t
    sums = []
    for k, row in enumerate(_codes(t)):
        groups = {}
        for p, code in enumerate(row):
            groups.setdefault(code >> 1, ([], []))[code & 1].append(f"x{p} * y{p ^ k}")
        terms = []
        for mask, (plus, minus) in groups.items():
            # Positive terms lead; a group with none is subtracted whole.
            sign, lead, rest = ("+", plus, minus) if plus else ("-", minus, ())
            inner = " + ".join(lead) + "".join(f" - {m}" for m in rest)
            terms.append(f" {sign} m{mask} * ({inner})")
        sums.append("".join(terms).lstrip(" +"))  # mask 0 holds x0 * y_k
    ms = ", ".join(f"m{mask}, _" for mask in range(n))
    x_names = "".join(f"x{p}, " for p in range(n))
    source = (f"def product(xs, ys, signed):\n"
              f" {x_names}= xs\n"
              f" {''.join(f'y{p}, ' for p in range(n))}= ys\n"
              f" {ms}, = signed\n"
              f" return ({', '.join(sums)},)\n"
              f"def norm(xs, weights):\n"
              f" {x_names}= xs\n"
              f" {''.join(f'w{p}, ' for p in range(n))}= weights\n"
              f" return {' + '.join(f'x{p} * x{p} * w{p}' for p in range(n))}\n"
              f"def conjugate(xs, m):\n"
              f" {x_names}= xs\n"
              f" n = -m\n"
              f" return (x0 * m, {''.join(f'x{p} * n, ' for p in range(1, n))})\n")
    namespace = {}
    exec(compile(source, f"<eq11 kernel at depth {t}>", "exec"), namespace)
    return namespace["product"], namespace["norm"], namespace["conjugate"]


def _norm_sum(xs: tuple, weights: list) -> int:
    """sum(x_p * x_p * weights[p]): the norm numerator above STRAIGHT_MAX_DEPTH."""
    return sum(map(mul, map(mul, xs, xs), weights))


def _conjugate(xs: tuple, m: int) -> tuple:
    """(x_0 * m, -x_1 * m, ...): conj(xs) scaled, above STRAIGHT_MAX_DEPTH."""
    n = -m
    return (xs[0] * m, *[x * n for x in xs[1:]])


def _halves(xs: tuple, ys: tuple, args: tuple) -> tuple:
    """eq11 product at depth len(gammas) by halves, down to _straight(STRAIGHT_MAX_DEPTH).

    ``args`` is (gammas, base), ``base`` the start of the full scaled
    constants, so every half product carries the whole D and the last
    parameter g = num / den enters as * num // den.
    """
    gammas, base = args
    if len(gammas) == STRAIGHT_MAX_DEPTH:
        return _straight(STRAIGHT_MAX_DEPTH)[0](xs, ys, base)
    h = len(xs) >> 1
    a1, a2, b1, b2 = xs[:h], xs[h:], ys[:h], ys[h:]
    rest, g = (gammas[:-1], base), gammas[-1]
    num, den = g.numerator, g.denominator
    low = [u + v * num // den for u, v in zip(_halves(a1, b1, rest),
                                              _halves(_conj(b2), a2, rest))]
    high = map(add, _halves(a2, _conj(b1), rest), _halves(b2, a1, rest))
    return (*low, *high)


def _ratio(v: int, den: int) -> Rational:
    """v / den as an exact scalar: an int where den divides v, else a Fraction."""
    if den == 1:
        return v
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


def _support(xs: tuple) -> list:
    """(p, x_p) for the nonzero x_p, found by a scan in C."""
    return [(p, xs[p]) for p in compress(range(len(xs)), xs)]


def _code_pairs(xs: tuple, ys: tuple, args: tuple) -> tuple:
    """The product over the support pairs only, reading the codes of depth t.

    ``args`` is (signed, t).  ``_codes(t)`` is looked up on each call, so a
    signature whose products are all dense builds no code table.
    """
    signed, t = args
    codes = _codes(t)
    z = [0] * len(xs)
    py = _support(ys)
    for p, xp in _support(xs):
        for q, yq in py:
            k = p ^ q
            z[k] += xp * yq * signed[codes[k][p]]
    return tuple(z)


def _coefficient_pairs(xs: tuple, ys: tuple, signed: list) -> tuple:
    """The product over the support pairs only, calling _coefficient."""
    z = [0] * len(xs)
    py = _support(ys)
    for p, xp in _support(xs):
        for q, yq in py:
            sign, mask = _coefficient(p, q)
            z[p ^ q] += xp * yq * signed[2 * mask + (sign < 0)]
    return tuple(z)


def _dense_or_pairs(xs: tuple, ys: tuple, args: tuple) -> tuple:
    """The product above depth 3: the pair loop up to ``limit`` support pairs, else dense.

    ``args`` is (dense, dense_args, pairs, pair_args, limit).
    """
    dense, dense_args, pairs, pair_args, limit = args
    n = len(xs)
    if (n - xs.count(0)) * (n - ys.count(0)) > limit:
        return dense(xs, ys, dense_args)
    return pairs(xs, ys, pair_args)


def _bind_kernel(t: int, gammas: tuple) -> tuple:
    """The kernel of a signature: its depth's functions with the constants they read.

    (product, args, D, norm, weights, conjugate), where D and weights are
    those of ``_scaled_constants(gammas)``.  ``product(xs, ys, args)``
    is the eq11 product of numerator tuples: the product of xs / dx and
    ys / dy is product(...) / (D * dx * dy).  ``norm(xs, weights)`` is the
    norm's numerator over D and ``conjugate(xs, m)`` the scaled conjugate.
    The functions are shared by every signature of a depth; only the tuples
    are made per signature.
    """
    signed, d, weights = _scaled_constants(gammas)
    if t <= STRAIGHT_MAX_DEPTH:
        dense, norm, conjugate = _straight(t)
        dense_args = signed
    else:
        dense, norm, conjugate = _halves, _norm_sum, _conjugate
        dense_args = (gammas, signed[:2 << STRAIGHT_MAX_DEPTH])
    if t <= 3:
        return dense, dense_args, d, norm, weights, conjugate
    n = 1 << t
    if t <= KERNEL_MAX_DEPTH:
        pairs, pair_args = _code_pairs, (signed, t)
        limit = n * n // 6 if t <= STRAIGHT_MAX_DEPTH else n * (n + 8) // 2
    else:
        pairs, pair_args, limit = _coefficient_pairs, signed, n * n // 24
    return (_dense_or_pairs, (dense, dense_args, pairs, pair_args, limit), d,
            norm, weights, conjugate)


def _lucas(T: Rational, N: Rational, n: int) -> Tuple[Rational, Rational]:
    """(U_n, U_(n-1)) for n >= 1, where U_0 = 0, U_1 = 1, U_(k+1) = T*U_k - N*U_(k-1).

    The power engine of ``Element`` and ``GoldenNumber``: a value with
    x*x = T*x - N*1 has x**n = U_n*x - N*U_(n-1)*1.
    From (U_1, U_0), one bit of n at a time: U_2k = U_k*(T*U_k - 2*N*U_(k-1))
    and U_(2k-1) = U_k**2 - N*U_(k-1)**2, then U_(k+1) where the bit is set.
    """
    u, w = 1, 0
    for bit in bin(n)[3:]:
        u, w = u * (T * u - 2 * N * w), u * u - N * w * w
        if bit == "1":
            u, w = T * u - N * w, u
    return u, w


class Element(_Frozen):
    """Immutable element of a Cayley-Dickson algebra.

    Coefficients are exact scalars; index 0 is the coefficient of the
    unit. Arithmetic is defined only between elements with equal
    signatures.

    An element is stored as integer numerators over one denominator, in
    lowest terms: den > 0, gcd(den, *nums) = 1, so den = 1 exactly when
    every coefficient is an integer. The form is canonical, so equality
    and hashing compare it directly. ``coeffs`` is computed from it on
    each read; at den 1 it is the numerator tuple itself.
    """

    __slots__ = ("signature", "_nums", "_den")

    def __init__(self, signature: AlgebraSignature, coeffs: Iterable[Rational]):
        if not isinstance(signature, AlgebraSignature):
            raise TypeError(f"expected an AlgebraSignature, got {type(signature).__name__}")
        coeffs = tuple(map(as_rational, coeffs))
        if len(coeffs) != signature.dimension:
            raise ValueError(
                f"expected {signature.dimension} coefficients, got {len(coeffs)}")
        # as_rational leaves Fractions in lowest terms with den > 1, so
        # their lcm is already the lowest common denominator.
        dens = {c.denominator for c in coeffs if type(c) is not int}
        den = lcm(*dens) if dens else 1
        nums = coeffs if den == 1 else tuple(
            c * den if type(c) is int else c.numerator * (den // c.denominator)
            for c in coeffs)
        self._set(signature, nums, den)

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return self._nums if den == 1 else tuple([_ratio(v, den) for v in self._nums])

    def _check_compatible(self, other: Element) -> None:
        if self.signature is not other.signature and self.signature != other.signature:
            raise ValueError("elements belong to different algebras")

    # ---- vector-space structure -------------------------------------------

    def _combine(self, other: Element, op) -> Element:
        """Coefficientwise op over the lcm of the two denominators."""
        if self.signature is not other.signature:
            self._check_compatible(other)
        xs, ys, dx, dy = self._nums, other._nums, self._den, other._den
        den = dx if dx == dy else lcm(dx, dy)
        if dx != den:
            xs = map(mul, xs, repeat(den // dx))
        if dy != den:
            ys = map(mul, ys, repeat(den // dy))
        return _element(self.signature, tuple(map(op, xs, ys)), den)

    def _scaled(self, c: Rational) -> Element:
        if type(c) is not int:
            c = as_rational(c)
        return _element(self.signature, tuple(map(mul, self._nums, repeat(c.numerator))),
                        self._den * c.denominator)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._combine(other, sub)

    def __neg__(self):
        return _element(self.signature, tuple(map(neg, self._nums)), self._den)

    def __mul__(self, other):
        if isinstance(other, Element):
            sig = self.signature
            if sig is not other.signature:
                self._check_compatible(other)
            a, b = self, other
            if sig.convention is _CONJUGATE_LEFT:
                a, b = b, a
            try:
                kernel = sig._scaled
            except AttributeError:
                kernel = sig._kernel()
            return _element(sig, kernel[0](a._nums, b._nums, kernel[1]),
                            kernel[2] * a._den * b._den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __getitem__(self, p: int) -> Rational:
        return _ratio(self._nums[p if type(p) is int else _index(p)], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    # ---- involution, trace, norm --------------------------------------------

    def conjugate(self) -> Element:
        return _element(self.signature, _conj(self._nums), self._den)

    def trace(self) -> Rational:
        """Scalar c with x + conjugate(x) = c * 1."""
        return 2 * self.scalar_part()

    def norm(self) -> Rational:
        """Scalar c with x * conjugate(x) = c * 1.

        c = s / (D * den**2) with s = sum(nums[p]**2 * weights[p]), written
        out up to STRAIGHT_MAX_DEPTH.
        """
        sig = self.signature
        try:
            kernel = sig._scaled
        except AttributeError:
            kernel = sig._kernel()
        den = self._den
        return _ratio(kernel[3](self._nums, kernel[4]), kernel[2] * den * den)

    def inverse(self) -> Element:
        """Two-sided inverse; fails exactly where the norm is zero.

        Zero divisors of nonzero norm are invertible: in the sedenions,
        e1 + e10 annihilates e4 - e15 and has inverse (e1 + e10) / -2.

        conj(x) / norm(x) = conj(nums) * D * den / s, with the sign of s
        moved onto the numerators.
        """
        sig = self.signature
        try:
            kernel = sig._scaled
        except AttributeError:
            kernel = sig._kernel()
        xs = self._nums
        s = kernel[3](xs, kernel[4])
        if s == 0:
            raise ZeroDivisionError("element has norm zero and is not invertible")
        m = kernel[2] * self._den
        if s < 0:
            s, m = -s, -m
        return _element(sig, kernel[5](xs, m), s)

    def __pow__(self, n: int) -> Element:
        """x**n: the unit at n = 0, and a power of ``inverse()`` for n < 0.

        Every element satisfies x*x = T*x - N*1 (trace T, norm N), and the
        algebras are power-associative, so x**n = U_n*x - N*U_(n-1)*1 by
        ``_lucas``: O(log n) scalar steps at any depth, in either convention.
        """
        n = _index(n)
        if n < 0:
            return self.inverse() ** -n
        if n == 0:
            return self.signature.one()
        norm = self.norm()
        u, w = _lucas(self.trace(), norm, n)
        return u * self - self.signature.scalar(norm * w)

    def scalar_part(self) -> Rational:
        return _ratio(self._nums[0], self._den)

    def __repr__(self) -> str:
        terms = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if p == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"e{p}")
            elif c == -1:
                terms.append(f"-e{p}")
            else:
                terms.append(f"{c}*e{p}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"<{body}>"


# A module name: read off the class on each call, the staticmethod costs about
# 20-30 ns more, 2-3% of a depth-1 product (so are the enum members above).
_new_element = Element._new


def _element(sig: AlgebraSignature, nums: tuple, den: int) -> Element:
    """The element nums / den (integers, den > 0), brought to lowest terms.

    The constructor for internal results: their numerators are integers
    by construction, so the public validation is skipped.
    """
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(map(floordiv, nums, repeat(g)))
            den //= g
    return _new_element(sig, nums, den)


def quadratic_check(x: Element) -> bool:
    """Whether x*x - trace(x)*x + norm(x)*1 vanishes (it always should)."""
    residue = x * x - x.trace() * x + x.signature.scalar(x.norm())
    return residue.is_zero()
