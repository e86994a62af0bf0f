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
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, index, mul, neg, sub
from typing import Iterable, Sequence, Union

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


# A module-level name: reading the member off the enum class on every
# product costs about a tenth of a depth-1 product.
_CONJUGATE_LEFT = Convention.CONJUGATE_LEFT


def as_rational(value: Rational) -> Rational:
    """Coerce to an exact scalar, rejecting floats.

    Fractions with denominator 1 collapse to int so that integer-only
    computations stay on the fast path.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _index(value) -> int:
    """``operator.index(value)``, refusing bool: it would stand for 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("index must be an int, not bool")
    return index(value)


class _Frozen:
    """Base of the slot value types: no attribute can be set or deleted.

    Pickling and copying restore the stored slots without rerunning the
    constructor's validation; a lazily kept slot not yet filled stays empty.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        cls = type(self)
        return _restore, (cls, {name: getattr(self, name)
                                for name in cls.__slots__ if hasattr(self, name)})


def _restore(cls: type, slots: dict) -> _Frozen:
    x = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(x, name, value)
    return x


class AlgebraSignature(_Frozen):
    """Doubling depth, stage parameters, and product convention.

    Two elements interoperate only when their signatures compare equal.
    ``t = 0`` is the base field itself (dimension 1).
    """

    __slots__ = ("t", "gammas", "convention", "_scaled")

    def __init__(self, t: int, gammas: Sequence[Rational],
                 convention: Convention = Convention.CONJUGATE_RIGHT):
        if not isinstance(t, int) or isinstance(t, bool):
            raise TypeError(f"doubling depth must be an int, got {type(t).__name__}")
        if t < 0:
            raise ValueError(f"doubling depth must be >= 0, got {t}")
        gammas = tuple(as_rational(g) for g in gammas)
        if len(gammas) != t:
            raise ValueError(f"expected {t} stage parameters, got {len(gammas)}")
        if any(g == 0 for g in gammas):
            raise ValueError("stage parameters must all be nonzero")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "convention", Convention(convention))

    @property
    def dimension(self) -> int:
        return 1 << self.t

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraSignature):
            return NotImplemented
        return (self.t == other.t and self.gammas == other.gammas
                and self.convention is other.convention)

    def __hash__(self) -> int:
        return hash((self.t, self.gammas, self.convention))

    def __repr__(self) -> str:
        gs = ", ".join(str(g) for g in self.gammas)
        return f"AlgebraSignature(t={self.t}, gammas=({gs}), {self.convention.value})"

    def _constants(self) -> tuple:
        """``_scaled_constants(self.gammas)``, computed on first use and kept."""
        if not hasattr(self, "_scaled"):
            object.__setattr__(self, "_scaled", _scaled_constants(self.gammas))
        return self._scaled

    # ---- element factories -------------------------------------------------

    def element(self, coeffs: Iterable[Rational]) -> Element:
        return Element(self, coeffs)

    def zero(self) -> Element:
        return _element(self, (0,) * self.dimension, 1)

    def one(self) -> Element:
        return self.basis(0)

    def scalar(self, c: Rational) -> Element:
        coeffs = [as_rational(c)] + [0] * (self.dimension - 1)
        return Element(self, coeffs)

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
        a, b = g.numerator, g.denominator
        monomials = [m * b for m in monomials] + [m * a for m in monomials]
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


# ---- coefficient-vector kernels (tuples of exact scalars) ------------------

def _conj(a: tuple) -> tuple:
    # Negating every coordinate but the scalar one is what the recursive
    # definition (conjugate low half, negate high half) unrolls to.
    return a[:1] + tuple(map(neg, a[1:]))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _scale(c, a: tuple) -> tuple:
    return tuple(map(mul, repeat(c), a))


def _mul(a: tuple, b: tuple, gammas: tuple) -> tuple:
    """eq11 doubling product on raw coefficient tuples, recursing on halves.

    ``Element`` products use it above KERNEL_MAX_DEPTH, where no code table
    is built; up to there it is the oracle the kernel is tested against.
    """
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    if n == 2:
        # Depth-1 case written out; conjugation is the identity on scalars.
        g = gammas[-1]
        return (a[0] * b[0] + g * b[1] * a[1], a[0] * b[1] + a[1] * b[0])
    if not any(a) or not any(b):
        return (0,) * n
    h = n // 2
    g = gammas[-1]
    rest = gammas[:-1]
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    lo = _add(_mul(a1, b1, rest), _scale(g, _mul(_conj(b2), a2, rest)))
    hi = _add(_mul(a2, _conj(b1), rest), _mul(b2, a1, rest))
    return lo + hi


# ---- structure-constant kernel ----------------------------------------------
#
# e_p * e_q = sign(p, q) * prod(gamma_i for i in mask(p, q)) * e_(p^q), the
# entries of twist.build_table.  Scaled by D = prod(den(gamma_i)), every
# constant is the integer sign * prod(num(gamma_i), i in mask)
# * prod(den(gamma_i), i not in mask), so a product is integer arithmetic on
# the stored numerators with a single gcd reduction at the end.

# Codes stop here: _codes(t) takes about 20 ms and 4 MB at t = 9, 0.1 s and 24 MB
# at t = 10, 0.45 s and 107 MB at t = 11, where the recursion squares in 1 ms.
KERNEL_MAX_DEPTH = 8


@lru_cache(maxsize=None)
def _codes(t: int) -> list:
    """The parameter-free eq11 table at depth t >= 1 as nested lists over [k][p].

    ``codes[k][p]`` is 2 * mask + (sign < 0) of e_p * e_(p^k).  With h = 2**(t-1), P < h,
    Q = P ^ k: row k appends e_(P+h) e_(Q+h) = gamma_t conj(e_Q) e_P, row k + h is
    e_P e_(Q+h) = e_Q e_P, then e_(P+h) e_Q = e_P conj(e_Q); conj(e_Q) = -e_Q if Q != 0.
    """
    old = _codes(t - 1) if t > 1 else [[0]]  # depth 0: e_0 * e_0 = e_0
    h = len(old)
    low, high = [], []
    for k, row in enumerate(old):
        crossed = [row[p ^ k] for p in range(h)]
        low.append(row + [(c ^ (p != k)) | 2 * h for p, c in enumerate(crossed)])
        high.append(crossed + [c ^ (p != k) for p, c in enumerate(row)])
    return low + high


@lru_cache(maxsize=None)
def _planes(t: int) -> tuple:
    """``_codes(t)`` as a read-only array ``code[k, p]``, with ``partner[k, p]`` = p ^ k."""
    import numpy as np
    p = np.arange(1 << t)
    partner = p ^ p[:, None]
    code = np.array(_codes(t), dtype=np.intp)
    code.flags.writeable = partner.flags.writeable = False
    return code, partner


def _ratio(v: int, den: int) -> Rational:
    """v / den as an exact scalar: an int where den divides v, else a Fraction."""
    if den == 1:
        return v
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


def _kernel_mul(xs: tuple, ys: tuple, sig: AlgebraSignature) -> tuple:
    """eq11 product of numerator tuples through the structure constants.

    For depths 0..KERNEL_MAX_DEPTH. Returns (z, D) with D = prod(den(gamma_i)):
    the product of xs / dx and ys / dy is z / (D * dx * dy).
    """
    t = sig.t
    if t == 0:
        return (xs[0] * ys[0],), 1
    signed, d, _ = sig._constants()
    if t == 1:
        # Depth-1 case written out: signed[0] = D and signed[2] = D * gamma.
        (x0, x1), (y0, y1) = xs, ys
        return (x0 * y0 * d + x1 * y1 * signed[2], (x0 * y1 + x1 * y0) * d), d
    n = len(xs)
    px = [(p, v) for p, v in enumerate(xs) if v]
    py = [(q, v) for q, v in enumerate(ys) if v]
    if 2 * len(px) * len(py) <= n * (n + 8):
        # Few support pairs (every pair up to n = 8): visit only those.
        codes = _codes(t)
        z = [0] * n
        for p, xp in px:
            for q, yq in py:
                k = p ^ q
                z[k] += xp * yq * signed[codes[k][p]]
        return tuple(z), d
    # Dense: one gather over the plane.  Object arrays keep every entry a
    # Python int, so the sums are exact at any size.
    import numpy as np
    code, partner = _planes(t)
    z = (np.array(signed, dtype=object)[code] * np.array(ys, dtype=object)[partner]
         * np.array(xs, dtype=object)).sum(axis=1)
    return tuple(z.tolist()), d


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
        _set_signature(self, signature)
        _set_nums(self, nums)
        _set_den(self, den)

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
        self._check_compatible(other)
        xs, ys, dx, dy = self._nums, other._nums, self._den, other._den
        den = dx if dx == dy else lcm(dx, dy)
        if dx != den:
            xs = map(mul, xs, repeat(den // dx))
        if dy != den:
            ys = map(mul, ys, repeat(den // dy))
        return _element(self.signature, tuple(map(op, xs, ys)), den)

    def _scaled(self, c: Rational) -> Element:
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
            self._check_compatible(other)
            sig = self.signature
            a, b = self, other
            if sig.convention is _CONJUGATE_LEFT:
                a, b = b, a
            if sig.t > KERNEL_MAX_DEPTH:
                return Element(sig, _mul(a.coeffs, b.coeffs, sig.gammas))
            z, d = _kernel_mul(a._nums, b._nums, sig)
            return _element(sig, z, d * a._den * b._den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.signature == other.signature and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.signature, self._nums, self._den))

    def __getitem__(self, p: int) -> Rational:
        return _ratio(self._nums[p], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    # ---- involution, trace, norm --------------------------------------------

    def conjugate(self) -> Element:
        return _element(self.signature, _conj(self._nums), self._den)

    def trace(self) -> Rational:
        """Scalar c with x + conjugate(x) = c * 1."""
        return 2 * self.scalar_part()

    def _norm_numerator(self) -> tuple:
        """(s, D) with norm = s / (D * den**2): s = sum(nums[p]**2 * weights[p])."""
        xs = self._nums
        _, d, weights = self.signature._constants()
        return sum(map(mul, map(mul, xs, xs), weights)), d

    def norm(self) -> Rational:
        """Scalar c with x * conjugate(x) = c * 1."""
        s, d = self._norm_numerator()
        return _ratio(s, d * self._den * self._den)

    def inverse(self) -> Element:
        """Two-sided inverse; fails on zero and on zero divisors.

        conj(x) / norm(x) = conj(nums) * D * den / s, with the sign of s
        moved onto the numerators.
        """
        s, d = self._norm_numerator()
        if s == 0:
            raise ZeroDivisionError("element has norm zero and is not invertible")
        m = d * self._den
        if s < 0:
            s, m = -s, -m
        xs = self._nums
        return _element(self.signature, (xs[0] * m,) + tuple(map(mul, xs[1:], repeat(-m))), s)

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


_set_signature, _set_nums, _set_den = (
    Element.__dict__[name].__set__ for name in Element.__slots__)


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
    x = object.__new__(Element)
    _set_signature(x, sig)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def quadratic_check(x: Element) -> bool:
    """Whether x*x - trace(x)*x + norm(x)*1 vanishes (it always should)."""
    residue = x * x - x.trace() * x + x.signature.scalar(x.norm())
    return residue.is_zero()


def power_left_nested(x: Element, k: int) -> Element:
    """x**k computed as ((x*x)*x)*..., the pinned power convention."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    acc = x.signature.one()
    for _ in range(k):
        acc = acc * x
    return acc
