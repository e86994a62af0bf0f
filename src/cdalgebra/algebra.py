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


def as_rational(value: Rational) -> Rational:
    """Coerce to an exact scalar, rejecting floats.

    Fractions with denominator 1 collapse to int so that integer-only
    computations stay on the fast path.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a valid scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


class AlgebraSignature:
    """Doubling depth, stage parameters, and product convention.

    Two elements interoperate only when their signatures compare equal.
    ``t = 0`` is the base field itself (dimension 1).
    """

    __slots__ = ("t", "gammas", "convention")

    def __init__(self, t: int, gammas: Sequence[Rational],
                 convention: Convention = Convention.CONJUGATE_RIGHT):
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

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSignature is immutable")

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

    # ---- element factories -------------------------------------------------

    def element(self, coeffs: Iterable[Rational]) -> Element:
        return Element(self, coeffs)

    def zero(self) -> Element:
        return Element(self, (0,) * self.dimension)

    def one(self) -> Element:
        return self.scalar(1)

    def scalar(self, c: Rational) -> Element:
        coeffs = [as_rational(c)] + [0] * (self.dimension - 1)
        return Element(self, coeffs)

    def basis(self, p: int) -> Element:
        """The basis element with index ``p`` (``basis(0)`` is the unit)."""
        if not 0 <= p < self.dimension:
            raise ValueError(f"basis index {p} out of range for dimension {self.dimension}")
        coeffs = [0] * self.dimension
        coeffs[p] = 1
        return Element(self, coeffs)


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
    return a[:1] + tuple(-c for c in a[1:])


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _scale(c, a: tuple) -> tuple:
    return tuple(c * x for x in a)


def _mul(a: tuple, b: tuple, gammas: tuple) -> tuple:
    """eq11 doubling product on raw coefficient tuples, recursing on halves."""
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


def _norm(a: tuple, gammas: tuple):
    if len(a) == 1:
        return a[0] * a[0]
    h = len(a) // 2
    return _norm(a[:h], gammas[:-1]) - gammas[-1] * _norm(a[h:], gammas[:-1])


class Element:
    """Immutable element of a Cayley-Dickson algebra.

    Coefficients are exact scalars; index 0 is the coefficient of the
    unit. Arithmetic is defined only between elements with equal
    signatures.
    """

    __slots__ = ("signature", "coeffs")

    def __init__(self, signature: AlgebraSignature, coeffs: Iterable[Rational]):
        coeffs = tuple(as_rational(c) for c in coeffs)
        if len(coeffs) != signature.dimension:
            raise ValueError(
                f"expected {signature.dimension} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def _check_compatible(self, other: Element) -> None:
        if self.signature != other.signature:
            raise ValueError("elements belong to different algebras")

    # ---- vector-space structure -------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        return Element(self.signature, _add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        return Element(self.signature, _sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Element(self.signature, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_compatible(other)
            a, b = self.coeffs, other.coeffs
            if self.signature.convention is Convention.CONJUGATE_LEFT:
                a, b = b, a
            return Element(self.signature, _mul(a, b, self.signature.gammas))
        if isinstance(other, (int, Fraction)):
            return Element(self.signature, _scale(as_rational(other), self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.signature, _scale(as_rational(other), self.coeffs))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.signature == other.signature and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.signature, self.coeffs))

    def __getitem__(self, p: int) -> Rational:
        return self.coeffs[p]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # ---- involution, trace, norm --------------------------------------------

    def conjugate(self) -> Element:
        return Element(self.signature, _conj(self.coeffs))

    def trace(self) -> Rational:
        """Scalar c with x + conjugate(x) = c * 1."""
        return 2 * self.coeffs[0]

    def norm(self) -> Rational:
        """Scalar c with x * conjugate(x) = c * 1, by the stage recurrence."""
        return as_rational(_norm(self.coeffs, self.signature.gammas))

    def inverse(self) -> Element:
        """Two-sided inverse; fails on zero and on zero divisors."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element has norm zero and is not invertible")
        return Element(self.signature,
                       _scale(Fraction(1) / n, _conj(self.coeffs)))

    def scalar_part(self) -> Rational:
        return self.coeffs[0]

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
