"""Oracles the tests compare the package against.

- ``_mul``: the doubling product on raw coefficient tuples, recursing on
  halves.  The package multiplies through the structure constants at every
  depth; this is the recursive definition of the eq11 product, kept to
  compare ``Element`` products and the structure constants against.
- ``power_left_nested``: x**n as n products from the unit, the oracle for
  ``Element.__pow__``, which reads the Lucas sequence of x's trace and norm.
- ``round_quotient``: a / n rounded to the nearest integer, ties away from
  zero, by ``divmod``: the oracle for the rounding that ``residue.u_mod``
  writes inline.
- ``FractionGolden``: the golden field with ``Fraction`` coordinates, as
  ``fibonacci.GoldenNumber`` stored it before it kept integer numerators
  over one denominator, with the settle index and threshold computed on it.
"""
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from cdalgebra.algebra import _conj
from cdalgebra.fibonacci import _closed_form, fib_norm_direct


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _scale(c, a: tuple) -> tuple:
    return tuple(map(mul, repeat(c), a))


def _mul(a: tuple, b: tuple, gammas: tuple) -> tuple:
    """eq11 doubling product: (a1, a2)(b1, b2) =
    (a1*b1 + g*conj(b2)*a2, a2*conj(b1) + b2*a1), g the last parameter."""
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


def power_left_nested(x, n: int):
    """x**n computed as ((x*x)*x)*..., n products from the unit."""
    acc = x.signature.one()
    for _ in range(n):
        acc = acc * x
    return acc


def round_quotient(a: int, n: int) -> int:
    """a / n rounded to the nearest integer, ties away from zero; n != 0."""
    if n < 0:
        a, n = -a, -n
    floor, rem = divmod(abs(a), n)
    floor += 2 * rem >= n
    return floor if a >= 0 else -floor


class FractionGolden:
    """u + v*a with a*a = a + 1, on two Fraction coordinates."""

    __slots__ = ("u", "v")

    def __init__(self, u=0, v=0):
        self.u, self.v = Fraction(u), Fraction(v)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionGolden(self.u + other.u, self.v + other.v)

    def __neg__(self):
        return FractionGolden(-self.u, -self.v)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionGolden(self.u * other, self.v * other)
        # (u1 + v1 a)(u2 + v2 a) with a*a = a + 1
        vv = self.v * other.v
        return FractionGolden(self.u * other.u + vv, self.u * other.v + self.v * other.u + vv)

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, FractionGolden) else FractionGolden(x, 0)

    def sign(self) -> int:
        """For v > 0 the value is negative exactly when u < 0 and
        u*u + u*v - v*v > 0; the v < 0 case is handled by negating."""
        if self.v == 0:
            return 0 if self.u == 0 else (1 if self.u > 0 else -1)
        if self.v < 0:
            return -(-self).sign()
        if self.u >= 0:
            return 1
        return -1 if self.u * self.u + self.u * self.v - self.v * self.v > 0 else 1


def settle_index(params) -> int:
    """``fibonacci._settle_index`` on ``FractionGolden``: the least n1 with
    |u + v*a| * a**(2*n1) > |(u + v) - v*a| + 2*|z|."""
    u, v, z, _ = _closed_form(*params.signature()._kernel()[2::2])
    e, conj = FractionGolden(u, v), FractionGolden(u + v, -v)
    grown, bound = e * e.sign(), conj * conj.sign() + 2 * abs(z)
    n1 = 0
    while (grown - bound).sign() <= 0:
        grown = grown * FractionGolden(1, 1)
        n1 += 1
    return n1


def threshold(params, n_max: int):
    """``fibonacci.invertibility_threshold`` with the energy's sign and the
    settle index taken on ``FractionGolden``."""
    u, v, _, d = _closed_form(*params.signature()._kernel()[2::2])
    target = FractionGolden(Fraction(u, 5 * d), Fraction(v, 5 * d)).sign()
    start = min(settle_index(params), n_max)
    for n in range(start, -1, -1):
        if fib_norm_direct(n, params) * target <= 0:
            return n + 1 if n < start else None
    return 0
