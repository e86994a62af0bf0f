"""The doubling product on raw coefficient tuples, recursing on halves.

The package multiplies through the structure constants at every depth;
this is the recursive definition of the eq11 product, kept for the tests
to compare ``Element`` products and the structure constants against.
"""
from itertools import repeat
from operator import add, mul

from cdalgebra.algebra import _conj


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
