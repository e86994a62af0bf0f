"""Fibonacci-coefficient quaternions and their exact norm analysis.

The quaternion with coefficients (f_n, f_{n+1}, f_{n+2}, f_{n+3}) lives in
a two-parameter quaternion algebra.  Its norm has a closed form in the
signature's norm weights, and its eventual sign, which decides invertibility
of all late enough terms, is the sign of an exact golden-field element.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple, Union

from .algebra import (AlgebraSignature, Element, Rational, _Frozen, _element, _index,
                      _ratio, _scaled_constants, as_rational)

# Indices below FIB_MEMO are read from a memo built once at import (about
# 0.2 ms and 84 KB), which covers the closed-form norm up to n = 511.
# Larger indices use fast doubling, so a large index costs O(log n) products.
FIB_MEMO = 1024
_fib_cache = [0, 1]
while len(_fib_cache) < FIB_MEMO:
    _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])


def _fib_index(n) -> int:
    """A public Fibonacci index as an int >= 0, checked once at the boundary."""
    n = _index(n)
    if n < 0:
        raise ValueError("index must be >= 0")
    return n


def fib(n: int) -> int:
    """Exact Fibonacci number: a shared memo below FIB_MEMO, fast doubling above."""
    n = _fib_index(n)
    if n >= FIB_MEMO:
        return _fib_doubling(n)[0]
    return _fib_cache[n]


def _fib_doubling(n: int) -> Tuple[int, int]:
    """(f_n, f_(n+1)) in O(log n) products.

    From (f_k, f_(k+1)): f_2k = f_k*(2*f_(k+1) - f_k) and
    f_(2k+1) = f_k**2 + f_(k+1)**2, one bit of n at a time.
    """
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def _fib_pair(k: int) -> Tuple[int, int]:
    """(f_k, f_(k+1)) for an int k >= 0: memo below FIB_MEMO - 1, fast doubling above."""
    return _fib_doubling(k) if k >= FIB_MEMO - 1 else (_fib_cache[k], _fib_cache[k + 1])


@dataclass(frozen=True)
class HoradamParams:
    """Initial conditions for the Fibonacci recurrence: h_0 = p, h_1 = q."""

    p: Rational
    q: Rational

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        object.__setattr__(self, "q", as_rational(self.q))


def horadam(n: int, params: HoradamParams) -> Rational:
    """n-th term of the Fibonacci recurrence started at (p, q).

    Equals p * f_{n-1} + q * f_n, so big indices stay cheap.
    """
    n = _fib_index(n)
    if n == 0:
        return params.p
    f0, f1 = _fib_pair(n - 1)
    return as_rational(params.p * f0 + params.q * f1)


class GoldenNumber(_Frozen):
    """Exact element u + v*a of the quadratic field with a*a = a + 1.

    a is the positive root (the golden ratio), which is irrational, so
    u + v*a vanishes only when u = v = 0 and the sign is decidable from
    (u, v) alone with no floating point.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Rational = 0, v: Rational = 0):
        object.__setattr__(self, "u", u if type(u) is Fraction else Fraction(as_rational(u)))
        object.__setattr__(self, "v", v if type(v) is Fraction else Fraction(as_rational(v)))

    def __eq__(self, other) -> bool:
        if isinstance(other, GoldenNumber):
            return self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.v == 0 and self.u == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __add__(self, other) -> GoldenNumber:
        other = self._coerce(other)
        return GoldenNumber(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self.u, -self.v)

    def __sub__(self, other) -> GoldenNumber:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> GoldenNumber:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            other = as_rational(other)
            return GoldenNumber(self.u * other, self.v * other)
        other = self._coerce(other)
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        if u1.denominator == v1.denominator == u2.denominator == v2.denominator == 1:
            u1, v1 = u1.numerator, v1.numerator
            u2, v2 = u2.numerator, v2.numerator
        # (u1 + v1 a)(u2 + v2 a) with a*a = a + 1
        vv = v1 * v2
        return GoldenNumber(u1 * u2 + vv, u1 * v2 + v1 * u2 + vv)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenNumber:
        n = _index(n)
        if n < 0:
            raise ValueError("exponent must be >= 0")
        acc = GoldenNumber(1, 0)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @staticmethod
    def _coerce(x) -> GoldenNumber:
        if isinstance(x, GoldenNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return GoldenNumber(x, 0)
        raise TypeError(f"cannot combine GoldenNumber with {type(x).__name__}")

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        For v > 0 the value is negative exactly when u < 0 and
        u*u + u*v - v*v > 0, because a is the positive root of
        x*x - x - 1; the v < 0 case is handled by negating.
        """
        if self.v == 0:
            return 0 if self.u == 0 else (1 if self.u > 0 else -1)
        if self.v < 0:
            return -(-self).sign()
        if self.u >= 0:
            return 1
        return -1 if self.u * self.u + self.u * self.v - self.v * self.v > 0 else 1

    def __repr__(self) -> str:
        return f"GoldenNumber({self.u}, {self.v})"

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        sign = "-" if self.v < 0 else "+"
        mag = abs(self.v)
        head = "" if mag == 1 else str(mag)
        if self.u == 0 and sign == "+":
            return f"{head}a"
        return f"{self.u} {sign} {head}a"


GOLDEN_UNIT = GoldenNumber(0, 1)
GOLDEN_SQUARE = GoldenNumber(1, 1)


def golden_power(n: int) -> GoldenNumber:
    """a**n; equals fib(n)*a + fib(n-1) for n >= 1."""
    return GOLDEN_UNIT ** n


@dataclass(frozen=True)
class QuaternionParams:
    """The two nonzero parameters of a generalized quaternion algebra."""

    alpha1: Rational
    alpha2: Rational

    def __post_init__(self):
        a1, a2 = as_rational(self.alpha1), as_rational(self.alpha2)
        if a1 == 0 or a2 == 0:
            raise ValueError("quaternion parameters must be nonzero")
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    def signature(self) -> AlgebraSignature:
        """Depth-2 doubling algebra realizing this parameter pair.

        Stage parameters are the negated alphas, which makes the norm the
        diagonal form x1^2 + a1*x2^2 + a2*x3^2 + a1*a2*x4^2.  Built on first
        use and kept with ``_closed_form``; neither is a dataclass field.
        """
        return self._signature

    @cached_property
    def _signature(self) -> AlgebraSignature:
        return AlgebraSignature(2, (-self.alpha1, -self.alpha2))

    @cached_property
    def _form(self) -> Tuple[int, int, int, int]:
        return _closed_form(self._signature._constants())


def _closed_form(constants: tuple) -> Tuple[int, int, int, int]:
    """(u, v, z, D) from the norm weights w_p over D of (signed, D, weights).

    As 5*f_k**2 = a**(2k) + conj(a)**(2k) - 2*(-1)**k, the element with
    coefficients f_(n+p) has norm N(n) = E*a**(2n) + conj(E)*conj(a)**(2n)
    - (2/5)*(-1)**n*Z with 5*D*E = sum(w_p * a**(2p)) = u + v*a and
    D*Z = sum(w_p * (-1)**p) = z.  At depth 2, 5*E = 1 + a1 + 2*a2 + 5*a1*a2
    + a*(a1 + 3*a2 + 8*a1*a2) and Z = (1 - a1)*(1 + a2).
    """
    _, d, weights = constants
    u = v = z = 0
    x, y = 1, 0  # a**(2p) = x + y*a = f_(2p-1) + f_(2p)*a
    for p, w in enumerate(weights):
        u += w * x
        v += w * y
        z += -w if p & 1 else w
        x, y = x + y, x + 2 * y
    return u, v, z, d


def fibonacci_quaternion(n: int, params: QuaternionParams) -> Element:
    """Quaternion with coefficients (f_n, f_{n+1}, f_{n+2}, f_{n+3})."""
    f0, f1 = _fib_pair(_fib_index(n))
    return _element(params.signature(), (f0, f1, f0 + f1, f0 + 2 * f1), 1)


def fib_norm_direct(n: int, params: QuaternionParams) -> Rational:
    """Norm of the n-th Fibonacci quaternion, via the algebra norm."""
    return fibonacci_quaternion(n, params).norm()


def fib_norm_formula(n: int, params: QuaternionParams) -> Rational:
    """The same norm as (u*L_2n + v*L_(2n+1) - 2*(-1)**n*z) / (5*D).

    u, v, z and D are read from the norm weights (``_closed_form``), and
    L_k = f_(k-1) + f_(k+1) are the Lucas numbers.
    """
    n = _fib_index(n)
    f0, f1 = _fib_pair(2 * n)
    u, v, z, d = params._form
    return _ratio(u * (2 * f1 - f0) + v * (2 * f0 + f1) - 2 * (-1) ** n * z, 5 * d)


def energy(params: Union[QuaternionParams, Tuple[Rational, Rational]]) -> GoldenNumber:
    """Growth coefficient E of the norms, exact in the golden field.

    E is a sum over the norm weights (``_closed_form``); its sign is the
    eventual sign of the norms.  A bare (a1, a2) pair is accepted as well,
    since E is defined for zero parameters even though no algebra is.
    """
    if isinstance(params, QuaternionParams):
        u, v, _, d = params._form
    elif len(params) != 2:
        raise ValueError(f"expected a parameter pair (a1, a2), got {len(params)} entries")
    else:
        u, v, _, d = _closed_form(_scaled_constants([-as_rational(a) for a in params]))
    return GoldenNumber(Fraction(u, 5 * d), Fraction(v, 5 * d))


def _settle_index(params: QuaternionParams) -> int:
    """Least n1 from which every norm is nonzero with the sign of the energy E.

    In N(n) of ``_closed_form``, |conj(a)| < 1, so every n with
    |E|*a**(2n) > |conj(E)| + (2/5)*|Z| has sign(N(n)) = sign(E).  Times
    5*D the sides are |u + v*a| and |(u + v) - v*a| + 2*|z|; n1 is found
    in O(n1) exact steps, growing |E| by a**2 each, for a nonzero E.
    """
    u, v, z, _ = params._form
    e, conj = GoldenNumber(u, v), GoldenNumber(u + v, -v)
    grown, bound = e * e.sign(), conj * conj.sign() + 2 * abs(z)
    n1 = 0
    while (grown - bound).sign() <= 0:
        grown = grown * GOLDEN_SQUARE
        n1 += 1
    return n1


def invertibility_threshold(params: QuaternionParams, n_max: int = 200) -> Optional[int]:
    """Least index from which every norm up to n_max has the energy's sign.

    Norms of that sign are nonzero, so all later terms are invertible.  Every
    norm from the settle index n1 on has that sign, so only n <= min(n1, n_max)
    are scanned, downward, with the answer of a scan from n_max.  None means
    no stable sign by n_max.  Raises ValueError for n_max < 0 and for zero
    energy, which rational parameters never give: E = 0 needs u = v = 0, and
    eliminating a1 leaves a2**2 + 7*a2 + 1 = 0, with no rational root.
    """
    n_max = _index(n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    target = energy(params).sign()
    if target == 0:
        raise ValueError("energy is zero; the sign criterion does not apply")
    start = min(_settle_index(params), n_max)
    for n in range(start, -1, -1):
        if fib_norm_direct(n, params) * target <= 0:
            return n + 1 if n < start else None
    return 0


@dataclass(frozen=True)
class BinetCheck:
    """Exact verdict on the closed-form expression for one Fibonacci index.

    ``power_u + power_v * a`` is a**n; the identity holds when the
    golden coefficient equals f_n (then a**n - (1-a)**n is exactly
    f_n * (2a - 1), the square root of five).
    """

    n: int
    power_u: Fraction
    power_v: Fraction
    expected_u: int
    expected_v: int

    @property
    def holds(self) -> bool:
        return self.power_u == self.expected_u and self.power_v == self.expected_v

    @property
    def residual(self) -> Fraction:
        return self.power_v - self.expected_v


def binet_residual(n: int) -> BinetCheck:
    """Check the closed form for f_n exactly in the golden field."""
    n = _fib_index(n)
    p = golden_power(n)
    expected_u, expected_v = (1, 0) if n == 0 else _fib_pair(n - 1)
    return BinetCheck(n=n, power_u=p.u, power_v=p.v,
                      expected_u=expected_u, expected_v=expected_v)
