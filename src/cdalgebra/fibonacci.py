"""Fibonacci-coefficient quaternions and their exact norm analysis.

The quaternion with coefficients (f_n, f_{n+1}, f_{n+2}, f_{n+3}) lives in
a two-parameter quaternion algebra.  Its norm has a closed form in a
shifted Fibonacci (Horadam) sequence, and its eventual sign, which decides
invertibility of all late enough terms, is the sign of an exact element of
the quadratic field generated by the golden ratio.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .algebra import AlgebraSignature, Convention, Element, Rational, as_rational

# Indices below FIB_MEMO are memoised, which covers the closed-form norm up
# to n = 510 in about 84 KB.  Larger indices use fast doubling, so a large
# index costs O(log n) products and no call grows the memo past it.
FIB_MEMO = 1024
_fib_cache = [0, 1]
_fib_lock = threading.Lock()


def fib(n: int) -> int:
    """Exact Fibonacci number: a shared memo below FIB_MEMO, fast doubling above."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n >= FIB_MEMO:
        return _fib_doubling(n)[0]
    if n >= len(_fib_cache):
        with _fib_lock:
            while n >= len(_fib_cache):
                _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
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


@dataclass(frozen=True)
class HoradamParams:
    """Initial conditions for the Fibonacci recurrence: h_0 = p, h_1 = q."""

    p: Rational
    q: Rational


def horadam(n: int, params: HoradamParams) -> Rational:
    """n-th term of the Fibonacci recurrence started at (p, q).

    Equals p * f_{n-1} + q * f_n, so big indices stay cheap.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return as_rational(params.p)
    return as_rational(params.p * fib(n - 1) + params.q * fib(n))


class GoldenNumber:
    """Exact element u + v*a of the quadratic field with a*a = a + 1.

    a is the positive root (the golden ratio), which is irrational, so
    u + v*a vanishes only when u = v = 0 and the sign is decidable from
    (u, v) alone with no floating point.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Union[Rational, str] = 0, v: Union[Rational, str] = 0):
        object.__setattr__(self, "u", u if type(u) is Fraction else Fraction(u))
        object.__setattr__(self, "v", v if type(v) is Fraction else Fraction(v))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNumber is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, GoldenNumber):
            return self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
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
        diagonal form x1^2 + a1*x2^2 + a2*x3^2 + a1*a2*x4^2.  Built on
        first use and kept, with its scaled constants, for the life of
        these params; it is not a field, so equality, hashing and repr
        still read the alphas alone.
        """
        try:
            return self._signature
        except AttributeError:
            sig = AlgebraSignature(2, (-self.alpha1, -self.alpha2),
                                   Convention.CONJUGATE_RIGHT)
            object.__setattr__(self, "_signature", sig)
            return sig


def fibonacci_quaternion(n: int, params: QuaternionParams) -> Element:
    """Quaternion with coefficients (f_n, f_{n+1}, f_{n+2}, f_{n+3})."""
    if n < 0:
        raise ValueError("index must be >= 0")
    f0, f1 = _fib_doubling(n) if n >= FIB_MEMO else (fib(n), fib(n + 1))
    f2 = f0 + f1
    return params.signature().element((f0, f1, f2, f1 + f2))


def fib_norm_direct(n: int, params: QuaternionParams) -> Rational:
    """Norm of the n-th Fibonacci quaternion, via the algebra norm."""
    return fibonacci_quaternion(n, params).norm()


def fib_norm_formula(n: int, params: QuaternionParams) -> Rational:
    """Closed form for the same norm, in shifted-Fibonacci terms.

    h_{2n+2} started at (1 + 2*a2, 3*a2), plus (a1 - 1) times h_{2n+3}
    started at (1 + 2*a2, a2), minus 2*(a1 - 1)*(1 + a2)*f_n*f_{n+1}.
    Each term is summed as an integer over den(a1)*den(a2), with one
    exact division at the end.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    p1, q1 = params.alpha1.numerator, params.alpha1.denominator
    p2, q2 = params.alpha2.numerator, params.alpha2.denominator
    start = q2 + 2 * p2                  # den(a2) * (1 + 2*a2)
    shift = p1 - q1                      # den(a1) * (a1 - 1)
    f_odd, f_even = fib(2 * n + 1), fib(2 * n + 2)
    first = q1 * (start * f_odd + 3 * p2 * f_even)
    second = shift * (start * f_even + p2 * (f_odd + f_even))
    cross = 2 * shift * (q2 + p2) * fib(n) * fib(n + 1)
    return as_rational(Fraction(first + second - cross, q1 * q2))


def energy(params: Union[QuaternionParams, Tuple[Rational, Rational]]) -> GoldenNumber:
    """Growth coefficient of the norm sequence, exact in the golden field.

    (1/5) * [1 + a1 + 2*a2 + 5*a1*a2 + a*(a1 + 3*a2 + 8*a1*a2)].
    Its sign is the eventual sign of the norms.  A bare (a1, a2) pair is
    accepted as well, since the coefficient itself is defined for zero
    parameters even though no quaternion algebra is.
    """
    if isinstance(params, QuaternionParams):
        a1, a2 = Fraction(params.alpha1), Fraction(params.alpha2)
    else:
        a1, a2 = Fraction(params[0]), Fraction(params[1])
    # Both brackets times den(a1)*den(a2), in integers.
    p1, q1, p2, q2 = a1.numerator, a1.denominator, a2.numerator, a2.denominator
    den = 5 * q1 * q2
    return GoldenNumber(Fraction(q1 * q2 + p1 * q2 + 2 * p2 * q1 + 5 * p1 * p2, den),
                        Fraction(p1 * q2 + 3 * p2 * q1 + 8 * p1 * p2, den))


def _settle_index(e: GoldenNumber, params: QuaternionParams) -> int:
    """Least n1 from which every norm is nonzero with the sign of E = e.

    With conj(u + v*a) = (u + v) - v*a the golden conjugate and
    Z = (1 - a1)*(1 + a2), the norm is
    N(n) = E*a**(2n) + conj(E)*conj(a)**(2n) - (2/5)*(-1)**n*Z, and
    |conj(a)| < 1.  So every n with |E|*a**(2n) > |conj(E)| + (2/5)*|Z|
    has sign(N(n)) = sign(E).  n1 is the least such n, found by growing
    |E| by a**2 per step and deciding each comparison exactly: O(n1)
    steps for a nonzero E.  Both sides are compared times
    5*den(a1)*den(a2), which makes every coefficient an integer.
    """
    p1, q1 = params.alpha1.numerator, params.alpha1.denominator
    p2, q2 = params.alpha2.numerator, params.alpha2.denominator
    e = e * (5 * q1 * q2)
    conj = GoldenNumber(e.u + e.v, -e.v)
    bound = conj * conj.sign() + 2 * abs((q1 - p1) * (q2 + p2))
    grown = e * e.sign()
    n1 = 0
    while (grown - bound).sign() <= 0:
        grown = grown * GOLDEN_SQUARE
        n1 += 1
    return n1


def invertibility_threshold(params: QuaternionParams, n_max: int = 200) -> Optional[int]:
    """Least index from which every norm up to n_max has the energy's sign.

    Norms of that sign are nonzero, so all later terms are invertible.
    Every norm from n1 on has that sign, where n1 is the least n with
    |E|*a**(2n) > |conj(E)| + (2/5)*|(1 - a1)*(1 + a2)| (E the energy;
    see ``_settle_index``).  So the scan runs downward from
    min(n1, n_max) only: O(min(n1, n_max)) norms, with the same answer
    as a scan from n_max.  Returns None when the sign has not stabilized
    by n_max; raises when the energy is zero and the criterion does not
    apply.
    """
    e = energy(params)
    target = e.sign()
    if target == 0:
        raise ValueError("energy is zero; the sign criterion does not apply")
    threshold: Optional[int] = None
    for n in range(min(_settle_index(e, params), n_max), -1, -1):
        norm = fib_norm_direct(n, params)
        matches = norm != 0 and (1 if norm > 0 else -1) == target
        if not matches:
            return threshold
        threshold = n
    return threshold


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
    if n < 0:
        raise ValueError("index must be >= 0")
    p = golden_power(n)
    expected_v = fib(n)
    expected_u = 1 if n == 0 else fib(n - 1)
    return BinetCheck(n=n, power_u=p.u, power_v=p.v,
                      expected_u=expected_u, expected_v=expected_v)
