"""Fibonacci-coefficient quaternions and their exact norm analysis.

The quaternion with coefficients (f_n, f_{n+1}, f_{n+2}, f_{n+3}) lives in
a two-parameter quaternion algebra.  Its norm has a closed form in the
signature's norm weights, and its eventual sign, which decides invertibility
of all late enough terms, is the sign of an exact golden-field element.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Optional, Tuple, Union

from .algebra import (_CONJUGATE_RIGHT, AlgebraSignature, Element, Rational, _element,
                      _Frozen, _index, _lucas, _ratio, _scaled_constants, as_rational)

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
    return _fib_pair(_fib_index(n))[0]


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


class GoldenNumber(_Frozen):
    """Exact element u + v*a of the quadratic field with a*a = a + 1.

    a is the positive root (the golden ratio), which is irrational, so
    u + v*a vanishes only when u = v = 0 and the sign is decidable from
    (u, v) alone with no floating point.

    Stored as ``Element`` stores its coefficients: integer numerators
    (nu, nv) over one denominator, in lowest terms (den > 0,
    gcd(nu, nv, den) = 1), so arithmetic, signs, equality and hashing run
    on ints.  ``u`` and ``v`` are Fractions made from the form on each read.
    """

    __slots__ = ("_nu", "_nv", "_den")

    def __init__(self, u: Rational = 0, v: Rational = 0):
        nu, du = as_rational(u).as_integer_ratio()
        nv, dv = as_rational(v).as_integer_ratio()
        # Both ratios are in lowest terms, so over the lcm of du and dv the form is too.
        den = du if du == dv else lcm(du, dv)
        self._set(nu * (den // du), nv * (den // dv), den)

    @property
    def u(self) -> Fraction:
        return Fraction(self._nu, self._den)

    @property
    def v(self) -> Fraction:
        return Fraction(self._nv, self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (self._nv == 0 and self._nu == other.numerator
                    and self._den == other.denominator)
        return super().__eq__(other)

    def __hash__(self) -> int:
        if self._nv:
            return hash((self._nu, self._nv, self._den))
        return hash(self._nu if self._den == 1 else Fraction(self._nu, self._den))

    def _combine(self, other, op) -> GoldenNumber:
        """Coordinatewise op over the product of the two denominators."""
        if not isinstance(other, GoldenNumber):
            other = self._coerce(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _golden(op(self._nu, other._nu), op(self._nv, other._nv), d1)
        return _golden(op(self._nu * d2, other._nu * d1), op(self._nv * d2, other._nv * d1),
                       d1 * d2)

    def __add__(self, other) -> GoldenNumber:
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        return _golden(-self._nu, -self._nv, self._den)

    def __sub__(self, other) -> GoldenNumber:
        return self._combine(other, sub)

    def __rsub__(self, other) -> GoldenNumber:
        return self._coerce(other) - self

    def __mul__(self, other) -> GoldenNumber:
        if not isinstance(other, GoldenNumber):
            if isinstance(other, (int, Fraction)):
                num, den = as_rational(other).as_integer_ratio()
                return _golden(self._nu * num, self._nv * num, self._den * den)
            other = self._coerce(other)
        u1, v1, u2, v2 = self._nu, self._nv, other._nu, other._nv
        # (u1 + v1 a)(u2 + v2 a) with a*a = a + 1
        vv = v1 * v2
        return _golden(u1 * u2 + vv, u1 * v2 + v1 * u2 + vv, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenNumber:
        """g**n for n >= 0: ``_lucas`` on nu + nv*a, of trace 2*nu + nv and norm
        nu*nu + nu*nv - nv*nv, over den**n."""
        n = _index(n)
        if n < 0:
            raise ValueError("exponent must be >= 0")
        if n == 0:
            return _golden(1, 0, 1)
        nu, nv = self._nu, self._nv
        norm = nu * nu + nu * nv - nv * nv
        u, w = _lucas(2 * nu + nv, norm, n)
        return _golden(u * nu - norm * w, u * nv, self._den ** n)

    @staticmethod
    def _coerce(x) -> GoldenNumber:
        """A rational x as a golden number; callers have tested for a golden number."""
        if isinstance(x, (int, Fraction)):
            num, den = as_rational(x).as_integer_ratio()
            return _golden(num, 0, den)
        raise TypeError(f"cannot combine GoldenNumber with {type(x).__name__}")

    def is_zero(self) -> bool:
        return self._nu == 0 and self._nv == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, that of nu + nv*a as den > 0.

        For v > 0 the value is negative exactly when u < 0 and
        u*u + u*v - v*v > 0, because a is the positive root of
        x*x - x - 1; the v < 0 case is handled by negating.
        """
        u, v = self._nu, self._nv
        if v == 0:
            return 0 if u == 0 else (1 if u > 0 else -1)
        s = 1
        if v < 0:
            u, v, s = -u, -v, -1
        return -s if u < 0 and u * u + u * v - v * v > 0 else s

    def __repr__(self) -> str:
        return f"GoldenNumber({self.u}, {self.v})"

    def __str__(self) -> str:
        u, v = self.u, self.v
        if v == 0:
            return str(u)
        mag = abs(v)
        head = "" if mag == 1 else str(mag) if mag.denominator == 1 else f"({mag})"
        if u == 0:
            return f"{'-' if v < 0 else ''}{head}a"
        return f"{u} {'-' if v < 0 else '+'} {head}a"


_new_golden = GoldenNumber._new  # a module name, as algebra._new_element is


def _golden(nu: int, nv: int, den: int) -> GoldenNumber:
    """The golden number (nu + nv*a) / den (integers, den > 0), in lowest terms.

    The constructor for internal results, whose parts are integers by
    construction: the public coercion is skipped.
    """
    if den != 1:
        g = gcd(nu, nv, den)
        if g != 1:
            nu, nv, den = nu // g, nv // g, den // g
    return _new_golden(nu, nv, den)


def golden_power(n: int) -> GoldenNumber:
    """a**n; equals fib(n)*a + fib(n-1) for n >= 1."""
    return _golden(0, 1, 1) ** n


class QuaternionParams(_Frozen):
    """The two nonzero parameters of a generalized quaternion algebra."""

    _fields = ("alpha1", "alpha2")
    __slots__ = _fields + ("_signature", "_form")
    alpha1: Rational
    alpha2: Rational

    def __init__(self, alpha1: Rational, alpha2: Rational):
        a1, a2 = as_rational(alpha1), as_rational(alpha2)
        if a1 == 0 or a2 == 0:
            raise ValueError("quaternion parameters must be nonzero")
        # Checked above, so the signature skips its validation; its kernel is
        # bound at once, as the closed form reads its constants.
        sig = AlgebraSignature._new(2, (-a1, -a2), _CONJUGATE_RIGHT)
        kernel = sig._kernel()
        self._set(a1, a2, sig, _closed_form(kernel[2], kernel[4]))

    def signature(self) -> AlgebraSignature:
        """Depth-2 doubling algebra realizing this parameter pair.

        Stage parameters are the negated alphas, which makes the norm the
        diagonal form x1^2 + a1*x2^2 + a2*x3^2 + a1*a2*x4^2.  Built with the
        params and kept with ``_form``, the ``_closed_form`` of its norm
        weights; neither is a field, so neither enters ``==``, ``hash`` or
        ``repr``.
        """
        return self._signature


def _closed_form(d: int, weights: list) -> Tuple[int, int, int, int]:
    """(u, v, z, D) from the norm weights w_p over D.

    As 5*f_k**2 = a**(2k) + conj(a)**(2k) - 2*(-1)**k, the element with
    coefficients f_(n+p) has norm N(n) = E*a**(2n) + conj(E)*conj(a)**(2n)
    - (2/5)*(-1)**n*Z with 5*D*E = sum(w_p * a**(2p)) = u + v*a and
    D*Z = sum(w_p * (-1)**p) = z.  At depth 2, 5*E = 1 + a1 + 2*a2 + 5*a1*a2
    + a*(a1 + 3*a2 + 8*a1*a2) and Z = (1 - a1)*(1 + a2).
    """
    u = v = z = 0
    for p, w in enumerate(weights):
        f0, f1 = _fib_pair(2 * p)  # a**(2p) = f_(2p-1) + f_(2p)*a = (f1 - f0) + f0*a
        u += w * (f1 - f0)
        v += w * f0
        z += -w if p & 1 else w
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
        _, d, weights = _scaled_constants([-as_rational(a) for a in params])
        u, v, _, d = _closed_form(d, weights)
    return _golden(u, v, 5 * d)


def _settle_index(params: QuaternionParams) -> int:
    """Least n1 from which every norm is nonzero with the sign of the energy E.

    In N(n) of ``_closed_form``, |conj(a)| < 1, so every n with
    |E|*a**(2n) > |conj(E)| + (2/5)*|Z| has sign(N(n)) = sign(E).  Times
    5*D the sides are |u + v*a| and |(u + v) - v*a| + 2*|z|.  The left grows
    with n, so n1 is searched for up to the cap ((|u| + |v| + 2|z|)*(|u| +
    |v|)).bit_length(): |u + v*a| >= 1/(|u| + |v|) as u*u + u*v - v*v is a
    nonzero integer, the right side is at most |u| + |v| + 2|z|, and a*a > 2.
    A cap that fails (zero energy, or a wrong sign) raises ArithmeticError.
    """
    u, v, z, _ = params._form
    e, conj = _golden(u, v, 1), _golden(u + v, -v, 1)
    grown, bound = e * e.sign(), conj * conj.sign() + 2 * abs(z)

    def settled(n: int) -> bool:
        f0, f1 = _fib_pair(2 * n)  # f_(2n-1) = f1 - f0
        return (grown * _golden(f1 - f0, f0, 1) - bound).sign() > 0

    if (grown - bound).sign() > 0:
        return 0
    cap = ((abs(u) + abs(v) + 2 * abs(z)) * (abs(u) + abs(v))).bit_length()
    lo, hi = 0, min(1, cap)  # n1 > lo: hi doubles up to the cap, then bisection
    while not settled(hi):
        if hi == cap:
            raise ArithmeticError(f"no settle index up to its cap {cap} for {params}")
        lo, hi = hi, min(2 * hi, cap)
    return bisect_left(range(hi), True, lo + 1, key=settled)


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


class BinetCheck(_Frozen):
    """Exact verdict on the closed-form expression for one Fibonacci index.

    ``power_u + power_v * a`` is a**n; the identity holds when the
    golden coefficient equals f_n (then a**n - (1-a)**n is exactly
    f_n * (2a - 1), the square root of five).
    """

    __slots__ = ("n", "power_u", "power_v", "expected_u", "expected_v")
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
