"""Integer subrings of the doubling algebras and residue-field labelling.

A single integer element w with nonzero norm generates a commutative
subring of elements a + b*w.  Modulo a prime of that subring, the classes
form a field of prime size whose minimal-norm representatives serve as a
signal constellation; the labelling map carries mod-p symbols onto it.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import isqrt
from typing import Iterable, List, Tuple

from .algebra import (MAX_FIELD_DEPTH, AlgebraSignature, Convention, Element, _element,
                      _Frozen, _index, as_rational)

# Largest residue field built.  At p = 1,021,441 a `label` process builds
# and certifies its field in 0.5-0.6 s at a 72 MB peak (one core of a
# 2-vCPU host, Python 3.11): about 54 bytes and 0.5 us per class over the
# 17 MB and 0.1 s of a p = 13 run.
MAX_FIELD_SIZE = 2 ** 20


@lru_cache(maxsize=None, typed=True)
def integer_signature(t: int) -> AlgebraSignature:
    """All-(-1) doubling algebra of depth t, the home of integer elements.

    One signature per depth, so its scaled constants are built once.
    """
    return AlgebraSignature(t, (-1,) * t, Convention.CONJUGATE_RIGHT)


def _round_quotient(a: int, n: int) -> int:
    """a / n rounded to the nearest integer, ties away from zero; n != 0."""
    if n < 0:
        a, n = -a, -n
    floor, rem = divmod(abs(a), n)
    floor += 2 * rem >= n
    return floor if a >= 0 else -floor


class WGenerator(_Frozen):
    """Integer element w with its quadratic data: trace q and norm m.

    Every element of a doubling algebra satisfies w*w - q*w + m = 0 (Schafer,
    1966, ch. III), which is all the subring arithmetic needs; q and m must be
    integers, and m nonzero.
    """

    __slots__ = ("w", "q", "m")

    def __init__(self, w: Element):
        if not isinstance(w, Element):
            raise TypeError(f"expected an Element, got {type(w).__name__}")
        if w._den != 1:  # the canonical form has den 1 exactly at integer coefficients
            raise ValueError("generator must have integer coefficients")
        # q = 2 * w_0 is then an int; the norm is not under fractional stage
        # parameters (w = e1 under gamma = 1/2 has m = -1/2).
        m = w.norm()
        if type(m) is not int:
            raise ValueError("generator must have an integer trace and norm")
        if m == 0:
            raise ValueError("generator has norm zero and spans no quadratic ring")
        self._set(w, w.trace(), m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WGenerator):
            return NotImplemented
        return self.w == other.w

    def __hash__(self) -> int:
        return hash(self.w)

    def element(self, a: int, b: int) -> UElement:
        if type(a) is int and type(b) is int:
            return _u(a, b, self)
        return UElement(a, b, self)

    def is_definite(self) -> bool:
        """Whether the norm form a*a + q*a*b + m*b*b is positive definite."""
        return 4 * self.m > self.q * self.q

    def __repr__(self) -> str:
        return f"WGenerator(w={self.w!r}, q={self.q}, m={self.m})"


def _placement(t: int, indices: Sequence[int]):
    """The map of integers (a1, a2, a3, a4) -> a1 + a2*e_i + a3*e_j + a4*e_k at depth
    t, once t <= MAX_FIELD_DEPTH and (i, j, k) are distinct indices in 1..2**t - 1."""
    t = _index(t)
    if t > MAX_FIELD_DEPTH:
        raise ValueError(f"depth {t} exceeds MAX_FIELD_DEPTH = {MAX_FIELD_DEPTH}")
    indices = [_index(i) for i in indices]
    if len(indices) != 3 or len(set(indices)) != 3:
        raise ValueError("basis_choice must be three distinct indices")
    if any(i < 1 for i in indices):
        raise ValueError("basis indices must be >= 1")
    sig = integer_signature(t)
    for idx in indices:
        if idx >= sig.dimension:
            raise ValueError(f"basis index {idx} out of range for depth {t}")

    def place(coeffs: Sequence[int]) -> Element:
        coeffs = [as_rational(c) for c in coeffs]
        if any(type(c) is not int for c in coeffs):
            raise ValueError("generator must have integer coefficients")
        vec = [0] * sig.dimension
        for idx, c in zip([0, *indices], coeffs):
            vec[idx] = c
        return _element(sig, tuple(vec), 1)
    return place


def make_w(t: int, basis_choice: Sequence[int], coeffs: Sequence[int]) -> WGenerator:
    """Generator a1 + a2*e_i + a3*e_j + a4*e_k in the depth-t integer algebra."""
    place = _placement(t, basis_choice)
    if len(coeffs) != 4:
        raise ValueError("expected four integer coefficients")
    return WGenerator(place(coeffs))


def _is_int(x) -> bool:
    """Whether x is an integer, bools excluded as ``Element`` excludes them."""
    return isinstance(x, int) and not isinstance(x, bool)


class UElement(_Frozen):
    """Element a + b*w of the subring generated by one integer element.

    Arithmetic reduces through w*w = q*w - m, so the ring is commutative
    and associative regardless of the ambient algebra's depth.  An
    element with b == 0 equals, and hashes like, the integer a.
    """

    __slots__ = ("a", "b", "gen")

    def __init__(self, a: int, b: int, gen: WGenerator):
        if (type(a) is not int or type(b) is not int) and (not _is_int(a) or not _is_int(b)):
            raise TypeError("subring coordinates must be integers (not bool)")
        if not isinstance(gen, WGenerator):
            raise TypeError(f"expected a WGenerator, got {type(gen).__name__}")
        self._set(a, b, gen)

    def _check(self, other: UElement) -> None:
        if self.gen is not other.gen and self.gen != other.gen:
            raise ValueError("elements belong to different subrings")

    def __add__(self, other) -> UElement:
        other = self._coerce(other)
        self._check(other)
        return _u(self.a + other.a, self.b + other.b, self.gen)

    __radd__ = __add__

    def __sub__(self, other) -> UElement:
        other = self._coerce(other)
        self._check(other)
        return _u(self.a - other.a, self.b - other.b, self.gen)

    def __rsub__(self, other) -> UElement:
        return self._coerce(other) - self

    def __neg__(self) -> UElement:
        return _u(-self.a, -self.b, self.gen)

    def __mul__(self, other) -> UElement:
        if isinstance(other, UElement):
            self._check(other)
            q, m = self.gen.q, self.gen.m
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return _u(a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + q * b1 * b2, self.gen)
        if _is_int(other):
            return _u(self.a * other, self.b * other, self.gen)
        return NotImplemented

    __rmul__ = __mul__

    def _coerce(self, x) -> UElement:
        if isinstance(x, UElement):
            return x
        if _is_int(x):
            return _u(x, 0, self.gen)
        raise TypeError(f"cannot combine UElement with {type(x).__name__}")

    def __eq__(self, other) -> bool:
        if isinstance(other, UElement):
            return (self.a == other.a and self.b == other.b
                    and (self.gen is other.gen or self.gen == other.gen))
        if _is_int(other):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.gen))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> UElement:
        return _u(self.a + self.b * self.gen.q, -self.b, self.gen)

    def norm(self) -> int:
        a, b, gen = self.a, self.b, self.gen
        return a * (a + gen.q * b) + gen.m * b * b

    def to_element(self) -> Element:
        """Embed back into the ambient algebra."""
        return self.gen.w.signature.scalar(self.a) + self.b * self.gen.w

    def __repr__(self) -> str:
        return f"UElement({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        w_part = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return w_part
        return f"{self.a}{'+' if self.b > 0 else ''}{w_part}".replace("+-", "-")


# The element a + b*w, for internal results whose integer coordinates and
# generator are correct by construction: the public validation is skipped.
_u = UElement._new


def _require_u(x, role: str) -> None:
    if not isinstance(x, UElement):
        raise TypeError(f"{role} must be a UElement, got {type(x).__name__}")


def is_prime_u(x: UElement) -> bool:
    """Norm-primality certificate for subring primes.

    A prime of the subring has prime integer norm; the converse is the
    sufficient condition used for every construction here, so composite
    norms simply report False.
    """
    if type(x) is not UElement:
        _require_u(x, "x")
    return _is_prime(x.norm())


# Prime bases of the Miller-Rabin rounds, and for each k the least
# integer that is a strong pseudoprime to all of the first k bases
# (psi_k; Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def _is_prime(n: int) -> bool:
    """Deterministic primality of n below psi_13, about 3.3e24.

    Strong-probable-prime rounds on the first k prime bases decide every
    n < psi_k, so the rounds stop at the first k that covers n.  Larger
    n raise ValueError rather than fall back on a probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_PSI[-1]:
        raise ValueError(f"primality of {n} is only decided below {_MR_PSI[-1]}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & -(n - 1)).bit_length() - 1    # n - 1 = d * 2**r, d odd
    d = (n - 1) >> r
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise AssertionError("unreachable: n < psi_13 returns in the last round")


@lru_cache(maxsize=None)
def _logger():
    """The layer's logger, fetched on the first ``u_mod`` fallback, the one path that logs.

    ``logging`` is imported only then.  The logger is kept because ``getLogger``
    takes a lock (about 1 us a call) and the fallback can fire on many calls.
    """
    import logging
    return logging.getLogger(__name__)


def u_mod(x: UElement, y: UElement) -> UElement:
    """Remainder of x modulo y, aiming for norm below the norm of y.

    The exact quotient x * conj(y) / norm(y) is rounded coordinatewise,
    ties away from zero.  When the rounded quotient misses the norm
    bound, the eight neighboring integer quotients are searched and the
    minimal-norm remainder wins; that fallback is logged.

    The strict bound norm(v) < norm(y) is guaranteed when the
    generator's form has 4*m - q*q < 12, and on the boundary value 12
    whenever norm(y) is odd.  At discriminant 12 with even norm(y) a
    residue class can sit exactly on a lattice deep hole where its
    minimal norm equals norm(y); the minimum is still returned.
    """
    if type(x) is not UElement or type(y) is not UElement:
        _require_u(x, "x")
        _require_u(y, "modulus")
    a1, b1, a2, b2, gen = x.a, x.b, y.a, y.b, y.gen
    if a2 == 0 and b2 == 0:
        raise ZeroDivisionError("modulus is zero")
    if x.gen is not gen and x.gen != gen:
        raise ValueError("elements belong to different subrings")
    q, m = gen.q, gen.m
    c2 = a2 + q * b2                     # conj(y) = c2 - b2*w
    n = a2 * c2 + m * b2 * b2            # norm(y) = y * conj(y)
    if n == 0:
        raise ValueError("modulus has norm zero")
    # x * conj(y) = (a1*c2 + m*b1*b2) + (a2*b1 - a1*b2)*w
    za = _round_quotient(a1 * c2 + m * b1 * b2, n)
    zb = _round_quotient(a2 * b1 - a1 * b2, n)
    # The remainder x - (za + zb*w)*y and its norm.
    ra = a1 - za * a2 + m * zb * b2
    rb = b1 - za * b2 - zb * c2
    best = abs(ra * (ra + q * rb) + m * rb * rb)
    if best < abs(n):
        return _u(ra, rb, gen)
    _logger().debug("nearest rounding missed the norm bound for %s mod %s; "
                    "searching neighbor quotients", x, y)
    va, vb = ra, rb
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da == 0 and db == 0:
                continue
            # x - (za + da + (zb + db)*w)*y
            ca = ra - da * a2 + m * db * b2
            cb = rb - da * b2 - db * c2
            cn = abs(ca * (ca + q * cb) + m * cb * cb)
            if cn < best:
                best, va, vb = cn, ca, cb
    return _u(va, vb, gen)


def four_square_root(m: int, target_indices: Sequence[int], t: int) -> Element:
    """Integer element solving x*x - 2*a1*x + m = 0 in the depth-t algebra.

    Finds the lexicographically smallest (a1, a2, a3, a4) of nonnegative
    integers with a1^2 + a2^2 + a3^2 + a4^2 = m (one always exists) and
    places the last three on the chosen basis indices.
    """
    m = _index(m)
    if m < 1:
        raise ValueError("target must be a positive integer")
    place = _placement(t, target_indices)
    return place(_four_square_decomposition(m))


def _four_square_decomposition(m: int) -> Tuple[int, int, int, int]:
    for a1 in range(isqrt(m) + 1):
        r1 = m - a1 * a1
        for a2 in range(isqrt(r1) + 1):
            r2 = r1 - a2 * a2
            for a3 in range(isqrt(r2) + 1):
                r3 = r2 - a3 * a3
                a4 = isqrt(r3)
                if a4 * a4 == r3:
                    return a1, a2, a3, a4
    raise AssertionError("unreachable: every natural number is a sum of four squares")


class Representatives(_Frozen, Sequence):
    """The representatives of a residue field, kept as coordinates.

    Entry k is the subring element xs[k] + ys[k]*w, made when it is read,
    so a field holds two int lists instead of an element per class.  The
    sequence is read-only; it compares, hashes and pickles by its
    coordinates and generator.  The constructor takes elements of the
    subring of ``gen`` and refuses one of another subring.
    """

    __slots__ = ("xs", "ys", "gen")

    def __init__(self, elements: Iterable[UElement], gen: WGenerator):
        if not isinstance(gen, WGenerator):
            raise TypeError(f"expected a WGenerator, got {type(gen).__name__}")
        xs, ys = [], []
        for u in elements:
            _require_u(u, "representative")
            if u.gen is not gen and u.gen != gen:
                raise ValueError("representative belongs to a different subring")
            xs.append(u.a)
            ys.append(u.b)
        self._set(xs, ys, gen)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(_u, self.xs[k], self.ys[k], repeat(self.gen)))
        return _u(self.xs[k], self.ys[k], self.gen)

    def __iter__(self):
        return map(_u, self.xs, self.ys, repeat(self.gen))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representatives):
            return NotImplemented
        return (self.xs == other.xs and self.ys == other.ys
                and (self.gen is other.gen or self.gen == other.gen))

    def __hash__(self) -> int:
        return hash((tuple(self.xs), tuple(self.ys), self.gen))

    def __repr__(self) -> str:
        return f"Representatives(<{len(self.xs)} classes>, gen={self.gen!r})"


@dataclass(frozen=True)
class ResidueField:
    """The p classes modulo a subring prime, with their labelling.

    ``reps[k]`` is the minimal-norm representative labelled k, read from
    a ``Representatives`` sequence that makes the element on each read;
    any sequence of elements of the prime's subring passed as ``reps`` is
    converted to one.  ``s`` is the root of the labelling congruence, so
    the label of a + b*w is (a + b*s) mod p for any subring element, not
    just representatives.
    """

    pi: UElement
    p: int
    s: int
    reps: Representatives

    def __post_init__(self):
        reps, gen = self.reps, self.pi.gen
        if type(reps) is not Representatives or (reps.gen is not gen and reps.gen != gen):
            object.__setattr__(self, "reps", Representatives(reps, gen))

    @property
    def gen(self) -> WGenerator:
        return self.pi.gen

    def label(self, u: UElement) -> int:
        _require_u(u, "labelled element")
        gen = self.pi.gen
        if u.gen is not gen and u.gen != gen:
            raise ValueError("element belongs to a different subring")
        return (u.a + u.b * self.s) % self.p

    def unlabel(self, k: int) -> UElement:
        k = _index(k)
        if not 0 <= k < self.p:
            raise ValueError(f"symbol {k} out of range for field size {self.p}")
        return self.reps[k]

    def reduce(self, u: UElement) -> UElement:
        """Canonical representative of u's class."""
        return self.reps[self.label(u)]


def residue_field(pi: UElement, verify: bool = True) -> ResidueField:
    """Construct the residue field modulo a norm-prime subring element.

    Solves the labelling congruence a + b*s = 0 (mod p), then picks for
    every class the representative of minimal norm; ties prefer a
    nonnegative w-coordinate, then the lexicographically smallest
    (b, a).  With ``verify`` the result is certified in O(p) steps (see
    ``_verify_field``).  Sizes above MAX_FIELD_SIZE are refused before
    anything is allocated.
    """
    _require_u(pi, "modulus")
    p = pi.norm()
    if p > MAX_FIELD_SIZE:
        raise ValueError(f"modulus norm {p} exceeds the field-size bound "
                         f"MAX_FIELD_SIZE = {MAX_FIELD_SIZE}")
    if not _is_prime(p):
        raise ValueError(f"modulus norm {p} is not prime")
    gen = pi.gen
    if not gen.is_definite():
        raise ValueError("generator norm form must be positive definite")
    if pi.b % p == 0:
        raise ValueError("labelling congruence is degenerate for this prime")
    s = (-pi.a * pow(pi.b, -1, p)) % p
    # One pass over the points of norm below p.  With x = 2a + q*b,
    # 4*norm(a + b*w) = x*x + disc*b*b, so norm < p exactly when
    # x*x <= 4p - 1 - disc*b*b: row b holds the a with |2a + q*b| <= r.
    # Class k keeps its least norm in norms[k] and the winning point in xs[k],
    # ys[k]; equal norms go to the least (b < 0, b, a).  The placeholder norm p
    # is beaten by every point.  Rows slice one list of a, so classes share ints.
    q, m = gen.q, gen.m
    disc = 4 * m - q * q
    bound = 4 * p - 1
    b_max = isqrt(bound // disc)
    a_max = (isqrt(bound) + abs(q) * b_max) // 2
    a_coords = list(range(-a_max, a_max + 1))
    norms, xs, ys = [p] * p, [0] * p, [0] * p
    for b in range(-b_max, b_max + 1):
        r = isqrt(bound - disc * b * b)
        qb, mbb, sb = q * b, m * b * b, s * b
        for a in a_coords[a_max - (r + qb) // 2:a_max + (r - qb) // 2 + 1]:
            k = (a + sb) % p
            n = a * (a + qb) + mbb
            best = norms[k]
            if n < best:
                norms[k], xs[k], ys[k] = n, a, b
            elif n == best and (b < 0, b, a) < (ys[k] < 0, ys[k], xs[k]):
                xs[k], ys[k] = a, b
    if p in norms:
        missing = [k for k, n in enumerate(norms) if n == p]
        raise ArithmeticError(f"classes without small representatives: {missing}")
    field = ResidueField(pi=pi, p=p, s=s, reps=Representatives._new(xs, ys, gen))
    if verify:
        _verify_field(field)
    return field


def _verify_field(field: ResidueField) -> None:
    """Certify in O(p) that the labelling is the quotient map onto Z/p.

    The labelling is additive and onto, multiplicative iff w*w labels as
    s*s, and its kernel holds pi; both it and (pi) have index p, so they
    are equal and the p representatives checked below are the field.
    They are distinct because reps[k] labels as k for every k: equal
    coordinates would give equal labels.  The representatives are checked
    on their integer coordinates, with the label and norm formulas.
    """
    p, s, gen = field.p, field.s, field.gen
    xs, ys = field.reps.xs, field.reps.ys
    if len(xs) != p:
        raise ArithmeticError(f"{len(xs)} representatives for {p} classes")
    q, m = gen.q, gen.m
    for k, a, b in zip(range(p), xs, ys):
        if (a + b * s) % p != k:
            raise ArithmeticError(f"representative {_u(a, b, gen)} mislabelled as {k}")
        if a * (a + q * b) + m * b * b >= p:
            raise ArithmeticError(f"representative {_u(a, b, gen)} has norm >= {p}")
    if field.label(field.pi) != 0:
        raise ArithmeticError(f"the prime {field.pi} does not label as 0")
    w = gen.element(0, 1)
    if field.label(w * w) != s * s % p:
        raise ArithmeticError("labelling is not multiplicative: w*w != s*s")


def encode_symbols(ks: Iterable[int], field: ResidueField) -> List[UElement]:
    """Map mod-p symbols to their constellation representatives."""
    return [field.unlabel(k) for k in ks]


def decode_symbols(us: Iterable[UElement], field: ResidueField) -> List[int]:
    """Labels of arbitrary subring elements: the labelling is a ring
    homomorphism whose kernel holds the prime, so no reduction is needed."""
    return [field.label(u) for u in us]
