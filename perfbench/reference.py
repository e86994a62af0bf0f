"""Reference mathematics for the benchmark's output checks.

Nothing here imports cdalgebra.  Each function restates a definition
(the pair formula of the doubling product, the diagonal norm form, the
Fibonacci iteration, trial division, the quadratic subring law) so that
a fault in the package cannot hide behind the same fault in its check.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Sequence, Tuple

# ---- doubling product ------------------------------------------------------


def conj(x: tuple) -> tuple:
    """conj((a, b)) = (conj(a), -b), applied down to the scalars."""
    if len(x) == 1:
        return x
    h = len(x) // 2
    return conj(x[:h]) + tuple(-c for c in x[h:])


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def mul(x: tuple, y: tuple, gammas: Sequence, convention: str) -> tuple:
    """Doubling product of coefficient tuples by the pair formula.

    With x = (a, b), y = (c, d) and g the top stage parameter:
      eq11: (ac + g conj(d) b,  b conj(c) + d a)
      eq31: (ac + g d conj(b),  conj(a) d + c b)
    """
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    g, rest = gammas[-1], gammas[:-1]
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    if convention == "eq11":
        lo = _add(mul(a, c, rest, convention),
                  tuple(g * v for v in mul(conj(d), b, rest, convention)))
        hi = _add(mul(b, conj(c), rest, convention), mul(d, a, rest, convention))
    else:
        lo = _add(mul(a, c, rest, convention),
                  tuple(g * v for v in mul(d, conj(b), rest, convention)))
        hi = _add(mul(conj(a), d, rest, convention), mul(c, b, rest, convention))
    return lo + hi


def norm(x: Sequence, gammas: Sequence):
    """Diagonal form: sum of x_p^2 times prod(-gamma_i) over the stage bits of p."""
    total = 0
    for p, c in enumerate(x):
        w = 1
        for i, g in enumerate(gammas):
            if p >> i & 1:
                w *= -g
        total += c * c * w
    return total


def basis_coefficient(p: int, q: int, t: int, convention: str) -> Tuple[int, int]:
    """(sign, stage mask) of e_p e_q, from the pair formula on unit vectors.

    Unit vectors split as (e, 0) or (0, e) on the top stage; conj(e_k)
    is -e_k for k != 0.  Stage i contributes bit i - 1 of the mask.
    """
    if t == 0:
        return 1, 0
    h = 1 << (t - 1)
    p_hi, q_hi = p & h, q & h
    p, q = p & (h - 1), q & (h - 1)
    if not p_hi and not q_hi:                      # (a, 0)(c, 0) = (ac, 0)
        return basis_coefficient(p, q, t - 1, convention)
    if convention == "eq11":
        if not p_hi:                               # (a, 0)(0, d) = (0, d a)
            return basis_coefficient(q, p, t - 1, convention)
        if not q_hi:                               # (0, b)(c, 0) = (0, b conj(c))
            s, m = basis_coefficient(p, q, t - 1, convention)
            return (-s if q else s), m
        s, m = basis_coefficient(q, p, t - 1, convention)  # (g conj(d) b, 0)
        return (-s if q else s), m | h
    if not p_hi:                                   # (a, 0)(0, d) = (0, conj(a) d)
        s, m = basis_coefficient(p, q, t - 1, convention)
        return (-s if p else s), m
    if not q_hi:                                   # (0, b)(c, 0) = (0, c b)
        return basis_coefficient(q, p, t - 1, convention)
    s, m = basis_coefficient(q, p, t - 1, convention)      # (g d conj(b), 0)
    return (-s if p else s), m | h


def collapsed_sign(p: int, q: int, t: int, convention: str) -> int:
    """Sign of e_p e_q when every stage parameter is -1."""
    s, m = basis_coefficient(p, q, t, convention)
    return s if bin(m).count("1") % 2 == 0 else -s


def bit_reverse(x: int, t: int) -> int:
    return int(format(x, f"0{t}b")[::-1], 2) if t else 0


# The published 2x2 tile alphabet plus the transposed-B tiles of the
# right-conjugating table, keyed by the labels the package prints.
TILE_PATTERNS: Dict[str, Tuple[int, int, int, int]] = {
    "A": (1, 1, 1, -1), "A0": (1, 1, 1, -1),
    "B": (1, -1, 1, 1), "-B": (-1, 1, -1, -1),
    "C": (1, -1, -1, -1), "-C": (-1, 1, 1, 1),
    "Bt": (1, 1, -1, 1), "-Bt": (-1, -1, 1, -1),
}


def tile_signs(i: int, j: int, t: int, convention: str) -> Tuple[int, int, int, int]:
    """Signs of tile (i, j) in doubling-tree order, row-major."""
    n2 = 1 << (t - 1)
    p, q = bit_reverse(2 * i, t), bit_reverse(2 * j, t)
    return tuple(collapsed_sign(r, c, t, convention)
                 for r in (p, p + n2) for c in (q, q + n2))


# ---- Fibonacci norms and the golden-field sign ------------------------------


def fibonacci(count: int) -> List[int]:
    """f_0 .. f_{count-1} by the two-term iteration."""
    out, a, b = [], 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def fib_norm(n: int, a1, a2, f: Sequence[int]):
    """Norm of (f_n, f_n+1, f_n+2, f_n+3) under x1^2 + a1 x2^2 + a2 x3^2 + a1 a2 x4^2."""
    return (f[n] ** 2 + a1 * f[n + 1] ** 2 + a2 * f[n + 2] ** 2
            + a1 * a2 * f[n + 3] ** 2)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sign_sqrt5(u, v) -> int:
    """Exact sign of u + v*sqrt(5) for rational u, v."""
    su, sv = _sign(u), _sign(v)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    return su if u * u > 5 * v * v else sv


def energy_sign(a1, a2) -> int:
    """Sign of (1/5)[1 + a1 + 2a2 + 5a1a2 + phi(a1 + 3a2 + 8a1a2)], phi = (1 + sqrt5)/2.

    Ten times the energy is (2U + V) + V sqrt(5), decided in Q(sqrt 5).
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    u = 1 + a1 + 2 * a2 + 5 * a1 * a2
    v = a1 + 3 * a2 + 8 * a1 * a2
    return sign_sqrt5(2 * u + v, v)


def stable_from(a1, a2, n_max: int, f: Sequence[int]):
    """Least n0 with every norm in [n0, n_max] of the energy's sign, else None."""
    target = energy_sign(a1, a2)
    n0 = None
    for n in range(n_max, -1, -1):
        if _sign(fib_norm(n, a1, a2, f)) != target:
            break
        n0 = n
    return n0


# ---- primes and the quadratic subring ---------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def form(a: int, b: int, q: int, m: int) -> int:
    """Norm of a + b w when w w = q w - m."""
    return a * a + q * a * b + m * b * b


def ring_mul(x: Tuple[int, int], y: Tuple[int, int], q: int, m: int) -> Tuple[int, int]:
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + q * b1 * b2


def ring_conj(x: Tuple[int, int], q: int) -> Tuple[int, int]:
    return x[0] + q * x[1], -x[1]


def label_root(pi: Tuple[int, int], p: int) -> int:
    """s with a_pi + b_pi s = 0 (mod p); the label of a + b w is a + b s."""
    return (-pi[0] * pow(pi[1], -1, p)) % p


def representations(p: int, q: int, m: int) -> List[Tuple[int, int]]:
    """All (a, b) with form(a, b) = p and b not divisible by p (definite form).

    form = ((2a + qb)^2 + (4m - q^2) b^2) / 4, so b is bounded and a
    follows from an integer square root.
    """
    disc = 4 * m - q * q
    out = []
    b_max = isqrt(4 * p // disc)
    for b in range(-b_max, b_max + 1):
        if b % p == 0:
            continue
        rest = 4 * p - disc * b * b
        r = isqrt(rest)
        if r * r != rest:
            continue
        for twice_a in {r - q * b, -r - q * b}:
            if twice_a % 2 == 0:
                out.append((twice_a // 2, b))
    return sorted(out)
