"""Runnable invariant suites over the algebra, twist, sequence and residue layers.

Each suite draws seeded random data, counts checks per invariant family, and
collects failure descriptions instead of raising, so a driver can report
totals and exit nonzero only at the end.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .algebra import AlgebraSignature, Convention, Element, make_algebra

if TYPE_CHECKING:
    from .fibonacci import QuaternionParams

# Each suite imports the layer modules it checks, so a run of one suite loads
# only its own layer: ``verify --suite fib`` neither compiles ``twist`` and
# ``residue`` nor loads numpy or ``logging``.

GAMMA_POOL = (-1, 1, -2, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))
NONZERO_DIGITS = tuple(x for x in range(-9, 10) if x)
# Oracle-computed corner signs of the tree-order tiles of the ten admissible
# power-row triples at depth 5, in sweep order.
_DEPTH_FIVE_CORNER_SIGNS = (1, 1, 1, -1, -1, 1, -1, -1, 1, 1)
# Two-term zero divisors, as (assessors, diagonals): none in the octonions;
# in the sedenions 42 index pairs carrying 84 diagonals (de Marrais, "The 42
# assessors and the box-kites they fly", arXiv:math/0011260).
_ZERO_DIVISORS = {3: (0, 0), 4: (42, 84)}
# A signed map from Baez's octonions (The Octonions, Bull. AMS 39 (2002),
# sec. 2.1) onto the eq11 octonions at all parameters -1: Baez's e_7, e_1,
# ..., e_6 go to e1, e2, e4, e3, e6, -e7, e5.
_BAEZ_IMAGE = {7: (1, 1), 1: (1, 2), 2: (1, 4), 3: (1, 3), 4: (1, 6), 5: (-1, 7), 6: (1, 5)}


@dataclass
class SuiteResult:
    """Checks counted per invariant family, plus the first failures."""

    name: str
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    max_recorded = 20

    @property
    def checks(self) -> int:
        return sum(self.counts.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, family: str, detail: str, *args: object) -> None:
        """Count one check of ``family``; record it if it fails.

        ``detail`` is a ``str.format`` template for ``args``, formatted only
        when a failure is recorded (the first ``max_recorded``), so a passing
        check never renders its inputs. With no ``args`` it is recorded as given.
        """
        self.counts[family] = self.counts.get(family, 0) + 1
        if not condition and len(self.failures) < self.max_recorded:
            self.failures.append(f"{family}: {detail.format(*args) if args else detail}")

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        lines = [f"{self.name}: {self.checks} checks, "
                 f"{len(self.failures)} failures [{status}]"]
        lines.extend(f"  {msg}" for msg in self.failures)
        return "\n".join(lines)


def random_element(sig: AlgebraSignature, rng: random.Random) -> Element:
    """Random element with coefficients in [-9, 9], about one in twenty a fraction."""
    return sig.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        if rng.random() < 0.05 else rng.randint(-9, 9)
                        for _ in range(sig.dimension)])


def random_signature(t: int, rng: random.Random,
                     convention: Convention) -> AlgebraSignature:
    return make_algebra(t, [rng.choice(GAMMA_POOL) for _ in range(t)], convention)


def run_core_suite(samples: int = 200, depths: Sequence[int] = (1, 2, 3, 4),
                   seed: int = 20250101) -> SuiteResult:
    """Involution, quadratic, flexibility, power and norm laws on random data."""
    rng = random.Random(seed)
    out = SuiteResult("core")
    for t in depths:
        for conv in Convention:
            _basis_law_checks(random_signature(t, rng, conv), out)
            for _ in range(samples):
                sig = random_signature(t, rng, conv)
                x = random_element(sig, rng)
                y = random_element(sig, rng)
                _pair_law_checks(x, y, out)
    return out


def _pair_law_checks(x: Element, y: Element, out: SuiteResult) -> None:
    """Involution, trace, norm, quadratic, flexibility and power laws on x, y.

    Powers are built left-nested (x^(k+1) = x^k * x), so only the pairs
    x^i * x^j with j >= 2 can disagree with them.  The norm multiplies up to
    the octonions, at every choice of nonzero parameters.
    """
    t, conv = x.signature.t, x.signature.convention.value
    xc = x.conjugate()
    xy = x * y
    if t <= 3:
        out.expect(xy.norm() == x.norm() * y.norm(), "norm multiplicativity",
                   "t={} {}", t, conv)
    out.expect(xc.conjugate() == x, "involution", "t={} {}", t, conv)
    out.expect(xy.conjugate() == y.conjugate() * xc, "antiautomorphism",
               "t={} {}", t, conv)
    s = x + xc
    out.expect(not any(s.coeffs[1:]) and s.coeffs[0] == x.trace(),
               "trace scalar", "t={} {}", t, conv)
    n = x * xc
    out.expect(not any(n.coeffs[1:]) and n.coeffs[0] == x.norm(),
               "norm scalar", "t={} {}", t, conv)
    out.expect(x * (y * x) == xy * x, "flexibility", "t={} {}", t, conv)
    powers = [x.signature.one(), x]
    for _ in range(5):
        powers.append(powers[-1] * x)
    quad = powers[2] - x.trace() * x + x.signature.scalar(x.norm())
    out.expect(quad.is_zero(), "quadratic", "t={} {}", t, conv)
    for i in range(1, 5):
        for j in range(2, 7 - i):
            out.expect(powers[i] * powers[j] == powers[i + j],
                       "power associativity", "t={} {} ({},{})", t, conv, i, j)


def _basis_law_checks(sig: AlgebraSignature, out: SuiteResult) -> None:
    """Scalar squares, double products and anticommutation of basis units."""
    n = sig.dimension
    tag = f"t={sig.t} {sig.convention.value}"
    basis = [sig.basis(p) for p in range(n)]
    for p in range(n):
        sq = basis[p] * basis[p]
        out.expect(not any(sq.coeffs[1:]), "basis square", "{} e{}", tag, p)
        ep_sq = sq.scalar_part()
        x = basis[(p + 1) % n]
        out.expect(basis[p] * (basis[p] * x) == ep_sq * x,
                   "basis double product", "{} left by e{}", tag, p)
        out.expect((x * basis[p]) * basis[p] == ep_sq * x,
                   "basis double product", "{} right by e{}", tag, p)
    for p in range(1, n):
        for q in range(1, n):
            if p != q:
                out.expect(basis[p] * basis[q] == -(basis[q] * basis[p]),
                           "anticommutation", "{} e{},e{}", tag, p, q)


def run_twist_suite(exhaustive_depth: int = 5, random_pairs: int = 2000,
                    table_depth: int = 8, seed: int = 20250102) -> SuiteResult:
    """Structure constants against the stage-by-stage doubling descent, plus
    table, block, power-row, zero-divisor and octonion-table laws.

    Each basis product is compared once with ``_descent_coefficient``, as
    exact (sign, gamma_mask, index) data that no parameter choice can hide;
    the tests check the descent against the vector recursion ``_mul`` in
    ``tests/oracles.py``.  The zero-divisor counts and Baez's octonion table
    are published facts, so they do not rest on the doubling formula that
    every other oracle here re-derives.
    """
    from . import twist as twistmod
    rng = random.Random(seed)
    out = SuiteResult("twist")
    for t in range(1, exhaustive_depth + 1):
        for conv in Convention:
            sig = make_algebra(t, (-1,) * t, conv)
            tag = f"t={t} {conv.value}"
            for p in range(sig.dimension):
                for q in range(sig.dimension):
                    out.expect(_matches_descent(twistmod, p, q, sig), "coefficient",
                               "{} ({},{})", tag, p, q)
    for t in (6, 7, 8):
        sig = make_algebra(t, (-1,) * t, Convention.CONJUGATE_RIGHT)
        for _ in range(random_pairs):
            p = rng.randrange(sig.dimension)
            q = rng.randrange(sig.dimension)
            out.expect(_matches_descent(twistmod, p, q, sig), "random coefficient",
                       "t={} ({},{})", t, p, q)
    for t in range(1, table_depth + 1):
        for conv in Convention:
            tag = f"t={t} {conv.value}"
            sig = make_algebra(t, (-1,) * t, conv)
            table = twistmod.build_table(t, conv)
            signs = table.sign_table()
            n = table.dimension
            out.expect(bool((signs[0] == 1).all() and (signs[:, 0] == 1).all()),
                       "sign table", "{} unit row and column", tag)
            out.expect(bool((signs.diagonal()[1:] == -1).all()),
                       "sign table", "{} diagonal", tag)
            pure = signs[1:, 1:]
            anti = pure * pure.T == -1
            # Every pair off the diagonal anticommutes; the diagonal is not counted.
            ok = bool(anti.sum() - anti.trace() == anti.size - len(anti))
            out.expect(ok, "sign table", "{} anticommutation", tag)
            sample = [(rng.randrange(n), rng.randrange(n)) for _ in range(64)]
            out.expect(all(signs[p, q] == twistmod.twist_sign(p, q, t, conv)
                           and table.entry(p, q) == twistmod.basis_product(p, q, sig)[0]
                           for p, q in sample),
                       "sign table", "{} matches pointwise products", tag)
            try:
                kinds = twistmod.partition_blocks(table)
                out.expect(kinds[0, 0] == twistmod.BlockKind.A_CORNER,
                           "blocks", "{} corner kind", tag)
            except twistmod.BlockClassificationError as exc:
                out.expect(False, "blocks", "{} {}", tag, exc)
    reports = twistmod.sweep_power_row_claims(5)
    for report in reports:
        triple = report.r, report.k, report.i
        out.expect(report.supported_index_reading in ("computed", "both"),
                   "power row", "({},{},{}) index reading", *triple)
        # The stated reading coincides with the computed one only where r = 1.
        out.expect((report.supported_index_reading == "both") == (report.r == 1),
                   "power row", "({},{},{}) stated reading", *triple)
        out.expect(report.tree_forms_c_tile, "power row", "({},{},{}) C tile", *triple)
    corner_signs = tuple(r.tree_corner_sign for r in reports)
    out.expect(corner_signs == _DEPTH_FIVE_CORNER_SIGNS, "power row",
               "depth-5 corner signs {}", corner_signs)
    for t, (assessors, diagonals) in _ZERO_DIVISORS.items():
        for conv in Convention:
            _zero_divisor_checks(t, conv, assessors, diagonals, out)
    for conv in Convention:
        _octonion_table_checks(conv, out)
    return out


def _descent_coefficient(p: int, q: int) -> Tuple[int, int]:
    """(sign, gamma_mask) of the eq11 basis product e_p * e_q, one doubling
    stage at a time from the top bit of p | q down.

    This is the doubling formula applied to two basis elements, written
    independently of the bit algebra in ``algebra._coefficient``.
    """
    sign = 1
    mask = 0
    t = (p | q).bit_length()
    while t > 0:
        t -= 1
        half = 1 << t
        ph, qh = p >> t & 1, q >> t & 1
        p &= half - 1
        q &= half - 1
        if ph == 0 and qh == 0:
            continue
        if ph == 0:  # low * high: recurse on (q, p)
            p, q = q, p
        elif qh == 0:  # high * low: right factor is conjugated
            if q != 0:
                sign = -sign
        else:  # high * high: conjugated right factor, swapped, parameter
            if q != 0:
                sign = -sign
            mask |= half
            p, q = q, p
    return sign, mask


def _matches_descent(twistmod, p: int, q: int, sig: AlgebraSignature) -> bool:
    """Whether ``twistmod.basis_product`` gives e_p * e_q the descent's exact
    (sign, gamma_mask, index); eq31 is eq11 with the operands swapped."""
    coeff, index = twistmod.basis_product(p, q, sig)
    a, b = (q, p) if sig.convention is Convention.CONJUGATE_LEFT else (p, q)
    return (coeff.sign, coeff.gamma_mask, index) == (*_descent_coefficient(a, b), p ^ q)


def _zero_divisor_census(t: int, convention: Convention) -> Dict[tuple, tuple]:
    """The two-term elements e_a + s*e_b (0 < a < b, s = +-1) that have a two-term
    annihilator e_c + v*e_d at all parameters -1, each with its first witness (c, v).

    The four terms of the product lie at a^c, a^d, b^c and b^d (a != b, c != d),
    so they cancel only as the pairs a^c = b^d and a^d = b^c, that is with
    d = a^b^c, sign(a, c) + s*v*sign(b, d) = 0, which fixes v, and
    v*sign(a, d) + s*sign(b, c) = 0.  So the census reads only twist_sign.
    """
    from .twist import twist_sign
    n = 1 << t
    sign = [[twist_sign(p, q, t, convention) for q in range(n)] for p in range(n)]
    census = {}
    for a in range(1, n):
        for b in range(a + 1, n):
            for s in (1, -1):
                for c in range(1, n):
                    d = a ^ b ^ c
                    v = -s * sign[a][c] * sign[b][d]
                    if c not in (a, b) and v * sign[a][d] + s * sign[b][c] == 0:
                        census[a, b, s] = (c, v)
                        break
    return census


def _zero_divisor_checks(t: int, convention: Convention, assessors: int,
                         diagonals: int, out: SuiteResult) -> None:
    """The census's assessor and diagonal counts, then each diagonal's witness
    by one exact product on the kernel, a route independent of twist_sign."""
    census = _zero_divisor_census(t, convention)
    tag = f"t={t} {convention.value}"
    out.expect(len({(a, b) for a, b, _ in census}) == assessors, "zero divisors",
               "{} assessors", tag)
    out.expect(len(census) == diagonals, "zero divisors", "{} diagonals", tag)
    e = make_algebra(t, (-1,) * t, convention).basis
    for (a, b, s), (c, v) in census.items():
        out.expect(((e(a) + s * e(b)) * (e(c) + v * e(a ^ b ^ c))).is_zero(),
                   "zero divisors", "{} (e{} {:+d} e{}) (e{} {:+d} e{})",
                   tag, a, s, b, c, v, a ^ b ^ c)


def _octonion_table_checks(convention: Convention, out: SuiteResult) -> None:
    """All 49 products of imaginary units carried by ``_BAEZ_IMAGE``.

    Baez's units square to -1, and each line (x, y, z) = (a, a+1, a+3),
    indices mod 7, is cyclic: e_x e_y = e_z = -e_y e_x, and so for its two
    rotations.  The seven lines hold every pair of distinct units once.  eq31
    is the opposite algebra, so it carries e_y e_x = e_z.
    """
    sig = make_algebra(3, (-1,) * 3, convention)
    unit = {k: s * sig.basis(q) for k, (s, q) in _BAEZ_IMAGE.items()}
    tag = convention.value
    for x in range(1, 8):
        out.expect(unit[x] * unit[x] == sig.scalar(-1), "octonion table",
                   "{} e{} e{}", tag, x, x)
    left = convention is Convention.CONJUGATE_LEFT
    for a in range(7):
        line = [(a + d) % 7 + 1 for d in (0, 1, 3)]
        for c in range(3):
            x, y, z = line[c:] + line[:c]
            if left:
                x, y = y, x
            out.expect(unit[x] * unit[y] == unit[z], "octonion table",
                       "{} e{} e{}", tag, x, y)
            out.expect(unit[y] * unit[x] == -unit[z], "octonion table",
                       "{} e{} e{}", tag, y, x)


def run_fib_suite(norm_range: int = 40, random_params: int = 200,
                  threshold_params: int = 20, seed: int = 20250103) -> SuiteResult:
    """Norm identities, closed form, golden-field laws, sign criterion."""
    from . import fibonacci as fibmod
    rng = random.Random(seed)
    out = SuiteResult("fib")
    unit = fibmod.QuaternionParams(1, 1)
    for n in range(norm_range + 1):
        out.expect(fibmod.fib_norm_direct(n, unit) == 3 * fibmod.fib(2 * n + 3),
                   "unit norm", "n={}", n)
    for _ in range(random_params):
        n = rng.randrange(0, 31)
        params = _random_params(rng)
        direct = fibmod.fib_norm_direct(n, params)
        out.expect(direct == fibmod.fib_norm_formula(n, params),
                   "closed form", "n={} params={}", n, params)
        a1, a2 = params.alpha1, params.alpha2
        f = fibmod.fib
        quad = (f(n) ** 2 + a1 * f(n + 1) ** 2 + a2 * f(n + 2) ** 2
                + a1 * a2 * f(n + 3) ** 2)
        out.expect(direct == quad, "diagonal form", "n={} params={}", n, params)
    for n in range(61):
        out.expect(fibmod.binet_residual(n).holds, "root power", "n={}", n)
    for _ in range(64):
        x = fibmod.GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        y = fibmod.GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        prod = x * y
        out.expect(prod.u == x.u * y.u + x.v * y.v
                   and prod.v == x.u * y.v + x.v * y.u + x.v * y.v,
                   "golden product", "expansion")
    for _ in range(threshold_params):
        params = _random_params(rng)
        e = fibmod.energy(params)
        out.expect(not e.is_zero(), "energy", "zero for {}", params)
        if e.is_zero():
            continue
        n0 = fibmod.invertibility_threshold(params, n_max=200)
        out.expect(n0 is not None, "threshold", "no stabilization by 200 for {}", params)
        if n0 is not None and n0 > 0:
            prev = fibmod.fib_norm_direct(n0 - 1, params)
            sign = 0 if prev == 0 else (1 if prev > 0 else -1)
            out.expect(sign != e.sign(), "threshold", "not minimal for {}", params)
    return out


def _random_params(rng: random.Random) -> QuaternionParams:
    from .fibonacci import QuaternionParams

    def draw():
        return Fraction(rng.choice(NONZERO_DIGITS), rng.randint(1, 9))
    return QuaternionParams(draw(), draw())


def run_residue_suite(pairs: int = 500, seed: int = 20250104) -> SuiteResult:
    """Golden-example field, remainder bounds, labelling homomorphism, roots."""
    from . import residue as resmod
    rng = random.Random(seed)
    out = SuiteResult("residue")
    gen = resmod.make_w(2, (1, 2, 3), (1, 1, 1, 1))
    out.expect(gen.q == 2 and gen.m == 4, "golden field", "generator quadratic data")
    w = gen.w
    out.expect((w * w - 2 * w + 4 * w.signature.one()).is_zero(), "golden field",
               "generator relation w*w - 2w + 4 = 0")
    pi = gen.element(-1, 2)
    out.expect(pi.norm() == 13, "golden field", "prime norm")
    fieldp = resmod.residue_field(pi)
    out.expect(fieldp.s == 7, "golden field", "labelling root")
    expected = ((0, 0), (1, 0), (2, 0), (3, 0), (-3, 1), (-2, 1), (-1, 1),
                (1, -1), (2, -1), (3, -1), (-3, 0), (-2, 0), (-1, 0))
    out.expect(tuple((u.a, u.b) for u in fieldp.reps) == expected,
               "golden field", "representative set")
    euclidean = [resmod.make_w(2, (1, 2, 3), (0, 1, 0, 0)),
                 resmod.make_w(2, (1, 2, 3), (1, 1, 0, 0)),
                 resmod.make_w(3, (1, 2, 4), (1, 1, 1, 0))]
    per_gen = max(1, pairs // (len(euclidean) + 1))
    for g in euclidean:
        for _ in range(per_gen):
            x = g.element(rng.randint(-60, 60), rng.randint(-60, 60))
            y = g.element(0, 0)
            while y.is_zero():
                y = g.element(rng.randint(-25, 25), rng.randint(-25, 25))
            out.expect(resmod.u_mod(x, y).norm() < y.norm(), "remainder bound",
                       "{} mod {} over (q={}, m={})", x, y, g.q, g.m)
    for _ in range(per_gen):
        x = gen.element(rng.randint(-80, 80), rng.randint(-80, 80))
        out.expect(resmod.u_mod(x, pi).norm() < 13, "prime remainder bound",
                   "{} mod the golden prime", x)
    for i in range(13):
        for j in range(13):
            ui, uj = fieldp.reps[i], fieldp.reps[j]
            out.expect(fieldp.label(resmod.u_mod(ui + uj, pi)) == (i + j) % 13,
                       "labelling", "additive at ({},{})", i, j)
            out.expect(fieldp.label(resmod.u_mod(ui * uj, pi)) == (i * j) % 13,
                       "labelling", "multiplicative at ({},{})", i, j)
    for _ in range(100):
        x = gen.element(rng.randint(-30, 30), rng.randint(-30, 30))
        z = gen.element(rng.randint(-10, 10), rng.randint(-10, 10))
        out.expect(fieldp.label(x) == fieldp.label(x + z * pi),
                   "class labels", "x and x + z*pi")
    for t in (2, 3):
        for m in range(1, 51):
            z = resmod.four_square_root(m, (1, 2, 3), t)
            residue = z * z - (2 * z[0]) * z + m * z.signature.one()
            out.expect(residue.is_zero(), "quadratic root", "m={} t={}", m, t)
    ks = [rng.randrange(13) for _ in range(32)]
    out.expect(resmod.decode_symbols(resmod.encode_symbols(ks, fieldp), fieldp) == ks,
               "codec", "round trip")
    return out


SUITES = {
    "core": run_core_suite,
    "twist": run_twist_suite,
    "fib": run_fib_suite,
    "residue": run_residue_suite,
}
