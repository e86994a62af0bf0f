"""Output checks: each compares program output with reference.py or with a
property the mathematics requires, and raises CheckFailed on the first
disagreement.  None of them compares against stored program output.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """A program output disagreed with its reference or a required property."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _exact(values, what: str) -> None:
    for c in values:
        expect(type(c) in (int, Fraction), f"{what}: scalar {c!r} is not int or Fraction")


# ---- tower: elements --------------------------------------------------------


def check_elements(pairs: Sequence[tuple], outputs: Sequence, sample: Sequence[int]) -> None:
    """pairs[i] = (x, y); outputs hold x*y, norm(x), inverse(x) per pair.

    Every pair: exact scalars, and the norm equals the diagonal form.
    Pairs below depth 7 and sampled pairs: x x^-1 = 1 under the reference
    product.  Sampled pairs also: the product equals the reference product,
    x conj(x) = N(x) 1, conj(xy) = conj(y) conj(x) and x(yx) = (xy)x.
    """
    for i, (x, y) in enumerate(pairs):
        prod, nrm, inv = outputs[3 * i: 3 * i + 3]
        sig = x.signature
        gammas, conv = sig.gammas, sig.convention.value
        tag = f"t={sig.t} {conv} pair {i}"
        _exact(prod.coeffs, tag + " product")
        _exact(inv.coeffs, tag + " inverse")
        _exact((nrm,), tag + " norm")
        n_ref = ref.norm(x.coeffs, gammas)
        expect(nrm == n_ref, f"{tag}: norm {nrm} != diagonal form {n_ref}")
        one = (1,) + (0,) * (len(x.coeffs) - 1)
        if sig.t <= 6 or i in sample:
            expect(ref.mul(x.coeffs, inv.coeffs, gammas, conv) == one, f"{tag}: x x^-1 != 1")
        if i not in sample:
            continue
        expect(tuple(prod.coeffs) == ref.mul(x.coeffs, y.coeffs, gammas, conv),
               f"{tag}: product differs from the reference doubling product")
        xc = x.conjugate()
        expect(tuple((x * xc).coeffs) == tuple(n_ref * c for c in one),
               f"{tag}: x conj(x) != N(x) 1")
        expect(prod.conjugate() == y.conjugate() * xc, f"{tag}: conj(xy) != conj(y) conj(x)")
        expect(x * (y * x) == prod * x, f"{tag}: flexibility fails")


# ---- tower: structure constants ---------------------------------------------


def _sample_indices(n: int, rng: random.Random, count: int) -> List[Tuple[int, int]]:
    return [(0, 0), (n - 1, n - 1)] + [(rng.randrange(n), rng.randrange(n))
                                       for _ in range(count)]


def check_table(table, t: int, convention: str, rng: random.Random) -> None:
    """Symbolic entries of build_table against the reference basis products."""
    n = 1 << t
    expect(table.t == t and table.convention.value == convention, "table header")
    expect(table.base_signs.shape == (n, n) and table.gamma_masks.shape == (n, n),
           "table shape")
    for p, q in _sample_indices(n, rng, 64):
        got = (int(table.base_signs[p, q]), int(table.gamma_masks[p, q]))
        want = ref.basis_coefficient(p, q, t, convention)
        expect(got == want, f"t={t} {convention} entry ({p},{q}): {got} != {want}")


def check_sign_table(signs: np.ndarray, t: int, convention: str, rng: random.Random) -> None:
    """Unit row and column, -1 diagonal, anticommutation, sampled entries."""
    n = 1 << t
    expect(signs.shape == (n, n), "sign table shape")
    expect((signs[0, :] == 1).all() and (signs[:, 0] == 1).all(),
           f"t={t} {convention}: unit row or column")
    expect((np.diagonal(signs)[1:] == -1).all(), f"t={t} {convention}: diagonal")
    inner = signs[1:, 1:].astype(np.int16)
    anti = inner + inner.T
    np.fill_diagonal(anti, 0)
    expect(not anti.any(), f"t={t} {convention}: imaginary units do not anticommute")
    for p, q in _sample_indices(n, rng, 64):
        want = ref.collapsed_sign(p, q, t, convention)
        expect(int(signs[p, q]) == want, f"t={t} {convention} sign ({p},{q})")


def check_blocks(kinds: np.ndarray, t: int, convention: str,
                 label_of: Callable[[int], str], rng: random.Random) -> None:
    """Tile kinds: corner A0, published alphabet for eq31, sampled tiles."""
    nb = 1 << (t - 1)
    expect(kinds.shape == (nb, nb), "tile matrix shape")
    expect(label_of(int(kinds[0, 0])) == "A0", "unit-corner tile is not A0")
    labels = {label_of(int(k)) for k in np.unique(kinds)}
    expect(labels <= set(ref.TILE_PATTERNS), f"unknown tile labels {labels}")
    if convention == "eq31":
        expect(not labels & {"Bt", "-Bt"}, "transposed-B tiles in the eq31 table")
    for i, j in _sample_indices(nb, rng, 32):
        want = ref.tile_signs(i, j, t, convention)
        got = ref.TILE_PATTERNS[label_of(int(kinds[i, j]))]
        expect(got == want, f"tile ({i},{j}) labelled {label_of(int(kinds[i, j]))}")


def check_pointwise(pairs: Sequence[Tuple[int, int]], t: int, convention: str,
                    signs: Sequence[int], products: Sequence) -> None:
    """twist_sign and basis_product at depth t against the reference recursion."""
    for (p, q), sign, (coeff, index) in zip(pairs, signs, products):
        s, m = ref.basis_coefficient(p, q, t, convention)
        expect(sign == ref.collapsed_sign(p, q, t, convention),
               f"twist_sign({p},{q},{t}) = {sign}")
        expect(index == p ^ q, f"basis_product({p},{q}) index {index}")
        expect((coeff.sign, coeff.gamma_mask) == (s, m),
               f"basis_product({p},{q}) coefficient ({coeff.sign},{coeff.gamma_mask})")


# ---- sweep ------------------------------------------------------------------


def check_suite(result) -> None:
    expect(result.checks > 0, f"suite {result.name} made no checks")
    expect(result.passed, f"suite {result.name} failed: {result.failures[:3]}")


# ---- domain -----------------------------------------------------------------


def check_field(field, pi: Tuple[int, int], q: int, m: int, rng: random.Random) -> None:
    """Residue field: prime size, small distinct representatives, labels.

    The representatives are checked with the reference labelling; a seeded
    sample of sums and products goes through the field's own label map.
    """
    p = ref.form(pi[0], pi[1], q, m)
    expect(field.p == p, f"field size {field.p} != N(pi) = {p}")
    expect(ref.is_prime(p), f"field size {p} is not prime by trial division")
    reps = [(u.a, u.b) for u in field.reps]
    expect(len(reps) == p and len(set(reps)) == p, "representatives are not p distinct classes")
    s = ref.label_root(pi, p)
    for k, (a, b) in enumerate(reps):
        expect(ref.form(a, b, q, m) < p, f"representative {k} has norm >= {p}")
        expect((a + b * s) % p == k, f"representative {(a, b)} is not labelled {k}")
    for _ in range(64):
        i, j = rng.randrange(p), rng.randrange(p)
        u, v = field.reps[i], field.reps[j]
        expect(field.label(u + v) == (i + j) % p, f"label of sum ({i},{j})")
        expect(field.label(u * v) == (i * j) % p, f"label of product ({i},{j})")


def check_labels(elements: Sequence[Tuple[int, int]], labels: Sequence[int],
                 pi: Tuple[int, int], q: int, m: int) -> None:
    """Decoded labels equal a + b s mod p, which is constant on classes."""
    p = ref.form(pi[0], pi[1], q, m)
    s = ref.label_root(pi, p)
    expect(len(labels) == len(elements), "decoded stream length")
    for (a, b), k in zip(elements, labels):
        expect(k == (a + b * s) % p, f"decoded label of {(a, b)} is {k}")


def check_u_mod(x: Tuple[int, int], r: Tuple[int, int], pi: Tuple[int, int],
                q: int, m: int) -> None:
    """Remainder norm below N(pi), and (x - r) / pi integral."""
    n = ref.form(pi[0], pi[1], q, m)
    expect(ref.form(r[0], r[1], q, m) < n, f"u_mod{x}: remainder {r} has norm >= {n}")
    num = ref.ring_mul((x[0] - r[0], x[1] - r[1]), ref.ring_conj(pi, q), q, m)
    expect(num[0] % n == 0 and num[1] % n == 0, f"u_mod{x}: quotient is not integral")


def check_round_trip(symbols: Sequence[int], encoded: Sequence[Tuple[int, int]],
                     decoded: Sequence[int], pi: Tuple[int, int], q: int, m: int) -> None:
    p = ref.form(pi[0], pi[1], q, m)
    check_labels(encoded, symbols, pi, q, m)
    for u in encoded:
        expect(ref.form(u[0], u[1], q, m) < p, f"constellation point {u} has norm >= {p}")
    expect(list(decoded) == list(symbols), "round trip does not return its input")


def check_primality(norms: Sequence[int], verdicts: Sequence[bool]) -> None:
    for n, v in zip(norms, verdicts):
        expect(v is ref.is_prime(n), f"is_prime_u on norm {n} said {v}")


def check_fib_norms(cases: Sequence[tuple], direct: Sequence, formula: Sequence,
                    fibs: Sequence[int]) -> None:
    for (n, a1, a2), d, f in zip(cases, direct, formula):
        want = ref.fib_norm(n, a1, a2, fibs)
        expect(d == want, f"fib_norm_direct({n}, {a1}, {a2}) != diagonal form")
        expect(f == want, f"fib_norm_formula({n}, {a1}, {a2}) != diagonal form")


def check_thresholds(cases: Sequence[tuple], got: Sequence, fibs: Sequence[int]) -> None:
    for (a1, a2, n_max), n0 in zip(cases, got):
        want = ref.stable_from(a1, a2, n_max, fibs)
        expect(n0 == want, f"threshold({a1}, {a2}) = {n0}, exact energy sign gives {want}")


# ---- cli --------------------------------------------------------------------


def check_clean_exit(rc: int, out: str, err: str) -> None:
    expect(rc == 0, f"exit code {rc}: {err.strip()[-200:]}")
    expect("Traceback" not in err, "traceback on stderr")


def check_usage_error(rc: int, err: str) -> None:
    """A rejected input: exit 1 or 2, an error: line, and no traceback."""
    expect(rc in (1, 2), f"exit code {rc}")
    expect(any(line.startswith("error:") for line in err.splitlines()), "no error: line")
    expect("Traceback" not in err, "traceback on stderr")


def _table_entries(entries: Sequence[Tuple[int, int, int, int, str]], t: int,
                   convention: str) -> None:
    n = 1 << t
    expect(len(entries) == n * n, f"{len(entries)} rows, expected {n * n}")
    expect({(p, q) for p, q, *_ in entries} == {(p, q) for p in range(n) for q in range(n)},
           "table rows do not cover every pair")
    coeff = {}
    for p, q, index, sign, mask in entries:
        expect(index == p ^ q, f"index at ({p},{q}) is {index}, not p xor q")
        expect(len(mask) == t, f"gamma_mask {mask!r} has the wrong width")
        coeff[p, q] = (sign, int(mask, 2) if mask else 0)
    for (p, q), (sign, mask) in coeff.items():
        expect((sign, mask) == ref.basis_coefficient(p, q, t, convention),
               f"entry ({p},{q}) differs from the reference basis product")
        if p == 0 or q == 0:
            expect((sign, mask) == (1, 0), f"unit row entry ({p},{q})")
        elif p == q:
            parity = -1 if bin(p).count("1") % 2 else 1
            expect((sign, mask) == (-parity, p), f"diagonal entry ({p},{p})")
        else:
            expect(coeff[q, p] == (-sign, mask), f"({p},{q}) and ({q},{p}) do not anticommute")


def check_mul_table_csv(out: str, t: int, convention: str) -> None:
    lines = out.splitlines()
    expect(lines and lines[0] == "p,q,index,sign,gamma_mask", "csv header")
    rows = []
    for line in lines[1:]:
        p, q, index, sign, mask = line.split(",")
        rows.append((int(p), int(q), int(index), int(sign), mask))
    _table_entries(rows, t, convention)


def check_mul_table_json(out: str, t: int, convention: str, gammas: Sequence[Fraction]) -> None:
    data = json.loads(out)
    expect(data["t"] == t and data["convention"] == convention, "json header")
    expect(data["gammas"] == [str(Fraction(g)) for g in gammas], "json gammas")
    _table_entries([(e["p"], e["q"], e["index"], e["sign"], e["gamma_mask"])
                    for e in data["entries"]], t, convention)


def check_twist_line(out: str, p: int, q: int, t: int, convention: str) -> None:
    want = f"sign={ref.collapsed_sign(p, q, t, convention):+d} index={p ^ q}"
    expect(out.strip() == want, f"twist printed {out.strip()!r}, expected {want!r}")


def check_blocks_text(out: str, t: int, convention: str, rng: random.Random) -> None:
    nb = 1 << (t - 1)
    lines = out.splitlines()
    expect(len(lines) == nb + 1, f"{len(lines)} lines, expected {nb + 1}")
    expect(lines[-1] == f"all {nb * nb} blocks classified: PASS", "summary line")
    grid = [line.split() for line in lines[:-1]]
    expect(all(len(row) == nb for row in grid), "tile row width")
    code = {label: i for i, label in enumerate(sorted(ref.TILE_PATTERNS))}
    kinds = np.array([[code.get(x, -1) for x in row] for row in grid])
    expect((kinds >= 0).all(), "unknown tile label")
    label_of = sorted(ref.TILE_PATTERNS).__getitem__
    check_blocks(kinds, t, convention, label_of, rng)


def check_verify_text(out: str, names: Sequence[str]) -> None:
    lines = out.splitlines()
    expect(len(lines) == len(names), f"verify printed {len(lines)} lines")
    for line, name in zip(lines, names):
        head, _, rest = line.partition(": ")
        checks = rest.split(" checks,")[0]
        expect(head == name and checks.isdigit() and int(checks) > 0,
               f"verify line {line!r}")
        expect(rest.endswith("0 failures [ok]"), f"verify line {line!r}")


def _keyed(out: str) -> Dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines())


def check_fib_norm_text(out: str, n: int, a1, a2, fibs: Sequence[int]) -> None:
    got = _keyed(out)
    want = Fraction(ref.fib_norm(n, a1, a2, fibs))
    expect(Fraction(got["direct"]) == want, "fib-norm direct")
    expect(Fraction(got["formula"]) == want, "fib-norm formula")
    expect(got["equal"] == "true", "fib-norm equal flag")


def check_threshold_text(out: str, a1, a2, n_max: int, fibs: Sequence[int]) -> None:
    got = _keyed(out)
    expect(int(got["energy_sign"]) == ref.energy_sign(a1, a2), "threshold energy sign")
    expect(int(got["n0"]) == ref.stable_from(a1, a2, n_max, fibs), "threshold n0")


def check_field_rows(rows: Sequence[Tuple[int, int, int, int]], pi: Tuple[int, int],
                     q: int, m: int) -> None:
    """rows = (k, a, b, norm) as printed."""
    p = ref.form(pi[0], pi[1], q, m)
    expect(ref.is_prime(p), f"{p} is not prime")
    expect([r[0] for r in rows] == list(range(p)), "labels are not 0..p-1")
    expect(len({(a, b) for _, a, b, _ in rows}) == p, "representatives repeat")
    s = ref.label_root(pi, p)
    for k, a, b, nrm in rows:
        expect(nrm == ref.form(a, b, q, m) and nrm < p, f"norm of representative {k}")
        expect((a + b * s) % p == k, f"label of representative {k}")


def check_field_csv(out: str, pi: Tuple[int, int], q: int, m: int) -> None:
    lines = out.splitlines()
    expect(lines and lines[0] == "k,a,b,norm,element", "csv header")
    rows = [tuple(int(v) for v in line.split(",")[:4]) for line in lines[1:]]
    check_field_rows(rows, pi, q, m)


def check_label_text(out: str, u: Tuple[int, int], pi: Tuple[int, int], q: int, m: int) -> None:
    check_labels([u], [int(_keyed(out)["label"])], pi, q, m)


def check_encode_text(out: str, symbols: Sequence[int], pi: Tuple[int, int],
                      q: int, m: int) -> None:
    lines = out.splitlines()
    expect(len(lines) == len(symbols) + 1, "encode line count")
    encoded = [tuple(int(v) for v in line.split(",")) for line in lines[:-1]]
    expect(lines[-1].startswith("decoded="), "decoded line")
    decoded = [int(v) for v in lines[-1][len("decoded="):].split(",")]
    check_round_trip(symbols, encoded, decoded, pi, q, m)
