"""Command-line front end: table export, verification, norm and field reports.

Subcommands
    mul-table      emit the full structure-constant table as CSV or JSON
    twist          sign and product index of one basis pair
    blocks         2x2 tile classification of a sign table
    verify         run the invariant suites and report counts
    fib-norm       direct and closed-form norms of one Fibonacci quaternion
    threshold      energy sign and stabilization index for a parameter pair
    residue-field  representatives and label table of a residue field
    label          label of a subring element, or the element behind a label
    encode         map symbols onto constellation points and back

Exit codes: 0 success, 1 contract violation or failed verification,
2 usage errors.  Output is deterministic for fixed flags.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import MAX_FIELD_DEPTH, Convention, _codes, make_algebra

if TYPE_CHECKING:
    from .residue import ResidueField

# Handlers import the twist, fibonacci, residue and suites modules
# themselves, so a process loads only what its subcommand runs: only
# ``blocks`` and the twist suite of ``verify`` load numpy.
_TWIST_NAMES = ("BlockKind", "TwistTable", "build_table", "partition_blocks", "twist_sign")


def __getattr__(name: str):
    """The twist names this module once imported, read from ``twist`` on each use."""
    if name in _TWIST_NAMES:
        from . import twist
        return getattr(twist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """Contract violation reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, exit code 2.

    Subparsers are built from the same class, so every subcommand does too.
    """

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _int_in_range(minimum: int, maximum: Optional[int] = None):
    """argparse type for a bounded integer flag (usage error outside the bounds)."""
    bounds = f">= {minimum}" if maximum is None else f">= {minimum} and <= {maximum}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    return parse


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


# An empty value is the empty list; an empty item in a list is refused.

def _fraction_list(text: str) -> List[Fraction]:
    return [_fraction(part) for part in text.split(",")] if text else []


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def _convention(text: str) -> Convention:
    try:
        return Convention(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"convention must be one of {[c.value for c in Convention]}") from exc


# ---- output -----------------------------------------------------------------
#
# Handlers validate and compute eagerly, then return their text as an
# iterable of chunks; ``run`` writes the chunks as they come.  Tables (one
# row a chunk) and fields are written straight from the kernel's codes and
# the field's reps, in the bytes ``csv`` and ``json.dumps(..., indent=2)``
# would write: the cells are ints and bit strings, so nothing needs quoting
# or escaping.

_CSV_ROW = "{},{},{},{},{}\n"
# A table cell in three parts: the row's head, filled with p; the text
# between q and p ^ q; the tail, filled with the sign and the mask bits.
_CSV_CELL = ("{},", ",", ",{},{}\n")
_TABLE_ENTRY = ('    {{\n      "p": {},\n      "q": ', ',\n      "index": ',
                ',\n      "sign": {},\n      "gamma_mask": "{}"\n    }}')
_FIELD_ENTRY = ('    {{\n      "k": {},\n      "a": {},\n      "b": {},\n'
                '      "norm": {}\n    }}')


def _table_chunks(t: int, convention: Convention, cell: Tuple[str, str, str],
                  sep: str) -> Iterator[str]:
    """One chunk per row p: a ``cell`` for each q, with p, q, p ^ q, sign and mask bits.

    Read from the kernel's codes, 2 * mask + (sign < 0): the code of e_p * e_q
    is ``codes[p ^ q][p]`` under eq11 and ``codes[p ^ q][q]`` under eq31, the
    opposite product.  Each row gathers its codes over k = p ^ q, one per
    code row, then reads them in q order; each code's tail is rendered once.
    """
    head, mid, tail = cell
    n = 1 << t
    codes = _codes(t)
    tails = [tail.format(-1 if c & 1 else 1, format(c >> 1, f"0{t}b")) for c in range(2 * n)]
    left = convention is Convention.CONJUGATE_LEFT
    qs = range(n)
    for p in qs:
        by_k = [r[p ^ k] for k, r in enumerate(codes)] if left else [r[p] for r in codes]
        row = head.format(p)
        yield sep.join([f"{row}{q}{mid}{p ^ q}{tails[by_k[p ^ q]]}" for q in qs])


def _field_text(field: ResidueField, cell: str, sep: str) -> str:
    """``cell`` filled with k, a, b, norm and element for every label.

    One chunk: a CSV row is about 32 bytes and a JSON entry about 85.  At
    p = 1,021,441 a CSV table peaks at 171 MB and a JSON one at 275 MB,
    against the 72 MB that ``label`` needs for the same field.
    """
    return sep.join([cell.format(k, u.a, u.b, u.norm(), u)
                     for k, u in enumerate(field.reps)])


def _json_list(header: dict, key: str, chunks: Iterable[str]) -> Iterator[str]:
    """``json.dumps({**header, key: entries}, indent=2) + "\\n"``, streamed.

    ``chunks`` hold the entries, rendered at list depth and joined by
    ",\\n"; there is at least one.  ``json`` is imported here, in the one
    place that writes it, so CSV and text subcommands do not load it.
    """
    import json

    yield json.dumps(header, indent=2)[:-2] + f',\n  "{key}": [\n'
    sep = ""
    for chunk in chunks:
        yield sep
        yield chunk
        sep = ",\n"
    yield "\n  ]\n}\n"


def _fail_after(chunks: Iterable[str], message: str) -> Iterator[str]:
    """Write ``chunks``, then report ``message`` as a contract violation."""
    yield from chunks
    raise CliError(message)


def _write(chunks: Iterable[str], output: Optional[str]) -> None:
    if not output:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise CliError(f"cannot write {output}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _unbounded_int_output():
    """Lift the interpreter's int-to-str digit limit while a command runs.

    Norms and field data are exact integers of any size; the caller's
    limit is restored on the way out.  Interpreters before 3.10.7 have
    no limit to lift.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# ---- subcommand handlers ----------------------------------------------------

def _cmd_mul_table(args) -> Iterable[str]:
    sig = make_algebra(args.t, args.gammas, args.convention)  # validates count/nonzero
    if args.format == "csv":
        return itertools.chain(["p,q,index,sign,gamma_mask\n"],
                               _table_chunks(sig.t, sig.convention, _CSV_CELL, ""))
    header = {"t": sig.t, "convention": sig.convention.value,
              "gammas": [str(Fraction(g)) for g in sig.gammas]}
    return _json_list(header, "entries",
                      _table_chunks(sig.t, sig.convention, _TABLE_ENTRY, ",\n"))


def _cmd_twist(args) -> Iterable[str]:
    from .twist import twist_sign
    sign = twist_sign(args.p, args.q, args.t, args.convention)
    return [f"sign={sign:+d} index={args.p ^ args.q}\n"]


def _cmd_blocks(args) -> Iterable[str]:
    from .twist import BlockKind, build_table, partition_blocks
    kinds = partition_blocks(build_table(args.t, args.convention))
    labels = [f"{kind.label():>3}" for kind in BlockKind]  # indexed by kind value
    lines = [" ".join([labels[k] for k in row]) + "\n" for row in kinds.tolist()]
    lines.append(f"all {kinds.size} blocks classified: PASS\n")
    return lines


def _cmd_verify(args) -> Iterable[str]:
    from .suites import SUITES
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    lines = []
    for name in names:
        kwargs = {}
        if name == "core" and args.samples is not None:
            kwargs["samples"] = args.samples
        if name == "core" and args.t is not None:
            kwargs["depths"] = tuple(range(1, args.t + 1))
        if args.seed is not None:
            kwargs["seed"] = args.seed
        result = SUITES[name](**kwargs)
        ok = ok and result.passed
        lines.append(result.summary() + "\n")
    return lines if ok else _fail_after(lines, "one or more suites failed")


def _cmd_fib_norm(args) -> Iterable[str]:
    from .fibonacci import QuaternionParams, fib_norm_direct, fib_norm_formula
    params = QuaternionParams(args.alpha1, args.alpha2)
    direct = Fraction(fib_norm_direct(args.n, params))
    formula = Fraction(fib_norm_formula(args.n, params))
    equal = direct == formula
    # Decimal conversion is quadratic in the digits (0.12 s for the 83,597
    # digits at n = 200,000 on one core of a 2-vCPU host, Python 3.11), so an
    # agreed norm is rendered once.
    text = str(direct)
    lines = [f"direct={text}\nformula={text if equal else formula}\n"
             f"equal={str(equal).lower()}\n"]
    if equal:
        return lines
    return _fail_after(lines, "closed form disagrees with the direct norm")


def _cmd_threshold(args) -> Iterable[str]:
    from .fibonacci import QuaternionParams, energy, invertibility_threshold
    params = QuaternionParams(args.alpha1, args.alpha2)
    e = energy(params)
    n0 = invertibility_threshold(params, n_max=args.nmax)
    if n0 is None:
        raise CliError(f"sign did not stabilize by n={args.nmax}")
    return [f"energy={e}\nenergy_sign={e.sign():+d}\nn0={n0}\n"]


# The generator's basis indices when --basis is absent or empty.
_DEFAULT_BASIS = (1, 2, 3)


def _build_field(args) -> ResidueField:
    from .residue import UElement, make_w, residue_field
    if len(args.pi) != 2:
        raise CliError("--pi takes exactly two coordinates a,b")
    gen = make_w(args.t, args.basis or _DEFAULT_BASIS, args.w)
    pi = UElement(args.pi[0], args.pi[1], gen)
    # --p is checked before the field's O(p) build.
    if args.p is not None and pi.norm() != args.p:
        raise CliError(f"modulus norm is {pi.norm()}, not the requested {args.p}")
    return residue_field(pi)


def _cmd_residue_field(args) -> Iterable[str]:
    field = _build_field(args)
    if args.format == "csv":
        return ["k,a,b,norm,element\n", _field_text(field, _CSV_ROW, "")]
    # The generator as given: its three basis indices and four coefficients,
    # not its 2^t slots, so the header does not grow with the depth.
    header = {"p": field.p, "s": field.s, "pi": [field.pi.a, field.pi.b],
              "w_trace": field.gen.q, "w_norm": field.gen.m,
              "t": field.gen.w.signature.t, "w_basis": args.basis or _DEFAULT_BASIS,
              "w": args.w}
    return _json_list(header, "labels", [_field_text(field, _FIELD_ENTRY, ",\n")])


def _cmd_label(args) -> Iterable[str]:
    if (args.u is None) == (args.k is None):
        raise CliError("provide exactly one of --u or --k")
    if args.u is not None and len(args.u) != 2:
        raise CliError("--u takes exactly two coordinates a,b")
    field = _build_field(args)
    if args.u is not None:
        u = field.gen.element(args.u[0], args.u[1])
        return [f"label={field.label(u)}\n"]
    u = field.unlabel(args.k)
    return [f"element={u.a},{u.b}\n"]


def _cmd_encode(args) -> Iterable[str]:
    from .residue import decode_symbols, encode_symbols
    field = _build_field(args)
    bad = [k for k in args.symbols if not 0 <= k < field.p]
    if bad:
        raise CliError(f"symbols out of range for field size {field.p}: {bad}")
    encoded = encode_symbols(args.symbols, field)
    lines = [f"{u.a},{u.b}\n" for u in encoded]
    decoded = decode_symbols(encoded, field)
    lines.append("decoded=" + ",".join(str(k) for k in decoded) + "\n")
    if decoded == list(args.symbols):
        return lines
    return _fail_after(lines, "decode of the encoded stream does not round-trip")


# ---- parser -----------------------------------------------------------------

# The logging levels by name, so that the flag is parsed without importing
# ``logging``: the CLI imports it only when the flag is given.
_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdalgebra",
        description="Exact doubling-algebra tables, norms and residue fields.")
    parser.add_argument("--log-level", type=str.lower, choices=_LOG_LEVELS, default=None,
                        help="write the library's log records at this level and above "
                             "to stderr, e.g. debug for the u_mod fallback")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("mul-table", help="emit the structure-constant table")
    p.add_argument("--t", type=_int_in_range(1, 10), required=True)
    p.add_argument("--gammas", type=_fraction_list, required=True,
                   help="comma-separated stage parameters, e.g. -1,-1")
    p.add_argument("--convention", type=_convention,
                   default=Convention.CONJUGATE_RIGHT)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=_cmd_mul_table)

    p = sub.add_parser("twist", help="sign and index of one basis product")
    p.add_argument("--t", type=_int_in_range(0), required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--convention", type=_convention,
                   default=Convention.CONJUGATE_RIGHT)
    add_common(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("blocks", help="classify 2x2 tiles of the sign table")
    p.add_argument("--t", type=_int_in_range(1), required=True)
    p.add_argument("--convention", type=_convention,
                   default=Convention.CONJUGATE_LEFT)
    add_common(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--t", type=_int_in_range(1, 6), default=None,
                   help="cap the depth range (1-6) for the core suite")
    p.add_argument("--suite", choices=("core", "twist", "fib", "residue", "all"),
                   default="all")
    p.add_argument("--samples", type=_int_in_range(1), default=None,
                   help="random samples per depth for the core suite")
    p.add_argument("--seed", type=_int_in_range(0), default=None,
                   help="seed of every suite run (default: each suite's own)")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fib-norm", help="norms of one Fibonacci quaternion")
    p.add_argument("--n", type=_int_in_range(0, 200_000), required=True)
    p.add_argument("--alpha1", type=_fraction, required=True)
    p.add_argument("--alpha2", type=_fraction, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_fib_norm)

    p = sub.add_parser("threshold", help="energy sign and stabilization index")
    p.add_argument("--alpha1", type=_fraction, required=True)
    p.add_argument("--alpha2", type=_fraction, required=True)
    p.add_argument("--nmax", type=_int_in_range(0), default=200)
    add_common(p)
    p.set_defaults(func=_cmd_threshold)

    def add_field_flags(p):
        p.add_argument("--p", type=int, default=None,
                       help="expected prime size, checked against the norm")
        p.add_argument("--pi", type=_int_list, required=True,
                       help="prime as a,b coordinates over (1, w)")
        p.add_argument("--w", type=_int_list, required=True,
                       help="generator coefficients c0,c1,c2,c3")
        p.add_argument("--t", type=_int_in_range(2, MAX_FIELD_DEPTH), required=True)
        p.add_argument("--basis", type=_int_list, default=None,
                       help="three distinct basis indices, default 1,2,3")
        add_common(p)

    p = sub.add_parser("residue-field", help="representatives and label table")
    add_field_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_residue_field)

    p = sub.add_parser("label", help="label one element or unlabel one symbol")
    add_field_flags(p)
    p.add_argument("--u", type=_int_list, default=None,
                   help="element as a,b coordinates")
    p.add_argument("--k", type=int, default=None, help="symbol to unlabel")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("encode", help="encode symbols onto the constellation")
    add_field_flags(p)
    p.add_argument("--symbols", type=_int_list, required=True)
    p.set_defaults(func=_cmd_encode)

    return parser


_LIST_FLAGS = ("--pi", "--w", "--u", "--basis", "--symbols", "--gammas",
               "--alpha1", "--alpha2")


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """Glue list/rational flags to values that start with a minus sign.

    argparse mistakes ``--pi -1,2`` for a flag followed by an unknown
    option; rewriting it as ``--pi=-1,2`` keeps the documented syntax
    working.
    """
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _LIST_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and any(ch.isdigit() for ch in argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(argv))
    if args.command == "verify" and args.suite not in ("core", "all"):
        for flag in ("t", "samples"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} sizes the core suite, not --suite {args.suite}")
    if args.log_level is not None:
        import logging
        logging.basicConfig(level=args.log_level.upper(), stream=sys.stderr)
    try:
        with _unbounded_int_output():
            _write(args.func(args), args.output)
    except BrokenPipeError as exc:
        # The reader left early.  Point stdout at devnull, so the flush at
        # interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
