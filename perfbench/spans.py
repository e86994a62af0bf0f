"""Spans around the public cdalgebra calls, for the traced run.

The wrappers live here, in the benchmark, not in the program.  Each span
records its name, start, end, parent span and the benchmark pass it ran
in; spans stay in memory until the run writes them out.  Installing the
wrappers also rebinds every name that cdalgebra modules took with
``from ... import`` and the suite table that ``verify`` dispatches on.
"""
from __future__ import annotations

import functools
import importlib
import logging
import statistics
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

# span name -> (module, class or None, attribute)
TARGETS = {
    "algebra.mul": ("cdalgebra.algebra", "Element", "__mul__"),
    "algebra.norm": ("cdalgebra.algebra", "Element", "norm"),
    "algebra.inverse": ("cdalgebra.algebra", "Element", "inverse"),
    "twist.build_table": ("cdalgebra.twist", None, "build_table"),
    "twist.sign_table": ("cdalgebra.twist", "TwistTable", "sign_table"),
    "twist.partition_blocks": ("cdalgebra.twist", None, "partition_blocks"),
    "twist.twist_sign": ("cdalgebra.twist", None, "twist_sign"),
    "twist.basis_product": ("cdalgebra.twist", None, "basis_product"),
    "fibonacci.fib_norm_direct": ("cdalgebra.fibonacci", None, "fib_norm_direct"),
    "fibonacci.fib_norm_formula": ("cdalgebra.fibonacci", None, "fib_norm_formula"),
    "fibonacci.invertibility_threshold": ("cdalgebra.fibonacci", None, "invertibility_threshold"),
    "residue.residue_field": ("cdalgebra.residue", None, "residue_field"),
    "residue.u_mod": ("cdalgebra.residue", None, "u_mod"),
    "residue.decode_symbols": ("cdalgebra.residue", None, "decode_symbols"),
    "residue.encode_symbols": ("cdalgebra.residue", None, "encode_symbols"),
    "residue.is_prime_u": ("cdalgebra.residue", None, "is_prime_u"),
    "suites.core": ("cdalgebra.suites", None, "run_core_suite"),
    "suites.twist": ("cdalgebra.suites", None, "run_twist_suite"),
    "suites.fib": ("cdalgebra.suites", None, "run_fib_suite"),
    "suites.residue": ("cdalgebra.suites", None, "run_residue_suite"),
}
MODULES = ("cdalgebra", "cdalgebra.algebra", "cdalgebra.twist", "cdalgebra.fibonacci",
           "cdalgebra.residue", "cdalgebra.suites", "cdalgebra.cli")


def _mul_tag(x, y):
    """(signature, whether an operand has a non-integer coefficient)."""
    coeffs = x.coeffs + (y.coeffs if hasattr(y, "coeffs") else (y,))
    return x.signature, any(type(c) is not int for c in coeffs)


class Tracer:
    def __init__(self):
        # span: (name, start_ns, end_ns, parent index or -1, pass index, tag)
        self.spans: List[Optional[tuple]] = []
        self.passes: List[Tuple[str, str]] = []   # (workload, class) per pass index
        self._stack: List[int] = []
        self._pass = -1
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tag(*args) if tag else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._pass, label)
        return wrapper

    def run_pass(self, workload: str, cls):
        """One pass of an operation class as a bench.<class> span."""
        self.passes.append((workload, cls.name))
        self._pass = len(self.passes) - 1
        try:
            return self.wrap("bench." + cls.name, cls.run)()
        finally:
            self._pass = -1

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        suites = importlib.import_module("cdalgebra.suites")
        for name, (module, owner, attr) in TARGETS.items():
            mod = importlib.import_module(module)
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._set(cls, attr, original,
                          self.wrap(name, original, _mul_tag if name == "algebra.mul" else None))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._set(m, attr, original, wrapped)
            for key, fn in list(suites.SUITES.items()):
                if fn is original:
                    suites.SUITES[key] = wrapped
                    self._undo.append((suites.SUITES, key, original))

    def _set(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # ---- queries -----------------------------------------------------------

    def select(self, name: str, workload: str, cls: Optional[str] = None) -> List[tuple]:
        return [s for s in self.spans if s[0] == name and s[4] >= 0
                and self.passes[s[4]][0] == workload
                and (cls is None or self.passes[s[4]][1] == cls)]

    def self_times(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Seconds of self time per workload, class and layer (span name prefix)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for i, s in enumerate(self.spans):
            if s[4] < 0:
                continue
            layer = s[0].split(".")[0]
            workload, cls = self.passes[s[4]]
            per = out.setdefault(workload, {}).setdefault(cls, {})
            per[layer] = per.get(layer, 0.0) + (s[2] - s[1] - child[i]) / 1e9
        return out

    def product_shares(self, workload: str) -> Dict[str, float]:
        """Share of products whose signature repeats an earlier one in the
        same pass, and share with a non-integer coefficient in an operand."""
        seen: Dict[int, set] = {}
        repeats = rational = total = 0
        for s in self.select("algebra.mul", workload):
            sig, is_rational = s[5]
            sigs = seen.setdefault(s[4], set())
            repeats += sig in sigs
            sigs.add(sig)
            rational += is_rational
            total += 1
        return {"products": total,
                "distinct_signatures": len(set().union(*seen.values())) if seen else 0,
                "signature_repeat_share": repeats / total if total else 0.0,
                "rational_share": rational / total if total else 0.0}

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {"names": names, "passes": self.passes,
                "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}


def median_of(spans: List[tuple], scale: float) -> float:
    """Median span duration, in units of `scale` seconds."""
    return statistics.median(s[2] - s[1] for s in spans) / 1e9 / scale


class RecordCounter(logging.Handler):
    """Counts records on a logger: the u_mod fallback is logged at DEBUG."""

    def __init__(self, logger_name: str):
        super().__init__(logging.DEBUG)
        self.logger = logging.getLogger(logger_name)
        self.count = 0

    def emit(self, record) -> None:
        self.count += 1

    def __enter__(self):
        self._level = self.logger.level
        self.logger.setLevel(logging.DEBUG)
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self._level)
