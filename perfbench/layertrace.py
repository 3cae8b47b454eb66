"""Per-layer trace of dortho, taken from the benchmark's side.

dortho modules import functions by name (``from .diffop import lambda_at``),
so a function is wrapped in every module namespace that holds it, not only
in the module that defines it; methods are wrapped on their class.  Each
wrapped call is timed; self time is the call's duration minus the calls it
made into other wrapped functions.

Calls at the stage level keep a span (id, parent id, request id, name,
start, end, self time) in memory.  Kernel-level calls (``Poly``
arithmetic, ``lambda_at``, ``apply_monomial``) number in the hundreds of
thousands per request, so they are folded into per-(parent span, name)
totals instead of one span each.  Everything is written out at the end.

Value-level counts (distinct arguments, coefficient reads, bit lengths,
operand samples) and the profiler count of Fraction operations are taken
in their own passes, so their cost stays out of the span timings.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import random
import statistics
import time
from fractions import Fraction

MODULES = ("cli", "eigenfam", "seqkit", "diffop", "report", "polycore")

# (metric name, defining module, attribute, keeps a span of its own)
TARGETS = [
    ("cli.main", "cli", "main", True),
    ("eigenfam.derive_recurrence", "eigenfam", "derive_recurrence", True),
    ("eigenfam.eigenpoly", "eigenfam", "eigenpoly", True),
    ("eigenfam.verify_expansions", "eigenfam", "verify_expansions", True),
    ("eigenfam.tables", "eigenfam", "case1_coeffs", True),
    ("eigenfam.tables", "eigenfam", "case2_coeffs", True),
    ("eigenfam.tables", "eigenfam", "corollary42_coeffs", True),
    ("seqkit.check_d_orthogonality", "seqkit", "check_d_orthogonality", True),
    ("seqkit.expand_in_basis", "seqkit", "expand_in_basis", True),
    ("seqkit.generate", "seqkit", "generate", True),
    ("seqkit.structure_coeffs", "seqkit", "structure_coeffs", True),
    ("seqkit.dual_moments", "seqkit", "dual_moments", True),
    ("diffop.classify", "diffop", "classify", True),
    ("diffop.apply", "diffop", "DiffOperator.apply", True),
    ("diffop.apply_monomial", "diffop", "DiffOperator.apply_monomial", False),
    ("diffop.lambda_at", "diffop", "lambda_at", False),
    ("polycore.mul", "polycore", "Poly.__mul__", False),
    ("polycore.addsub", "polycore", "Poly.__add__", False),
    ("polycore.addsub", "polycore", "Poly.__sub__", False),
    ("polycore.scale", "polycore", "Poly.scale", False),
    ("seqkit.expansion_coeff", "seqkit", "BasisExpansion.coeff", False),
    ("report.to_json", "report", "VerificationReport.to_json", True),
]

FRACTION_OPS = ("_add", "_sub", "_mul", "_div")


def load_modules() -> dict:
    return {m: importlib.import_module(f"dortho.{m}") for m in MODULES}


def _sites(mods: dict, home: str, attr: str):
    """Every (namespace, name) from which the program looks the target up."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(mods[home], cls_name), meth)]
    fn = getattr(mods[home], attr)
    return [
        (mod, name)
        for mod in mods.values()
        for name, obj in vars(mod).items()
        if obj is fn
    ]


@contextlib.contextmanager
def patched(mods: dict, make_wrapper):
    """Install make_wrapper(metric, keep, fn) at every site; undo on exit."""
    undo = []
    try:
        for metric, home, attr, keep in TARGETS:
            for ns, name in _sites(mods, home, attr):
                fn = getattr(ns, name)
                wrapper = make_wrapper(metric, keep, fn)
                if wrapper is not None:
                    undo.append((ns, name, fn))
                    setattr(ns, name, wrapper)
        yield
    finally:
        for ns, name, fn in reversed(undo):
            setattr(ns, name, fn)


def _is_scalar_mul(metric, args) -> bool:
    # Poly * scalar delegates to Poly.scale, which is counted there
    return metric == "polycore.mul" and not hasattr(args[1], "coeffs")


class SpanTracer:
    """Timed pass: spans for stage calls, folded totals for kernel calls."""

    def __init__(self):
        self.request_id = -1
        self.spans = []  # (id, parent id, request id, name, start, end, self_s)
        self.folded = {}  # (parent span id, name) -> [calls, total_s, self_s]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._stack = [[0, 0.0]]  # [span id, time spent in child calls]
        self._next_id = 1

    def wrapper(self, metric, keep, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if _is_scalar_mul(metric, args):
                return fn(*args, **kwargs)
            parent = stack[-1]
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[0]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame[1]
                parent[1] += dur
                self._add(self.stats, metric, dur, self_s)
                if keep:
                    self.spans.append(
                        (sid, parent[0], self.request_id, metric, t0, t1, self_s)
                    )
                else:
                    self._add(self.folded, (sid, metric), dur, self_s)

        return traced

    @staticmethod
    def _add(table, key, dur, self_s):
        row = table.get(key)
        if row is None:
            table[key] = [1, dur, self_s]
        else:
            row[0] += 1
            row[1] += dur
            row[2] += self_s

    def dump(self) -> dict:
        return {
            "spans": [
                dict(zip(("id", "parent", "request", "name", "start", "end", "self_s"), s))
                for s in self.spans
            ],
            "folded": [
                {"parent": sid, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (sid, name), (c, t, s) in sorted(self.folded.items())
            ],
        }


def _bits(coeffs):
    """(numerator bits, denominator bits) of the largest coefficient.

    Reads Fraction's slots, because its numerator property would be a
    profiled call; untouched product slots hold the int 0."""
    if not coeffs:
        return 0, 0
    return (
        max(abs(getattr(c, "_numerator", c)) for c in coeffs).bit_length(),
        max(getattr(c, "_denominator", 1) for c in coeffs).bit_length(),
    )


class CountTracer:
    """Untimed pass: value-level counts that would distort span timings."""

    SAMPLE_EVERY = 61
    SAMPLE_CAP = 240

    def __init__(self):
        self.coeff_reads = 0
        self.coeffs_computed = 0
        self.calls = {"diffop.apply_monomial": 0, "diffop.lambda_at": 0}
        self.distinct = {"diffop.apply_monomial": 0, "diffop.lambda_at": 0}
        self._seen = {"diffop.apply_monomial": set(), "diffop.lambda_at": set()}
        self.max_num_bits = 0
        self.max_den_bits = 0
        self.kernel_calls = {"polycore.mul": 0, "polycore.addsub": 0, "polycore.scale": 0}
        self.samples = {"polycore.mul": [], "polycore.addsub": [], "polycore.scale": []}

    def end_request(self):
        """Distinct arguments are counted within one request."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def wrapper(self, metric, keep, fn):
        if metric in self._seen:
            seen = self._seen[metric]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[metric] += 1
                seen.add((args, tuple(sorted(kwargs.items()))))
                return fn(*args, **kwargs)

            return counted
        if metric == "seqkit.expansion_coeff":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.coeff_reads += 1
                return fn(*args, **kwargs)

            return counted
        if metric == "seqkit.expand_in_basis":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                exp = fn(*args, **kwargs)
                self.coeffs_computed += len(exp.coefficients)
                return exp

            return counted
        if metric in self.samples:
            samples = self.samples[metric]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if _is_scalar_mul(metric, args):
                    return out
                n = self.kernel_calls[metric] = self.kernel_calls[metric] + 1
                nb, db = _bits(out.coeffs)
                if nb > self.max_num_bits:
                    self.max_num_bits = nb
                if db > self.max_den_bits:
                    self.max_den_bits = db
                if n % self.SAMPLE_EVERY == 0:
                    a = args[0].coeffs
                    b = args[1].coeffs if metric != "polycore.scale" else (Fraction(args[1]),)
                    samples.append((len(a) - 1, *_bits(a), len(b) - 1, *_bits(b)))
                return out

            return counted
        return None


def fraction_op_count(profile: cProfile.Profile) -> int:
    """Calls of Fraction's add/sub/mul/div kernels recorded by the profiler."""
    total = 0
    for entry in profile.getstats():
        code = entry.code
        if (
            not isinstance(code, str)
            and code.co_name in FRACTION_OPS
            and code.co_filename.endswith("fractions.py")
        ):
            total += entry.callcount
    return total


def _thin(samples: list, cap: int) -> list:
    if len(samples) <= cap:
        return samples
    step = len(samples) / cap
    return [samples[int(i * step)] for i in range(cap)]


def _random_poly(Poly, rng: random.Random, degree: int, num_bits: int, den_bits: int):
    """Degree-exact polynomial whose coefficients have the given bit lengths
    over one shared denominator, as the coefficients of P_n have."""
    if degree < 0:
        return Poly.zero()
    den = rng.getrandbits(den_bits) | (1 << (den_bits - 1)) if den_bits > 1 else 1
    top = 1 << (max(num_bits, 1) - 1)
    return Poly(
        [Fraction((rng.getrandbits(max(num_bits, 1)) | top) * rng.choice((-1, 1)), den)
         for _ in range(degree + 1)]
    )


def kernel_timings(Poly, samples: dict, seed: int, repeats: int = 5) -> dict:
    """Microseconds per Poly mul/add/scale on operands shaped like the
    sampled calls: same degrees, same numerator and denominator bit lengths,
    random digits from a fixed seed.  The median of several repeats."""
    rng = random.Random(f"kernels:{seed}")
    ops = {
        "polycore.mul": lambda a, b: a * b,
        "polycore.addsub": lambda a, b: a + b,
        "polycore.scale": lambda a, c: a.scale(c),
    }
    out = {}
    for metric, rows in samples.items():
        rows = _thin(rows, CountTracer.SAMPLE_CAP)
        pairs = []
        for deg_a, nb_a, db_a, deg_b, nb_b, db_b in rows:
            a = _random_poly(Poly, rng, deg_a, nb_a, db_a)
            b = _random_poly(Poly, rng, deg_b, nb_b, db_b)
            pairs.append((a, b.coeffs[0] if metric == "polycore.scale" else b))
        op = ops[metric]
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            times.append(time.perf_counter() - t0)
        per_op = statistics.median(times) / len(pairs) if pairs else 0.0
        out[metric] = {
            "us_per_op": per_op * 1e6,
            "operands": len(pairs),
            "num_bits_p50": statistics.median(r[1] for r in rows) if rows else 0,
        }
    return out
