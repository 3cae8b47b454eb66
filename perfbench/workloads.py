"""Seeded request streams for the dortho benchmark.

Each request is a CLI argv plus the JSON input files it names, and the
verdict it must get.  The verdict comes from the paper's rules, computed
here from the closed forms and never from dortho itself:

* a case1/case2/corollary42 family or operator whose eigenvalues
  lambda_n = a00 + n*a11 never vanish and whose gamma_n never vanish is
  2-orthogonal and verifies (exit 0);
* an operator with a_2 = 0 and linear a_3 has no 2-orthogonal
  eigenfamily: derive mode raises NotTwoOrthogonal (exit 1, "chi_(");
* an operator whose lambda_n has a non-negative integer root is
  degenerate and is rejected by the eigen-oracle (exit 1);
* a d-term recurrence with nonzero lowest level is d-orthogonal (exit 0);
* a d=2 table with gamma_k set to 0 first fails regularity where the
  product of gammas along the lowering path first vanishes:
  <u_nu, P_m P_(2m+nu)> = prod_(i=1..m) gamma_(2i+nu-1), so the first
  failure is ((k+1)/2, 0, k+1) for odd k and (k/2, 1, k+1) for even k.

The request mix repeats a fixed cycle from a seeded start.  Each kind's
sizes follow its own golden-ratio sequence from a seeded offset, so every
run, whatever its length, covers each kind's size range evenly.  Both keep
the cost of a run's requests close to the same across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple  # "{file}" stands for the path of the request's input file
    file_text: Optional[str]
    exit_code: int
    # (m, nu, n) of the first failing report entry, or a text the stderr
    # line must contain, or None when every check must pass
    first_failure: object = None

    def key(self) -> str:
        """Stable identity of the request, used to look up its digest."""
        blob = json.dumps([list(self.argv), self.file_text])
        return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _s(q) -> str:
    return str(Fraction(q))


def _rat(rng: random.Random, num: int = 6, den: int = 4, nonzero: bool = True) -> Fraction:
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q or not nonzero:
            return q


def _lambda_root_free(a00: Fraction, a11: Fraction) -> bool:
    """lambda_n = a00 + n*a11 has no root n in {0, 1, 2, ...}."""
    r = -a00 / a11
    return not (r.denominator == 1 and r >= 0)


def _size(pos: float, lo: int, hi: int) -> int:
    """The size at position pos in [0, 1) of the range [lo, hi]."""
    return lo + int((hi - lo + 1) * pos)


def _kinds(rng: random.Random, cycle: list) -> Iterator[tuple]:
    """(kind, size position): the mix in a fixed order from a seeded
    starting point.  Each kind's positions follow its own golden-ratio walk
    from its own seeded offset, so each kind covers its size range evenly
    and different kinds do not pile up on the same sizes."""
    start = rng.randrange(len(cycle))
    walk = {kind: rng.random() for kind in sorted(set(cycle))}
    for i in itertools.count(start):
        kind = cycle[i % len(cycle)]
        yield kind, walk[kind]
        walk[kind] = (walk[kind] + GOLDEN) % 1.0


# -- the paper's closed forms (the oracle side) ----------------------------


def case1_table(p: dict, top: int):
    a01, a11, a02, a03 = p["a01"], p["a11"], p["a02"], p["a03"]
    beta = [-a01 / a11] * (top + 1)
    alpha = [-a02 * n / (2 * a11) for n in range(1, top + 1)]
    gamma = [-a03 * n * (n + 1) / (6 * a11) for n in range(1, top + 1)]
    return beta, alpha, gamma


def case2_table(p: dict, top: int):
    a01, a11, a03, a13, a23 = p["a01"], p["a11"], p["a03"], p["a13"], p["a23"]
    b0 = Fraction(1, 2) * (
        -a13 / (2 * a11) + a01 * a23 / a11**2 + 10 * a23**2 / (12 * a11**2)
    )
    b1 = a23**2 / (3 * a11**2)
    b2 = a23**2 / (12 * a11**2)
    f0 = (
        -18 * a03 * a11**2
        + 6 * a13 * a11 * (3 * a01 + a23)
        + a23 * (-18 * a01**2 - 12 * a23 * a01 + a23**2)
    ) / (108 * a11**3)
    f1 = a23 * (6 * a11 * a13 + a23 * (a23 - 12 * a01)) / (72 * a11**3)
    f2 = -a23 * (a23 * (12 * a01 + a23) - 6 * a11 * a13) / (216 * a11**3)
    f3 = -(a23**3) / (72 * a11**3)
    f4 = -(a23**3) / (216 * a11**3)

    def beta(n):
        return -a23 * (n - 1) * n / (2 * a11) - a01 / a11

    def alpha(n):
        m = n - 2
        return (
            -a13 / (2 * a11)
            + a01 * a23 / a11**2
            + m * (-3 * a13 / (4 * a11) + a23 * (9 * a01 + a23) / (6 * a11**2))
            + m**2 * (b0 + b1 * m + b2 * m**2)
        )

    def gamma(n):
        m = n - 1
        return (
            -Fraction(1, 3) / a11 * (a03 + a01 * (-a11 * a13 + a01 * a23) / a11**2)
            - m * (a11**2 * a03 - a01 * a11 * a13 + a01**2 * a23) / (2 * a11**3)
            + m**2 * (f0 + f1 * m + f2 * m**2 + f3 * m**3 + f4 * m**4)
        )

    return (
        [beta(n) for n in range(top + 1)],
        [alpha(n) for n in range(1, top + 1)],
        [gamma(n) for n in range(1, top + 1)],
    )


def corollary42_table(top: int):
    return (
        [Fraction(-12 * (n - 1) * n) for n in range(top + 1)],
        [Fraction(12 * (n - 1) * n * (2 * n - 3) ** 2) for n in range(1, top + 1)],
        [
            Fraction(-4 * n * (n + 1) * (2 * n - 3) ** 2 * (2 * n - 1) ** 2)
            for n in range(1, top + 1)
        ],
    )


# -- seeded parameter draws -------------------------------------------------

# Every eigen- or table-level index a request can reach stays below this.
_INDEX_REACH = 70


def draw_case1(rng: random.Random) -> dict:
    while True:
        p = {
            "a00": _rat(rng), "a01": _rat(rng, nonzero=False), "a11": _rat(rng),
            "a02": _rat(rng, nonzero=False), "a03": _rat(rng),
        }
        if _lambda_root_free(p["a00"], p["a11"]):
            return p


def draw_case2(rng: random.Random) -> dict:
    """a_3 = a23 (x + r)^2, so a13^2 = 4 a23 a03 holds by construction."""
    while True:
        a23, r = _rat(rng), _rat(rng, nonzero=False)
        p = {
            "a00": _rat(rng), "a01": _rat(rng, nonzero=False), "a11": _rat(rng),
            "a03": a23 * r * r, "a13": 2 * a23 * r, "a23": a23,
        }
        if not _lambda_root_free(p["a00"], p["a11"]):
            continue
        if all(case2_table(p, _INDEX_REACH)[2]):
            return p


def draw_corollary42_a00(rng: random.Random) -> Fraction:
    while True:
        a00 = _rat(rng)
        if _lambda_root_free(a00, Fraction(1, 24)):
            return a00


def case1_params(p: dict) -> list:
    return [p["a00"], p["a01"], p["a11"], p["a02"], p["a03"]]


def case2_params(p: dict) -> list:
    return [p["a00"], p["a01"], p["a11"], p["a03"], p["a13"], p["a23"]]


def operator_json(a0, a1, a2, a3) -> str:
    return json.dumps({"a": [[_s(c) for c in a] for a in (a0, a1, a2, a3)]})


def case1_operator(p: dict) -> str:
    return operator_json([p["a00"]], [p["a01"], p["a11"]], [p["a02"]], [p["a03"]])


def case2_operator(p: dict) -> str:
    return operator_json(
        [p["a00"]], [p["a01"], p["a11"]], [], [p["a03"], p["a13"], p["a23"]]
    )


def tables_json(beta, alpha, gamma) -> str:
    return json.dumps(
        {
            "d": 2,
            "beta": [_s(b) for b in beta],
            "alpha": [_s(a) for a in alpha],
            "gamma": [_s(g) for g in gamma],
        }
    )


def zeroed_gamma_failure(k: int) -> tuple:
    """First (m, nu, n) whose regularity pairing contains gamma_k."""
    if k % 2:
        return ((k + 1) // 2, 0, k + 1)
    return (k // 2, 1, k + 1)


# -- workloads --------------------------------------------------------------

# One cycle of each workload's request mix; a run walks it over and over
# from a seeded start, and a traced run takes exactly one cycle.
MIXES = {
    "family-verify": ["corollary42", "case1", "case2"],
    "operator-derive": ["case1", "case2", "case1", "case2", "linear-a3",
                        "case1", "case2", "case1", "case2", "degenerate"],
    "duals-tables": ["closed-corollary42", "zeroed-case1", "closed-case2", "d3-random",
                     "closed-case1", "zeroed-case2", "zeroed-corollary42"],
}


def family_verify(seed: int) -> Iterator[Request]:
    """verify --family over corollary42, case1 and case2; all must pass."""
    rng = random.Random(f"family-verify:{seed}")
    for kind, pos in _kinds(rng, MIXES["family-verify"]):
        N = _size(pos, 16, 28)
        M = 4 + (N - 16) // 4
        argv = ["verify", "--family", kind]
        if kind == "corollary42":
            params = [draw_corollary42_a00(rng)]
        elif kind == "case1":
            params = case1_params(draw_case1(rng))
        else:
            params = case2_params(draw_case2(rng))
        argv += ["--params", json.dumps([_s(q) for q in params])]
        argv += ["-N", str(N), "-M", str(M)]
        yield Request(kind, tuple(argv), None, 0)


def operator_derive(seed: int) -> Iterator[Request]:
    """verify --operator: mostly case1/case2, a minority of negative cases."""
    rng = random.Random(f"operator-derive:{seed}")
    for kind, pos in _kinds(rng, MIXES["operator-derive"]):
        N = _size(pos, 25, 40)
        expect, marker = 0, None
        if kind == "case1":
            text = case1_operator(draw_case1(rng))
        elif kind == "case2":
            text = case2_operator(draw_case2(rng))
        elif kind == "linear-a3":
            while True:
                a00, a11 = _rat(rng), _rat(rng)
                if _lambda_root_free(a00, a11):
                    break
            text = operator_json(
                [a00], [_rat(rng, nonzero=False), a11], [],
                [_rat(rng, nonzero=False), _rat(rng)],
            )
            expect, marker = 1, "verification failure: chi_("
        else:
            p = draw_case2(rng) if rng.random() < 0.5 else draw_case1(rng)
            p["a00"] = -rng.randint(0, 12) * p["a11"]
            text = case2_operator(p) if "a23" in p else case1_operator(p)
            expect, marker = 1, "classified as degenerate"
        argv = ("verify", "--operator", "{file}", "-N", str(N))
        yield Request(kind, argv, text, expect, marker)


def duals_tables(seed: int) -> Iterator[Request]:
    """duals --tables on closed-form d=2 tables, copies with one gamma_k
    zeroed, and random d=3 tables."""
    rng = random.Random(f"duals-tables:{seed}")
    for kind, pos in _kinds(rng, MIXES["duals-tables"]):
        N = rng.randint(2, 6)
        if kind == "d3-random":
            M = _size(pos, 6, 7)
            top = 4 * M + 2
            levels = [
                [_rat(rng, 4, 3) for _ in range(top)],
                [_rat(rng, 4, 3, nonzero=False) for _ in range(top)],
                [_rat(rng, 4, 3, nonzero=False) for _ in range(top)],
            ]
            beta = [_rat(rng, 4, 3, nonzero=False) for _ in range(top + 1)]
            text = json.dumps(
                {"d": 3, "beta": [_s(b) for b in beta],
                 "levels": [[_s(g) for g in lv] for lv in levels]}
            )
            expect, failure = 0, None
        else:
            M = _size(pos, 9, 11)
            top = 3 * M + 2
            variant, fam = kind.split("-")
            if fam == "corollary42":
                beta, alpha, gamma = corollary42_table(top)
            elif fam == "case1":
                beta, alpha, gamma = case1_table(draw_case1(rng), top)
            else:
                beta, alpha, gamma = case2_table(draw_case2(rng), top)
            expect, failure = 0, None
            if variant == "zeroed":
                k = rng.randint(1, 2 * M)
                gamma = list(gamma)
                gamma[k - 1] = Fraction(0)
                expect, failure = 1, zeroed_gamma_failure(k)
            text = tables_json(beta, alpha, gamma)
        argv = ("duals", "--tables", "{file}", "-N", str(N), "-M", str(M))
        yield Request(kind, argv, text, expect, failure)


WORKLOADS = {
    "family-verify": family_verify,
    "operator-derive": operator_derive,
    "duals-tables": duals_tables,
}

# A run's request stream repeats after this many requests, about three
# times what a 20-second run reaches at reference speed, so that every
# request of a seed in digests.json has a recorded digest however fast
# dortho gets.
PERIOD = {"family-verify": 165, "operator-derive": 150, "duals-tables": 165}


def stream(name: str, seed: int) -> Iterator[Request]:
    """The workload's requests for `seed`, one period over and over."""
    return itertools.cycle(list(itertools.islice(WORKLOADS[name](seed), PERIOD[name])))
