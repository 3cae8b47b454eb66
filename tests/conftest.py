import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import dortho
from dortho import DiffOperator, Poly
from dortho.report import write

GOLDEN = Path(__file__).parent / "golden"

# The directory that holds the ``dortho`` package this process imported: the
# source tree's ``src`` or an install's site-packages.
DORTHO_ROOT = str(Path(dortho.__file__).resolve().parent.parent)


def written(obj) -> str:
    """obj as the CLI writes it: report.write's pieces, joined."""
    pieces = []
    write(obj, pieces)
    return "".join(pieces)


def dortho_env(**overrides):
    """Environment for a child Python that imports the same ``dortho`` as the
    test process, whatever its working directory.

    ``DORTHO_ROOT`` goes first on ``PYTHONPATH`` and the inherited entries
    are kept after it; an inherited relative entry such as ``src`` points
    elsewhere from the child's working directory.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        DORTHO_ROOT + os.pathsep + inherited if inherited else DORTHO_ROOT
    )
    env.update(overrides)
    return env


def run_cli(*argv, **env):
    """Run ``python -m dortho *argv`` in ``tests/golden`` with ``dortho_env(**env)``."""
    return subprocess.run(
        [sys.executable, "-m", "dortho", *argv],
        capture_output=True,
        cwd=GOLDEN,
        env=dortho_env(**env),
    )


def rand_rational(rng, lo=-20, hi=20, max_den=8):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_poly(rng, max_deg=12, lo=-20, hi=20, max_den=8):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Poly.zero()
    return Poly([rand_rational(rng, lo, hi, max_den) for _ in range(deg + 1)])


def rand_operator(rng, order=3, lo=-6, hi=6, max_den=4):
    coeffs = []
    for nu in range(order + 1):
        deg = rng.randint(-1, nu)
        if deg < 0:
            coeffs.append(Poly.zero())
        else:
            coeffs.append(
                Poly([rand_rational(rng, lo, hi, max_den) for _ in range(deg + 1)])
            )
    return DiffOperator(coeffs)


# Hypothesis counterparts.  Small numerators and denominators make equal
# eigenvalues and integer roots of the diagonal sum common, so eigenvalue
# collisions and degenerate operators are drawn often.

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def polys(max_deg):
    return st.integers(-1, max_deg).flatmap(
        lambda deg: st.lists(small_rationals, min_size=deg + 1, max_size=deg + 1)
    ).map(Poly)


@st.composite
def operators(draw, max_order=4):
    """A degree-non-increasing operator: deg a_v <= v, order 0..max_order.

    Half of them have a_0 > 0, a_1^[1] > 0 and every other a_v^[v] >= 0, so
    the diagonal sum lambda_n is positive and increasing in n: an
    isomorphism with no eigenvalue collision.
    """
    order = draw(st.integers(0, max_order))
    positive = draw(st.booleans())
    coeffs = [list(draw(polys(nu)).coeffs) for nu in range(order + 1)]
    if positive:
        coeffs[0] = [abs(draw(small_rationals)) + 1]
        if order >= 1:
            coeffs[1] = [draw(small_rationals), abs(draw(small_rationals)) + 1]
        for nu, cs in enumerate(coeffs):
            if len(cs) == nu + 1:
                cs[-1] = abs(cs[-1])
    return DiffOperator([Poly(cs) for cs in coeffs])


@pytest.fixture
def rng():
    return random.Random(20230817)
