"""Run one benchmark request through ``dortho.cli.main`` in-process and
check its outcome against the request's construction-known verdict.

The host this benchmark was written on is a shared VM whose CPU speed
changes by up to 2x, in phases that last seconds and in swings within a
second (README.md).  So a request's time is also reported at reference
speed: wall * speed factor.  The factor is the mean of
REFERENCE_PROBE_S / probe over short speed probes of the same kind of work
(exact rational sums) taken just before the call, just after it, and every
SAMPLE_EVERY_S during it from a SIGALRM handler.  Host speed changes cancel
in that product; a change in dortho does not.  The handler's own time is
taken out of the wall time.  Probes run with the cyclic collector off, so
the garbage a request leaves behind cannot slow them and so shrink the
request's own reported time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from workloads import Request

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


# About the fast-phase time of speed_probe on the machine the benchmark was
# written on (Intel Xeon, 2.1 GHz, 2 vCPUs, Python 3.11).  It only sets the
# scale of reference-speed times and must never change.
REFERENCE_PROBE_S = 0.0002
SAMPLE_EVERY_S = 0.02


def speed_probe() -> float:
    """Seconds for a fixed batch of exact rational additions, timed with
    the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class _Sampler:
    """SIGALRM handler that probes the host's speed while a call runs."""

    def __init__(self):
        self.probes = []
        self.spent_s = 0.0

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent_s += time.perf_counter() - t0


def at_reference_speed(fn, sample: bool = True):
    """(result, wall seconds, speed factor) of fn(); wall * factor is the
    time at reference speed.  Without `sample`, only the probes before and
    after the call count, so that no probe work runs inside fn."""
    sampler = _Sampler()
    sampler.probes.append(speed_probe())
    previous = signal.signal(signal.SIGALRM, sampler)
    t0 = time.perf_counter()
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - sampler.spent_s
        signal.signal(signal.SIGALRM, previous)
    sampler.probes.append(speed_probe())
    speed = sum(REFERENCE_PROBE_S / p for p in sampler.probes) / len(sampler.probes)
    return out, wall, speed


@dataclass
class Outcome:
    exit_code: Optional[int]
    wall_s: float
    speed: float  # wall_s * speed is the time at reference speed
    stdout: str
    stderr: str
    crash: Optional[str] = None  # traceback of an exception that escaped main

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()[:32]

    def report_entries(self) -> list:
        if not self.stdout:
            return []
        return json.loads(self.stdout)["report"]["entries"]

    def first_failure(self):
        for e in self.report_entries():
            if e["status"] == "fail":
                n = e["n"]
                return tuple(n) if isinstance(n, list) else n
        return None


def execute(cli, req: Request, input_path: str, profile=None) -> Outcome:
    """Call cli.main on the request; only the call itself is timed (and,
    when a profiler is given, profiled, with no speed samples inside it)."""
    if req.file_text is not None:
        with open(input_path, "w") as fh:
            fh.write(req.file_text)
    argv = [input_path if a == "{file}" else a for a in req.argv]
    out, err = io.StringIO(), io.StringIO()

    def call():
        if profile is not None:
            profile.enable()
        try:
            return cli.main(argv), None
        except SystemExit as exc:  # argparse rejects its input this way
            return exc.code, None
        except Exception:
            return None, traceback.format_exc()
        finally:
            if profile is not None:
                profile.disable()

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        (rc, crash), wall, speed = at_reference_speed(call, sample=profile is None)
    return Outcome(rc, wall, speed, out.getvalue(), err.getvalue(), crash)


def problems(req: Request, outcome: Outcome, digests: dict) -> list:
    """Every way the outcome differs from the request's known verdict."""
    if outcome.crash is not None:
        return ["exception escaped cli.main: " + outcome.crash.strip().splitlines()[-1]]
    found = []
    if outcome.exit_code != req.exit_code:
        found.append(f"exit {outcome.exit_code}, expected {req.exit_code}")
    expected = req.first_failure
    if isinstance(expected, str):
        if expected not in outcome.stderr:
            found.append(f"stderr lacks {expected!r}: {outcome.stderr.strip()[:120]!r}")
    else:
        try:
            first = outcome.first_failure()
        except (ValueError, KeyError, TypeError) as exc:
            first = f"unreadable report ({exc})"
        if first != expected:
            found.append(f"first failure {first}, expected {expected}")
    ref = digests.get(req.key())
    if ref is not None and ref != outcome.digest:
        found.append(f"stdout digest {outcome.digest} differs from reference {ref}")
    return found


def load_digests() -> tuple:
    """(seeds whose whole request period is recorded, {request key: digest})."""
    with open(DIGESTS_PATH) as fh:
        data = json.load(fh)
    return set(data["seeds"]), data["digests"]
