"""dortho benchmark: one closed-loop client driving ``dortho.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload family-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` sends seeded requests back to back for ``--seconds`` of run
time at reference speed (see harness.py) and reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` takes one
full cycle of the workload's request mix and runs it three times: plainly,
with timed spans at every layer boundary, and under value counters plus the
profiler; it reports the per-layer metrics.  Each request's outcome is
checked against its construction-known verdict.  The last line of stdout is
the result object; the line before it is the run record.  Details, spans and
the per-request times are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layertrace
from harness import at_reference_speed, execute, load_digests, problems
from workloads import MIXES, WORKLOADS, stream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
COLD_STARTS = 9
WALL_CAP = 1.75


def cold_start_s() -> tuple:
    """Median time, at reference speed, of a fresh interpreter importing
    dortho.cli; also the raw wall times."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, ref = [], []
    for _ in range(COLD_STARTS):
        _, wall, speed = at_reference_speed(lambda: subprocess.run(
            [sys.executable, "-c", "import dortho.cli"],
            env=env, check=True, timeout=60,
        ))
        raw.append(wall)
        ref.append(wall * speed)
    return statistics.median(ref), raw


def tail(walls: list) -> tuple:
    """(value, percentile): the highest rank with ten samples above it."""
    ordered = sorted(walls)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_untraced(cli, requests, seconds, digests, input_path) -> dict:
    """Closed loop for `seconds` of run time at reference speed, so a run's
    sample count does not depend on the host's speed phase; a wall-clock
    cap bounds the run on a slow host.  Run time is everything the loop
    does per request: making it, writing its input, the call with its
    speed probes, and checking the outcome.  Each request's share of it is
    scaled by that request's speed factor."""
    walls, ref, faults, kinds = [], [], [], {}
    referenced = 0
    run_ref = 0.0
    t_start = t_prev = time.perf_counter()
    while run_ref < seconds and t_prev - t_start < WALL_CAP * seconds:
        req = next(requests)
        outcome = execute(cli, req, input_path)
        walls.append(outcome.wall_s)
        ref.append(outcome.ref_s)
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
        referenced += req.key() in digests
        found = problems(req, outcome, digests)
        if found:
            faults.append({"index": len(walls) - 1, "request": list(req.argv), "problems": found})
        t_now = time.perf_counter()
        run_ref += (t_now - t_prev) * outcome.speed
        t_prev = t_now
    elapsed = t_prev - t_start
    p_tail, pct = tail(ref)
    return {
        "walls": walls,
        "ref_s": ref,
        "raw": {
            "verdict_s_p50": statistics.median(walls),
            "verdict_s_tail": tail(walls)[0],
            "verdicts_per_s": len(walls) / elapsed,
        },
        "faults": faults,
        "mix": kinds,
        "digests_checked": referenced,
        "metrics": {
            "verdict_s_p50": statistics.median(ref),
            "verdict_s_tail": p_tail,
            "verdicts_per_s": len(ref) / run_ref,
        },
        "tail_percentile": pct,
        "samples": len(walls),
        "elapsed_s": elapsed,
        "run_ref_s": run_ref,
    }


def run_traced(cli, mods, reqs, digests, input_path, seed) -> dict:
    faults = []

    def checked(tag, i, outcome):
        found = problems(reqs[i], outcome, digests)
        if found:
            faults.append({"pass": tag, "index": i, "problems": found})
        return outcome

    pass_s = {}
    t0 = time.perf_counter()
    plain = [checked("plain", i, execute(cli, r, input_path)) for i, r in enumerate(reqs)]
    pass_s["plain"] = time.perf_counter() - t0

    spans = layertrace.SpanTracer()
    with layertrace.patched(mods, spans.wrapper):
        timed = []
        for i, r in enumerate(reqs):
            spans.request_id = i
            timed.append(checked("spans", i, execute(cli, r, input_path)))
    pass_s["spans"] = time.perf_counter() - t0 - pass_s["plain"]

    counts = layertrace.CountTracer()
    profile = cProfile.Profile(builtins=False)
    with layertrace.patched(mods, counts.wrapper):
        counted = []
        for i, r in enumerate(reqs):
            counted.append(checked("counts", i, execute(cli, r, input_path, profile)))
            counts.end_request()
    pass_s["counts"] = time.perf_counter() - t0 - pass_s["plain"] - pass_s["spans"]

    for tag, outcomes in (("spans", timed), ("counts", counted)):
        for i, (a, b) in enumerate(zip(plain, outcomes)):
            if (a.exit_code, a.digest) != (b.exit_code, b.digest):
                faults.append({"pass": tag, "index": i,
                               "problems": ["verdict or stdout differs from the plain pass"]})

    kernels = layertrace.kernel_timings(mods["polycore"].Poly, counts.samples, seed)
    pass_s["kernels"] = time.perf_counter() - t0 - sum(pass_s.values())
    k = len(reqs)
    metrics = {}
    for name, (calls, total, self_s) in spans.stats.items():
        metrics[f"{name}_calls"] = calls
        metrics[f"{name}_s"] = total / k
        metrics[f"{name}_self_s"] = self_s / k
    for name in {t[0] for t in layertrace.TARGETS} - set(spans.stats):
        metrics.update({f"{name}_calls": 0, f"{name}_s": 0.0, f"{name}_self_s": 0.0})
    for mod in layertrace.MODULES:
        metrics[f"layer.{mod}_self_s"] = sum(
            v[2] for n, v in spans.stats.items() if n.startswith(mod + ".")
        ) / k

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["seqkit.expand_coeff_use_ratio"] = ratio(counts.coeff_reads, counts.coeffs_computed)
    for name in ("diffop.apply_monomial", "diffop.lambda_at"):
        metrics[f"{name}_distinct_ratio"] = ratio(counts.distinct[name], counts.calls[name])
    metrics["polycore.fraction_ops"] = layertrace.fraction_op_count(profile)
    metrics["polycore.max_num_bits"] = counts.max_num_bits
    metrics["polycore.max_den_bits"] = counts.max_den_bits
    for name, row in kernels.items():
        metrics[name.replace("polycore.", "polycore.kernel_") + "_us"] = row["us_per_op"]
    metrics["polycore.kernel_operand_bits_p50"] = kernels["polycore.mul"]["num_bits_p50"]

    checked_by_kind, failed = {}, 0
    for o in timed:
        for e in o.report_entries():
            checked_by_kind[e["identity"]] = checked_by_kind.get(e["identity"], 0) + 1
            failed += e["status"] == "fail"
    for kind, n in checked_by_kind.items():
        metrics[f"report.checked.{kind}"] = n
    metrics["report.failed"] = failed
    metrics["trace.overhead_s"] = (
        sum(o.ref_s for o in timed) - sum(o.ref_s for o in plain)
    ) / k
    return {
        "metrics": metrics,
        "faults": faults,
        "attempted": 3 * k,
        "failed": len({(i["pass"], i["index"]) for i in faults}),
        "plain_walls": [o.wall_s for o in plain],
        "traced_walls": [o.wall_s for o in timed],
        "plain_ref_s": [o.ref_s for o in plain],
        "traced_ref_s": [o.ref_s for o in timed],
        "kernels": kernels,
        "pass_s": pass_s,
        "trace": spans.dump(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "dortho", "cli.py")) or not os.path.isfile(spec_path):
        sys.stderr.write(f"run from a dortho checkout: {SRC}/dortho or BENCHMARK.json is missing\n")
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}\n")
        return 2

    sys.path.insert(0, SRC)
    import dortho
    from dortho import cli

    digest_seeds, digests = load_digests()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": dortho.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
    }
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    input_path = os.path.join(scratch, "input.json")
    try:
        if args.trace:
            mods = layertrace.load_modules()
            reqs = list(itertools.islice(
                WORKLOADS[args.workload](args.seed), len(MIXES[args.workload])
            ))
            res = run_traced(cli, mods, reqs, digests, input_path, args.seed)
            wanted = spec["per_layer"]
            attempted, failed = res["attempted"], res["failed"]
            record["requests"] = [list(r.argv) for r in reqs]
        else:
            setup_s, setup_runs = cold_start_s()
            res = run_untraced(cli, stream(args.workload, args.seed),
                               args.seconds, digests, input_path)
            res["metrics"]["setup_s"] = setup_s
            res["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            wanted = spec["end_to_end"]
            attempted, failed = res["samples"], len(res["faults"])
            record.update(
                mix=res["mix"], tail_percentile=res["tail_percentile"],
                samples=res["samples"], elapsed_s=res["elapsed_s"],
                run_ref_s=res["run_ref_s"],
                digests_checked=res["digests_checked"], setup_runs_s=setup_runs,
                raw=dict(res["raw"], setup_s=statistics.median(setup_runs)),
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run_problems = []
    if not args.trace and res["samples"] < 11:
        run_problems.append("fewer than 11 samples: no tail percentile")
    if args.trace:
        checked, digested = len(reqs), sum(r.key() in digests for r in reqs)
    else:
        checked, digested = res["samples"], res["digests_checked"]
    if args.seed in digest_seeds and digested < checked:
        run_problems.append(
            f"{checked - digested} requests of recorded seed {args.seed} have no digest"
        )
    for m in wanted:  # an identity kind the workload never checks counts 0
        if m["name"].startswith("report.checked."):
            res["metrics"].setdefault(m["name"], 0)
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        run_problems.append(f"metrics not measured: {missing}")
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  faults=res["faults"][:20], run_problems=run_problems)
    tag = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"record": record, **{k: v for k, v in res.items() if k != "faults"}}, fh)

    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": res["metrics"].get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
