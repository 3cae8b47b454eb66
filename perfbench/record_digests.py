"""Record the byte-stability reference: the stdout sha256 of every request
in one period of each seed's stream (workloads.PERIOD), keyed by request.

    python3 perfbench/record_digests.py --seeds 1-10

Run from the repository root, once, when the benchmark is created.  A
request is recorded only when its outcome matches its construction-known
verdict, and an existing entry is never overwritten.  A seed is listed as
recorded only when every request of its period has a digest.  A run on a
recorded seed checks every request's digest and fails if one is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile

from harness import DIGESTS_PATH, execute, load_digests, problems
from workloads import PERIOD, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    sys.path.insert(0, SRC)
    from dortho import cli

    seeds, digests = load_digests()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=OUT)
    path = os.path.join(scratch, "input.json")
    bad = 0
    try:
        for seed in range(first, last + 1):
            complete = True
            for name in sorted(WORKLOADS):
                for req in itertools.islice(WORKLOADS[name](seed), PERIOD[name]):
                    outcome = execute(cli, req, path)
                    found = problems(req, outcome, digests)
                    if found:
                        bad += 1
                        complete = False
                        print(name, seed, req.argv, found, file=sys.stderr)
                        continue
                    digests.setdefault(req.key(), outcome.digest)
                print(name, seed, len(digests), flush=True)
            if complete:
                seeds.add(seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump({"seeds": sorted(seeds), "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
