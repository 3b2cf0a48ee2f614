"""Exact-repeat self-check: two same-seed traced runs must agree bit for bit.

    python3 perfbench/repeat.py [--seed N] [WORKLOAD ...]

Runs `run.py --trace 1 --seconds 1` twice per workload (one traced pass
each) and compares the pass-0 estimates, bit for bit, and the counts
bodies.support_batch.calls, orbits.arcs and symcore.matrix_S.calls.  Prints
one JSON line per workload and exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_record(command: list, workload: str, seed: int) -> dict:
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("run.py failed on %s:\n%s" % (workload, out.stderr))
    return json.loads(out.stdout.splitlines()[-2])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    same = True
    for workload in args.workloads:
        first, second = (traced_record(spec["command"], workload, args.seed)["repeat"]
                         for _ in range(2))
        same &= first == second
        print(json.dumps({"workload": workload, "seed": args.seed, "identical": first == second,
                          "first": first, "second": second}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
