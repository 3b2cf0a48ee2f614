"""Run-to-run spread of the benchmark metrics over several seeds.

    python3 perfbench/steady.py [--seeds 1-10] [--trace 0|1] [--out FILE] [WORKLOAD ...]

Runs the BENCHMARK.json command once per (workload, seed), one after the
other, and reports per metric the median, the quartiles and the spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them.
A change is compared against these medians; an end-to-end spread above its
bound means the benchmark cannot resolve that bound.  Exits 1 if a run
fails or an end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError("%s seed %d printed no result:\n%s" % (workload, seed, out.stderr))
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    return {"seed": seed, "exit": out.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "values": record["values"], "repeat": record["repeat"],
            "provenance": record["provenance"]}


def summarize(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "bound": m.get("bound")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write runs and summary as JSON")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(spec, workload, seed, args.trace))
            r = runs[-1]
            ok &= r["exit"] == 0 and r["correct"]
            print("%s seed %d: exit %d correct %s attempted %d failed %d" % (
                workload, seed, r["exit"], r["correct"], r["attempted"], r["failed"]),
                file=sys.stderr, flush=True)
        summary = summarize(runs, metrics)
        for name, s in summary.items():
            wide = s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"]
            ok &= not wide
            print("%-22s %-45s median %-12.6g spread %.4f%s" % (
                workload, name, s["median"], s["spread"],
                "" if s["bound"] is None else " (bound %g)%s" % (s["bound"], " WIDE" if wide else "")))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
