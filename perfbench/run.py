"""Time to a verified answer from symcap's solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one caller: one process, one thread, BLAS pinned to one
thread; each solve starts after the previous one has finished.  The run
executes whole passes of the workload (inputs of pass p drawn from
(seed, p)) while another pass still fits in S seconds, at least one, and
checks every output against its reference.  Times are in reference
seconds, corrected for the host's speed: setup_s by a baseline import (see
measure_setup), every other time by the speed samples of clock.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, timed with
tracing off.  --trace 1 alternates an untraced and a traced execution of
each pass and reports the per-layer metrics; the traced pass must give
bitwise the same estimates.  Spans are written to perfbench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full record: provenance, every metric, the tail
percentile and its sample count, and the failures.  The exit code is 1 when
an output fails its check.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import ROOT, SRC, TAIL_PERCENTILE, WORKLOADS, Verdict, np  # noqa: E402

import scipy  # noqa: E402
from clock import SpeedClock  # noqa: E402
from spans import SUPPORT, Tracer, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
# about the baseline probe's seconds on a 2-vCPU x86_64 VM of 2026, where it
# took 0.5 to 0.9 s with the host's load
REFERENCE_BASELINE_S = 0.7
LAYERS = ("bench", "bodies", "ehz", "orbits", "bounds", "symcore")


@dataclass
class PassResult:
    """A pass and its items as (start, end) intervals of program time, and
    the same in reference seconds once the run's speed samples are in."""

    interval: tuple
    item_intervals: list
    verdicts: list
    failures: list
    wall_s: float = 0.0
    times: list = None

    def to_reference(self, clock: SpeedClock) -> None:
        self.wall_s = clock.reference_s(*self.interval)
        self.times = [clock.reference_s(*iv) for iv in self.item_intervals]


def attempt(item, now):
    """Solve one item and check it; a raise counts as a failed item."""
    t0 = now()
    try:
        out = item.solve()
    except Exception:
        return (t0, now()), Verdict(False, "solve raised:\n" + traceback.format_exc())
    interval = (t0, now())
    try:
        return interval, item.check(out)
    except Exception:
        return interval, Verdict(False, "check raised:\n" + traceback.format_exc())


def run_pass(items, clock: SpeedClock, tracer=None) -> PassResult:
    intervals, verdicts, failures = [], [], []
    t0 = clock.now()
    for k, item in enumerate(items):
        with tracer.item_span(k) if tracer else nullcontext():
            interval, verdict = attempt(item, clock.now)
        intervals.append(interval)
        verdicts.append(verdict)
        if not verdict.ok:
            failures.append("%s: %s" % (item.label, verdict.detail))
            print("FAILED " + failures[-1], file=sys.stderr)
    return PassResult((t0, clock.now()), intervals, verdicts, failures)


def probe(*args) -> float:
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["seconds"]


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up of SETUP_PROBES fresh processes (import plus pass 0 inputs), in
    reference seconds, and the plain seconds of each (baseline, set-up) pair.

    Each set-up is divided by a baseline process timed just before it, which
    imports only numpy and scipy, and multiplied by REFERENCE_BASELINE_S.
    The speed-sampling kernel of clock.py cannot correct an import: over 12
    probes, set-up ranged from 0.62 to 0.90 s while the kernel timed right
    after it ranged from 0.74 to 1.49 ms.  Over 12 pairs, set-up over
    baseline spread by 0.10 where set-up alone spread by 0.27.
    """
    ref, pairs = [], []
    for _ in range(SETUP_PROBES):
        pair = (probe("--baseline"), probe(workload, str(seed)))
        pairs.append(pair)
        ref.append(pair[1] * REFERENCE_BASELINE_S / pair[0])
    return ref, pairs


def tail(times: list, pct: float) -> tuple:
    """The pct-th percentile of the item times and how many items lie beyond it."""
    value = float(np.percentile(times, pct))
    return value, sum(t > value for t in times)


def end_to_end(passes: list, setup: list, setup_pairs: list, tail_pct: float,
               clock: SpeedClock) -> dict:
    times = [t for p in passes for t in p.times]
    verdicts = [v for p in passes for v in p.verdicts]
    walls = [p.wall_s for p in passes]
    tail_s, beyond = tail(times, tail_pct)
    excess = [v.excess for v in verdicts if v.excess is not None]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "solves_per_s": sum(v.ok for v in verdicts) / sum(walls),
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # not in BENCHMARK.json: a share that is 0 when all is well, and a
        # metric of the capacity workloads only
        "failed_frac": sum(not v.ok for v in verdicts) / len(verdicts),
        "cap_excess_rel": max(excess) if excess else None,
        "solve_tail_pct": tail_pct,
        "solve_tail_beyond": beyond,
        "solve_samples": len(times),
        "passes": len(passes),
        "setup_probes_s": setup,
        "setup_pairs_raw_s": setup_pairs,
        "raw_wall_s": statistics.median(p.interval[1] - p.interval[0] for p in passes),
        "host_kernel_s": statistics.median(clock.kernel_s),
        "host_samples": len(clock.kernel_s),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(plain: list, traced: list, tracers: list, clock: SpeedClock) -> dict:
    """Counts, yields and the capacity excess come from pass 0, so they
    repeat exactly for a seed; times are means over the traced passes, in
    reference seconds."""
    sums = [tr.summary(clock.reference_scale(*p.interval))
            for tr, p in zip(tracers, traced)]
    first, tr0 = sums[0], tracers[0]
    n = len(sums)

    def total(key, name):
        return sum(s[key].get(name, 0) for s in sums)

    def count(name):
        return first["calls"].get(name, 0)

    integ, search, embed = ("orbits.integrate_orbit", "bounds.linear_search",
                            "bounds.solve_embedding")
    evals = "ehz.ehz_capacity>" + SUPPORT
    excess = [v.excess for v in traced[0].verdicts if v.excess is not None]
    traced_wall = sum(p.wall_s for p in traced)
    m = {
        "bodies.support_batch.calls": count(SUPPORT),
        "bodies.support_batch.self_s": total("self_s", SUPPORT) / n,
        "bodies.support_batch.us_per_row": 1e6 * _ratio(total("self_s", SUPPORT),
                                                        total("work", SUPPORT)),
        "bodies.largest_ball_in_cylinder.calls": count("bodies.largest_ball_in_cylinder"),
        "ehz.evals_per_restart": _ratio(first["nested_calls"].get(evals, 0), tr0.restarts),
        "ehz.ehz_capacity.self_s": total("self_s", "ehz.ehz_capacity") / n,
        "ehz.us_per_eval": 1e6 * _ratio(total("incl_s", "ehz.ehz_capacity"),
                                        total("nested_calls", evals)),
        "ehz.restart_yield": _ratio(tr0.restarts_at_best, tr0.restarts),
        "ehz.cap_excess_rel": max(excess) if excess else 0.0,
        "orbits.integrate_orbit.calls": count(integ),
        "orbits.arcs": first["work"].get(integ, 0),
        "orbits.integrate_orbit.us_per_arc": 1e6 * _ratio(total("incl_s", integ),
                                                          total("work", integ)),
        "orbits.block_map.calls": count("orbits.block_map"),
        "orbits.min_action_scan.self_s": total("self_s", "orbits.min_action_scan") / n,
        "orbits.find_closed_alternating_orbits.self_s":
            total("self_s", "orbits.find_closed_alternating_orbits") / n,
        "orbits.closed_yield": _ratio(tr0.closed_orbits, count(integ)),
        "bounds.solve_embedding.s_per_t": _ratio(total("incl_s", embed), total("calls", embed)),
        "bounds.linear_search.us_per_sample": 1e6 * _ratio(
            total("incl_s", search) - total("nested_s", search + ">" + embed),
            total("work", search)),
        "bounds.area_exact_Sh.us_per_point": 1e6 * _ratio(
            total("incl_s", "bounds.area_exact_Sh"), total("calls", "bounds.area_exact_Sh")),
        "symcore.matrix_S.calls": count("symcore.matrix_S"),
        "symcore.random_symplectic_matrix.self_s":
            total("self_s", "symcore.random_symplectic_matrix") / n,
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in sums:
        for name, sec in s["self_s"].items():
            layer_self[name.split(".")[0]] += sec
    for layer, sec in layer_self.items():
        m["layer.%s.self_s" % layer] = sec / n
    m["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    m["trace_overhead_frac"] = traced_wall / sum(p.wall_s for p in plain)
    m["trace.accounted_frac"] = sum(layer_self.values()) / traced_wall
    m["trace.passes"] = n
    return m


def estimate_bits(result: PassResult) -> list:
    return [[x.hex() for x in v.estimates] for v in result.verdicts]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    make = WORKLOADS[args.workload]
    setup, setup_pairs = measure_setup(args.workload, args.seed)

    plain, traced, tracers = [], [], []
    trace_mismatch = []
    clock = SpeedClock()
    t_start = perf_counter()
    with clock.sampling():
        for p in itertools.count():
            t_pass = perf_counter()
            items = make(args.seed, p)
            plain.append(run_pass(items, clock))
            if args.trace:
                tracer = Tracer(clock.now)
                with tracer.installed():
                    traced.append(run_pass(items, clock, tracer))
                tracers.append(tracer)
                if estimate_bits(traced[-1]) != estimate_bits(plain[-1]):
                    trace_mismatch.append(p)
                    print("FAILED pass %d: traced estimates differ from untraced" % p,
                          file=sys.stderr)
            # stop unless another pass as long as the last one still fits
            now = perf_counter()
            if (now - t_start) + (now - t_pass) > args.seconds:
                break

    results = plain + traced
    for r in results:
        r.to_reference(clock)
    attempted = sum(len(r.verdicts) for r in results)
    failures = [f for r in results for f in r.failures]
    values = end_to_end(plain, setup, setup_pairs, TAIL_PERCENTILE[args.workload], clock)
    section = "end_to_end"
    repeat = {"estimates_sha256": hashlib.sha256(
        json.dumps(estimate_bits(plain[0])).encode()).hexdigest()}
    if args.trace:
        values.update(per_layer(plain, traced, tracers, clock))
        section = "per_layer"
        repeat["counts"] = {k: values[k] for k in (
            "bodies.support_batch.calls", "orbits.arcs", "symcore.matrix_S.calls")}
        out = ROOT / "perfbench" / "out" / ("spans-%s-seed%d.csv.gz" % (args.workload, args.seed))
        write_spans(out, tracers)
        values["spans_file"] = str(out.relative_to(ROOT))
    failed = len(failures)
    correct = failed == 0 and not trace_mismatch
    record = {"provenance": provenance(args), "correct": correct, "attempted": attempted,
              "failed": failed, "values": values, "repeat": repeat,
              "trace_mismatch_passes": trace_mismatch, "failures": failures[:20]}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
