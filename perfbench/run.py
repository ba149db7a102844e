"""Benchmark of pga, run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

Imports pga from the checkout's src/ and times calls into its public
functions; it changes none of their code, and a traced run only wraps
some of them while it runs.  The seed draws the relabelings of the
groups that the passes cycle through, so the program sees only the
generated groups.  With
--trace 0 the run measures the end-to-end metrics with tracing off; with
--trace 1 it runs each group untraced and then traced on a fresh copy,
reports per-layer metrics, the tracing overhead among them, and writes
its spans to perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from kernels import enumerate_kernel, perm_kernels, sift_kernel
from spans import Tracer
from speed import Speed
from workloads import ANALYZE_PHASES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
FIRST_SETUPS = 5
SETUPS_PER_PASS = 3
MIN_PASSES = 3
# passes cycle through this many relabelings of the seed, so that every
# run of at least as many passes sees the same ones, whatever its speed
RELABELINGS = 8
MIN_ROTATIONS = 2
PGA_MODULES = ("config", "errors", "perm", "group", "structure", "fixity", "closure", "corpus", "harness")

# spans whose self times are layer metrics
LAYER_SPANS = ANALYZE_PHASES + ("harness.checks", "corpus.render")


class Modules:
    """The pga package and its modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "pga" or m.startswith("pga.")]:
            del sys.modules[name]
        pkg = importlib.import_module("pga")
        self.__version__ = pkg.__version__
        for name in PGA_MODULES:
            setattr(self, name, importlib.import_module(f"pga.{name}"))


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); None when there are ten samples or fewer."""
    s = sorted(samples)
    n = len(s)
    return (s[n - 11], 100.0 * (n - 10) / n) if n > 10 else None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def set_up(workload: str, seed: int, k: int = 0):
    """Import pga afresh and build the inputs of pass k: one set-up, as a
    user pays it.  Returns the workload, the entries and the time taken."""
    t0 = perf_counter()
    pga = Modules()
    wl = WORKLOADS[workload](pga, ROOT, seed)
    entries = wl.inputs(k)[0]
    return wl, entries, perf_counter() - t0


def measure(workload: str, seed: int, seconds: float):
    """Untraced passes until the next one would end past the deadline.
    Set-ups run FIRST_SETUPS times before the first pass and
    SETUPS_PER_PASS times between passes, so their median, like the
    passes', covers the whole run; each pass runs on the last set-up.
    Set-up times are (wall, at the reference speed) pairs."""
    setups = []

    def timed_set_up(k):
        speed = Speed()
        wl, entries, t = set_up(workload, seed, k)
        setups.append((t, speed.scale(t)))
        return wl, entries

    for _ in range(FIRST_SETUPS):
        wl, entries = timed_set_up(0)
    deadline = perf_counter() + seconds
    passes, jobs2 = [], []
    attempted = failed = 0
    while True:
        t_pass = perf_counter()
        r = wl.run_pass(entries)
        passes.append((r, perf_counter() - t_pass))
        attempted += r.attempted
        failed += r.failed
        if len(passes) == 1 and wl.jobs2:
            wall, bad = wl.jobs2_pass(wl.inputs()[0], r.lines)
            jobs2.append(wall)
            attempted += len(entries)
            failed += bad
        r.lines = None
        if len(passes) >= MIN_PASSES and perf_counter() + median(t for _, t in passes) > deadline:
            break
        for _ in range(SETUPS_PER_PASS):
            wl, entries = timed_set_up(len(passes) % RELABELINGS)
    return setups, [r for r, _ in passes], jobs2, attempted, failed


def end_to_end(setups, passes) -> tuple:
    """pass_s and setup_s are times at the reference speed (speed.py);
    the wall times they were scaled from are in the details."""
    per_group = {}
    for p in passes:
        for name, t in p.group_s.items():
            per_group.setdefault(name, []).append(t)
    group_median = {name: median(ts) for name, ts in per_group.items()}
    metrics = {
        "setup_s": (median(s for _, s in setups), "s"),
        "pass_s": (median(p.scaled_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = [t for ts in per_group.values() for t in ts]
    detail = {
        "passes": len(passes),
        "pass_wall_s": median(p.wall_s for p in passes),
        "setup_wall_s": median(w for w, _ in setups),
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_scaled_s": [p.scaled_s for p in passes],
        "setup_walls_s": [w for w, _ in setups],
        "group_p50_s": median(group_median.values()),
        "group_samples": len(samples),
        "group_sample_tail_s_and_percentile": tail(samples),
        "group_median_s": group_median,
    }
    return metrics, detail


def traced(wl, seconds: float):
    """Kernels, then rotations of one paired pass (each group untraced, then
    traced on a fresh copy) and, for corpus, one run_all pass at jobs=2,
    until the next rotation would end past the deadline."""
    deadline = perf_counter() + seconds
    attempted = failed = 0
    k0 = wl.inputs()[0]
    sift, bad_sifts = sift_kernel(k0, wl.seed)
    walk, bad_walks = enumerate_kernel(k0, wl.caps.enumeration_cap)
    kern = {**perm_kernels(k0), **sift, **walk}
    attempted += 2
    failed += bad_sifts + bad_walks
    tracer = Tracer()
    rows, loads, jobs2 = [], [], []
    while True:
        t_rot = perf_counter()
        entries, load_s = wl.inputs()
        loads.append(load_s)
        mark = tracer.mark()
        r = wl.paired_pass(entries, wl.inputs()[0], tracer, len(rows))
        attempted += r.attempted
        failed += r.failed
        if rows and r.counts != rows[0][0].counts:
            print("[perfbench] work counts changed between passes on the same inputs", file=sys.stderr)
            failed += 1
        if wl.jobs2:
            wall, bad = wl.jobs2_pass(wl.inputs()[0], r.lines)
            jobs2.append(wall)
            attempted += len(entries)
            failed += bad
        r.lines = None
        rows.append((r, tracer.self_by_name(mark)))
        if len(rows) >= MIN_ROTATIONS and perf_counter() + (perf_counter() - t_rot) > deadline:
            break
    # chain sizes are exact for given inputs: the paired passes and the
    # kernel chains were built from the same relabeling
    for c in ("group.base_len", "group.strong_gens"):
        if rows[0][0].counts[c] != kern[c]:
            print(f"[perfbench] {c} differs between two builds of the same inputs", file=sys.stderr)
            failed += 1
    return tracer, rows, loads, jobs2, kern, attempted, failed


def per_layer(rows, loads, jobs2, kern) -> dict:
    counts = rows[0][0].counts

    def med(f):
        return median(f(r, own) for r, own in rows)

    def layer(name):
        return lambda r, own: own.get(name, 0.0)

    def unattributed(r, own):
        return r.untraced_s - sum(own.get(n, 0.0) for n in LAYER_SPANS)

    return {
        "perm.mul_ns": (kern["perm.mul_ns"], "ns"),
        "perm.inverse_ns": (kern["perm.inverse_ns"], "ns"),
        "perm.mul_bytes_computed": (kern["perm.mul_bytes_computed"], "B"),
        "group.chain_s": (med(layer("group.chain")), "s"),
        "group.base_len": (counts["group.base_len"], "count"),
        "group.strong_gens": (counts["group.strong_gens"], "count"),
        "group.sift_us": (kern["group.sift_us"], "us"),
        "group.enumerate_s": (kern["group.enumerate_s"], "s"),
        "group.elements": (kern["group.elements"], "count"),
        "fixity.scan_s": (med(layer("fixity.scan")), "s"),
        "structure.normal_subgroups_s": (med(layer("structure.normal_subgroups")), "s"),
        "structure.lattice_size": (counts["structure.lattice_size"], "count"),
        "structure.solvable_s": (med(layer("structure.solvable")), "s"),
        "closure.orbitals_s": (med(layer("closure.orbitals")), "s"),
        "closure.search_s": (med(layer("closure.search")), "s"),
        "closure.closure_chain_s": (med(layer("closure.closure_chain")), "s"),
        "closure.rank": (counts["closure.rank"], "count"),
        "closure.closure_gens": (counts["closure.closure_gens"], "count"),
        "harness.analyze_s": (med(lambda r, own: r.analyze_s), "s"),
        "harness.checks_s": (med(layer("harness.checks")), "s"),
        "harness.unattributed_s": (med(unattributed), "s"),
        "harness.jobs2_pass_s": (median(jobs2) if jobs2 else 0.0, "s"),
        "corpus.load_s": (median(loads), "s"),
        "corpus.render_s": (med(layer("corpus.render")), "s"),
        "trace.overhead_s": (med(lambda r, own: r.traced_s - r.untraced_s), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pga" / "__init__.py").is_file():
        print(f"perfbench: no pga sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setups, passes, jobs2, attempted, failed = measure(args.workload, args.seed, args.seconds)
        metrics, more = end_to_end(setups, passes)
        detail.update(more)
        if jobs2:
            detail["jobs2_gate_pass_s"] = jobs2[0]
    else:
        wl, _, _ = set_up(args.workload, args.seed)
        tracer, rows, loads, jobs2, kern, attempted, failed = traced(wl, args.seconds)
        metrics = per_layer(rows, loads, jobs2, kern)
        detail["rotations"] = len(rows)
        detail["untraced_pass_s"] = [r.untraced_s for r, _ in rows]
        detail["traced_pass_s"] = [r.traced_s for r, _ in rows]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail["failed_share"] = failed / attempted
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
