"""The two workloads: fresh inputs, the timed pass, the paired traced
pass, the jobs=2 pass and the correctness gate of each.

Every workload is a closed loop: one pass runs its groups one after the
other, each group's operation starting when the previous one returned.
Each pass relabels every group with one of a few relabelings drawn from
the seed, so runs with the same seed see the same inputs and a run's
median covers several relabelings, and every pass gets PermGroup objects parsed afresh
from .grp text, so no stabilizer chain or element scan survives from an
earlier pass.

corpus   harness.analyze plus the 16 checks on each of the 35 bundled
         groups, then the rendered report, as `pga verify` does at
         jobs=1; harness.run_all at jobs=2 must give the same report.
         The element scan and the class-based lattice dominate.
closure  the work of `pga two-closure --emit` on groups of degree 24-121:
         order, pair-orbit rank, 2-closure and its order, the closure
         written as .grp text.  Chain building and the backtrack search
         do all the work; a scan or lattice change must not move it.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

from inputs import (
    CORPUS_GROUPS,
    CORPUS_VERIFIED,
    GroupSpec,
    closure_cases,
    corpus_order,
    relabel,
    render_grp,
)
from speed import Speed

# The phases of harness.analyze, in the order analyze makes them.
ANALYZE_PHASES = (
    "group.chain",
    "fixity.scan",
    "closure.orbitals",
    "closure.search",
    "closure.closure_chain",
    "structure.normal_subgroups",
    "structure.solvable",
)

# The layer functions harness.analyze and two_closure look up by name, per
# module, and the span a call to each opens.  is_2_closed's own time is the
# closure's chain: its search and pair orbits open spans of their own.
LAYER_CALLS = {
    "harness": {
        "is_elusive": "fixity.scan",
        "prime_fix_profile": "fixity.scan",
        "any_derangement": "fixity.scan",
        "first_prime_derangement": "fixity.scan",
        "fixity": "fixity.scan",
        "is_2_closed": "closure.closure_chain",
        "normal_subgroups": "structure.normal_subgroups",
        "is_solvable": "structure.solvable",
    },
    "closure": {
        "orbitals": "closure.orbitals",
        "two_closure": "closure.search",
    },
}

COUNTS = ("group.base_len", "group.strong_gens", "structure.lattice_size", "closure.rank", "closure.closure_gens")


@contextmanager
def layer_spans(pga, tracer, tid):
    """Within the block, every call the real code makes to a function of
    LAYER_CALLS opens a span; the original functions are put back on exit.
    Yields a dict of each function's last return value."""
    last, saved = {}, []

    def spanned(fn, fn_name, span_name):
        def call(*args, **kwargs):
            with tracer.span(span_name, tid):
                last[fn_name] = fn(*args, **kwargs)
            return last[fn_name]
        return call

    try:
        for module, calls in LAYER_CALLS.items():
            mod = getattr(pga, module)
            for fn_name, span_name in calls.items():
                fn = getattr(mod, fn_name)
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, spanned(fn, fn_name, span_name))
        yield last
    finally:
        for mod, fn_name, fn in saved:
            setattr(mod, fn_name, fn)


@dataclass
class PassResult:
    wall_s: float
    scaled_s: float  # wall_s at the reference speed
    group_s: dict  # group name -> operation latency
    attempted: int
    failed: int
    lines: list | None = None  # the rendered report, for the jobs=2 comparison


@dataclass
class PairedResult:
    """Each group's untraced operation followed by the same operation on a
    fresh copy with spans, so both halves see the same machine state."""

    untraced_s: float
    traced_s: float
    analyze_s: float  # summed untraced harness.analyze calls
    attempted: int
    failed: int
    counts: dict
    lines: list | None = None


def _report_failure(what: str) -> None:
    print(f"[perfbench] {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = ""
    jobs2 = False

    def __init__(self, pga, root, seed: int):
        self.pga = pga
        self.seed = seed
        self.caps = self.make_caps(pga.config.DEFAULT_CAPS)
        self.base = self.base_specs(root)

    def make_caps(self, default):
        return default

    def base_specs(self, root) -> list:
        raise NotImplementedError

    def inputs(self, k: int = 0):
        """Fresh entries under the seed's k-th relabeling, and the time
        pga took to parse them."""
        rng = random.Random(f"{self.seed}:{k}")
        texts = [render_grp(relabel(s, rng)) for s in self.base]
        parse = self.pga.corpus.parse_group_file
        t0 = perf_counter()
        entries = [parse(t, source=f"seed {self.seed}", max_degree=self.caps.max_degree) for t in texts]
        load_s = perf_counter() - t0
        for e in entries:
            # a chain or scan cached on the group would make the pass cheaper
            if getattr(e.group, "_chain", None) is not None or getattr(e.group, "_scan", None) is not None:
                raise RuntimeError(f"{e.name}: freshly parsed group is not cold")
        return entries, load_s

    # one group's operation, its traced twin, the output and the gate
    def op(self, entry):
        raise NotImplementedError

    def traced_op(self, entry, untraced_out, tracer, tid):
        raise NotImplementedError

    def render(self, entries, done):
        return None

    def gate(self, entry, out) -> bool:
        raise NotImplementedError

    def agree(self, out, traced_out) -> bool:
        raise NotImplementedError

    def counts(self, entry, traced_out) -> dict:
        raise NotImplementedError

    def analyze_time(self, out) -> float:
        return 0.0

    def run_pass(self, entries) -> PassResult:
        """One pass; the reference job runs between operations to scale
        each one's wall time to the reference speed (speed.py).  The
        pass's wall time covers the operations and the report only."""
        group_s, done, failed = {}, [], 0
        wall = scaled = 0.0
        speed = Speed()
        for e in entries:
            t0 = perf_counter()
            try:
                out = self.op(e)
            except Exception:
                _report_failure(f"{self.name}: {e.name}")
                failed += 1
                out = None
            dt = perf_counter() - t0
            wall += dt
            scaled += speed.scale(dt)
            if out is not None:
                group_s[e.name] = dt
                done.append((e, out))
        t0 = perf_counter()
        lines = self.render(entries, done)
        dt = perf_counter() - t0
        wall += dt
        scaled += speed.scale(dt)
        failed += self._gate_all(done)
        return PassResult(wall, scaled, group_s, len(entries), failed, lines)

    def paired_pass(self, entries, twins, tracer, k: int) -> PairedResult:
        untraced = traced = analyze = 0.0
        done, failed = [], 0
        counts = dict.fromkeys(COUNTS, 0)
        for e, twin in zip(entries, twins):
            tid = f"{self.name}/{k}/{e.name}"
            try:
                t0 = perf_counter()
                out = self.op(e)
                t1 = perf_counter()
                with tracer.span("op", tid):
                    traced_out = self.traced_op(twin, out, tracer, tid)
                t2 = perf_counter()
            except Exception:
                _report_failure(f"{self.name}: paired {e.name}")
                failed += 1
                continue
            untraced += t1 - t0
            traced += t2 - t1
            analyze += self.analyze_time(out)
            done.append((e, out))
            if not self.agree(out, traced_out):
                print(f"[perfbench] {self.name}: traced {e.name} differs from untraced", file=sys.stderr)
                failed += 1
            for c, v in self.counts(twin, traced_out).items():
                counts[c] += v
        t0 = perf_counter()
        lines = self.render(entries, done)
        t1 = perf_counter()
        if lines is not None:
            with tracer.span("corpus.render", f"{self.name}/{k}"):
                self.render(twins, done)
        untraced += t1 - t0
        traced += perf_counter() - t1
        failed += self._gate_all(done)
        return PairedResult(untraced, traced, analyze, len(entries), failed, counts, lines)

    def _gate_all(self, done) -> int:
        bad = 0
        for e, out in done:
            if not self.gate(e, out):
                print(f"[perfbench] {self.name}: {e.name} fails the gate", file=sys.stderr)
                bad += 1
        return bad


class CorpusWorkload(Workload):
    """harness.analyze plus every check on each bundled group, then the
    report."""

    name = "corpus"
    jobs2 = True

    def base_specs(self, root) -> list:
        entries = {e.name: e for e in self.pga.corpus.load_corpus(root / "corpus", self.caps)}
        return [
            GroupSpec(name, entries[name].declared_degree, tuple(g.images for g in entries[name].group.generators))
            for name in CORPUS_GROUPS
        ]

    def op(self, entry):
        H = self.pga.harness
        t0 = perf_counter()
        a = H.analyze(entry, self.caps)
        t1 = perf_counter()
        return a, [H.check(cid, a) for cid in H.CHECK_IDS], t1 - t0

    def analyze_time(self, out) -> float:
        return out[2]

    def render(self, entries, done):
        c = self.pga.corpus
        results = [r for _, (_, res, _) in done for r in res]
        report = c.Report(metadata=c.report_metadata(self.pga.__version__, self.caps, entries), entries=results)
        return c.render_report_lines(report)

    def gate(self, entry, out) -> bool:
        a, res, _ = out
        verified = set(CORPUS_VERIFIED.get(entry.name, ()))
        return a.order == corpus_order(entry.name) and len(res) == 16 and all(
            r.status == ("verified" if r.check_id in verified else "vacuous") for r in res
        )

    def traced_op(self, entry, untraced_out, tracer, tid):
        """The real harness.analyze, after a chain build and with a span
        around each layer call it makes, then the checks on its result."""
        H, G = self.pga.harness, entry.group
        with tracer.span("group.chain", tid):
            G.is_transitive()
            G.order()
        with layer_spans(self.pga, tracer, tid) as last:
            with tracer.span("harness.analyze", tid):
                a = H.analyze(entry, self.caps)
        with tracer.span("harness.checks", tid):
            [H.check(cid, a) for cid in H.CHECK_IDS]
        return a, last

    def agree(self, out, traced_out) -> bool:
        a, b = out[0], traced_out[0]
        return (
            b.order == a.order
            and _fixity(b) == _fixity(a)
            and b.elusive == a.elusive
            and b.two_closed == a.two_closed
            and b.solvable == a.solvable
            and _normal_orders(b) == _normal_orders(a)
        )

    def counts(self, entry, traced_out) -> dict:
        a, last = traced_out
        orbitals, closure = last.get("orbitals"), last.get("two_closure")
        return {
            **_chain_counts(entry.group),
            "structure.lattice_size": len(a.normal_lattice or ()),
            "closure.rank": orbitals.rank if orbitals else 0,
            "closure.closure_gens": len(closure.generators) if closure else 0,
        }

    def jobs2_pass(self, entries, ref_lines):
        """harness.run_all at jobs=2; the report must equal the jobs=1 one
        apart from elapsed_ms and witness strings.  Returns (wall, failed)."""
        H = self.pga.harness
        t0 = perf_counter()
        try:
            report = H.run_all(entries, H.CHECK_IDS, self.caps, jobs=2)
            lines = self.pga.corpus.render_report_lines(report)
        except Exception:
            _report_failure(f"{self.name}: run_all jobs=2")
            return perf_counter() - t0, len(entries)
        wall = perf_counter() - t0
        mine, ref = _comparable(lines), _comparable(ref_lines)
        if mine[None] != ref[None]:
            return wall, len(entries)
        return wall, sum(mine.get(e.name) != ref.get(e.name) for e in entries)


def _fixity(a):
    return a.fixity.fixity if a.fixity else None


def _normal_orders(a):
    return None if a.normal_lattice is None else tuple(i.order.value for i in a.normal_lattice)


def _comparable(lines) -> dict:
    """Report records without timing and witness fields, keyed by group;
    the metadata line under the key None."""
    by_group = {None: lines[0]}
    for line in lines[1:]:
        r = json.loads(line)
        r.pop("elapsed_ms", None)
        r.pop("witness", None)
        by_group.setdefault(r["group"], []).append(r)
    return by_group


class ClosureWorkload(Workload):
    name = "closure"

    def make_caps(self, default):
        return default.with_overrides(closure_degree_cap=144, max_degree=144)

    def base_specs(self, root) -> list:
        self.cases = {c.spec.name: c for c in closure_cases()}
        return [c.spec for c in self.cases.values()]

    def op(self, entry, span=None):
        """order, rank, 2-closure and its order, the closure as .grp text."""
        p, G = self.pga, entry.group
        span = span or _no_span
        with span("group.chain"):
            order = G.order()
        rank = p.closure.orbitals(G).rank
        closure = p.closure.two_closure(G, degree_cap=self.caps.closure_degree_cap)
        with span("closure.closure_chain"):
            closure_order = closure.order()
        with span("corpus.render"):
            text = p.corpus.serialize_entry(p.corpus.CorpusEntry(f"{entry.name}_closure", "computed", closure, G.degree))
        return order, rank, closure, closure_order, text

    def traced_op(self, entry, untraced_out, tracer, tid):
        with layer_spans(self.pga, tracer, tid):
            return self.op(entry, lambda name: tracer.span(name, tid))

    def gate(self, entry, out) -> bool:
        order, rank, closure, closure_order, text = out
        c = self.cases[entry.name]
        return (
            order == c.order
            and rank == c.rank
            and closure_order == order * c.closure_ratio
            and all(closure.contains(g) for g in entry.group.generators)
            and text.startswith(f"name: {entry.name}_closure\n")
        )

    def agree(self, out, traced_out) -> bool:
        # same inputs, so the same closure, generator for generator
        return out[1] == traced_out[1] and out[2].generators == traced_out[2].generators

    def counts(self, entry, traced_out) -> dict:
        return {
            **_chain_counts(entry.group),
            "structure.lattice_size": 0,
            "closure.rank": traced_out[1],
            "closure.closure_gens": len(traced_out[2].generators),
        }


def _no_span(name):
    return nullcontext()


def _chain_counts(G) -> dict:
    chain = G.chain()
    return {"group.base_len": len(chain.base), "group.strong_gens": len(chain.strong_generators_below(0))}


WORKLOADS = {w.name: w for w in (CorpusWorkload, ClosureWorkload)}
