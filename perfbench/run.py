"""robustiso benchmark: seeded, oracle-checked workloads over the library.

Run from the repository root:

    python3 perfbench/run.py --workload ged-highs --seed 1 --seconds 20 --trace 0

One process, one caller, one instance at a time (a closed loop).  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs one round of the workload's mix untraced and traced in
turn and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import robustiso; print(time.perf_counter() - t)"
)

# Traced library functions, as "<module>.<function>", by phase: the timed
# passes, set-up, and the library's own oracle after the passes.
TRACED = {
    "pass": [
        "approx.approximate_ged", "approx.approximate_qap", "approx.build_alpha_lp",
        "approx.solve_lp", "approx.round_apec", "approx.complete_matching",
        "qap.b_alpha", "qap.qap_cost", "qap.ged_to_qap", "qap.weighted_ged_to_qap",
        "simplex.simplex_min",
        "wl.wl_compare", "wl.colour_refinement", "wl.homogenising_set_coloured",
        "wl.robust_gi",
        "setsystems.vc_dimension_exact", "setsystems.neighbourhood_system",
        "setsystems.qap_threshold_system", "setsystems.epsilon_approximation_sample",
        "graphs.edit_cost",
    ],
    "setup": ["generators.gen_random_graph", "generators.gen_cfi_pair"],
    "oracle": ["graphs.edit_distance_bruteforce"],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds():
    """Library import time: here, then twice more in fresh interpreters."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import robustiso  # noqa: F401

    times = [time.perf_counter() - start]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


# ---------------------------------------------------------------- tracing


def _wl_observer(args, kwargs, result, counts):
    k = args[2] if len(args) > 2 else kwargs["k"]
    counts["wl.tuples"] += 2 * args[0].n ** k
    counts["wl.colour_classes"] += len(set(result.histogram_g) | set(result.histogram_h))


def _refinement_observer(args, kwargs, result, counts):
    counts["wl.tuples"] += args[0].n
    counts["wl.colour_classes"] += result.num_classes()


def _qap_observer(args, kwargs, report, counts):
    counts["approx.alphas_tried"] += report.alphas_tried
    counts["approx.lps_infeasible"] += report.lps_infeasible


def _vc_observer(args, kwargs, result, counts):
    counts["setsystems.family_size"] += len(args[0])


OBSERVERS = {
    "wl.wl_compare": _wl_observer,
    "wl.colour_refinement": _refinement_observer,
    "approx.approximate_qap": _qap_observer,
    "setsystems.vc_dimension_exact": _vc_observer,
}


def make_tracer(phase):
    """A tracer over the functions TRACED lists for `phase`."""
    targets = {}
    for span in TRACED[phase]:
        layer, name = span.split(".")
        targets[span] = getattr(importlib.import_module(f"robustiso.{layer}"), name)
    return spans.Tracer(targets, OBSERVERS)


# ---------------------------------------------------------------- running


class Outcome:
    """One instance run: its time, and its failure messages once checked."""

    def __init__(self, kind, index, inputs, seconds, output, error):
        self.kind = kind
        self.index = index  # pool round the inputs came from
        self.inputs = inputs
        self.seconds = seconds
        self.output = output
        self.error = error
        self.failures = []
        self.quality = {}


def run_instance(kind, index, inputs):
    start = time.perf_counter()
    try:
        output, error = kind.run(inputs), None
    except Exception as exc:  # every exception is a failed instance
        output = None
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return Outcome(kind, index, inputs, time.perf_counter() - start, output, error)


def run_round(workloads, kinds, pool, index, tracer=None, label=""):
    """One instance of each kind, from pool round index % len(pool)."""
    outcomes = []
    for kind, inputs in zip(kinds, pool[index % len(pool)]):
        if tracer is not None:
            tracer.instance = f"{label}{kind.name}"
        outcomes.append(run_instance(kind, index % len(pool), workloads.fresh(inputs)))
    return outcomes


def check_all(outcomes, memos):
    """Fill in each outcome's failures; returns the number that failed."""
    failed = 0
    for out in outcomes:
        if out.error is None:
            memo = memos.setdefault((out.kind.name, out.index), {})
            try:
                out.failures, out.quality = out.kind.check(out.inputs, out.output, memo)
            except Exception as exc:
                out.failures = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            out.failures = [out.error]
        failed += bool(out.failures)
    return failed


def setup(workloads, workload, seed, tracer=None):
    """(pool, median generation seconds) over SETUP_REPEATS generations."""
    times = []
    pool = None
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.instance = "setup"
            tracer.install()
        start = time.perf_counter()
        pool = workloads.generate(workload, seed)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
    return pool, statistics.median(times)


def quality_summary(outcomes):
    gaps = [o.quality["gap"] for o in outcomes if "gap" in o.quality]
    faq = [o.quality["faq_gap"] for o in outcomes if "faq_gap" in o.quality]
    out = {}
    if gaps:
        out["gap_mean"] = float(sum(gaps) / len(gaps))
        out["gap_max"] = float(max(gaps))
    if faq:
        out["faq_gap_mean"] = float(sum(faq) / len(faq))
    return out


def print_failures(outcomes):
    for out in outcomes:
        for msg in out.failures:
            print(f"FAILED {out.kind.name} (pool round {out.index}): {msg}")


def measure(workloads, args, kinds, pool):
    """Closed loop over whole rounds of the mix for about --seconds: a round
    starts only if it is expected to end less than half a round late."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        outcomes += run_round(workloads, kinds, pool, index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= args.seconds:
            break
    return outcomes, time.perf_counter() - start, index


def end_to_end(workloads, args, kinds, pool, setup_s):
    outcomes, elapsed, rounds = measure(workloads, args, kinds, pool)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_all(outcomes, {})
    print_failures(outcomes)
    by_kind = {kind.name: [o.seconds for o in outcomes if o.kind is kind] for kind in kinds}
    metrics = {
        "instances_per_s": len(outcomes) / elapsed,
        # the middle kind's median: a pooled median would fall between kinds
        "instance_s_p50": statistics.median(statistics.median(t) for t in by_kind.values()),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / len(outcomes),
        "setup_s": setup_s,
    }
    print(f"{len(outcomes)} instances in {rounds} rounds of {len(kinds)} kinds, "
          f"{elapsed:.3f} s")
    for name, times in by_kind.items():
        line = f"  {name:20s} n={len(times):3d}  p50 {statistics.median(times):.4f} s"
        if len(times) >= 100:  # at least ten samples beyond p90
            line += f"  p90 {statistics.quantiles(times, n=10)[-1]:.4f} s"
        print(line + f"  max {max(times):.4f} s")
    print(f"fail_frac {failed / len(outcomes):.4f} frac  ({failed} of {len(outcomes)})")
    for name, value in quality_summary(outcomes).items():
        print(f"{name} {value:.6f} 1/n2")
    return metrics, len(outcomes), failed


def per_layer(workloads, args, kinds, pool, setup_spans):
    """Alternate untraced and traced passes over round 0 of the pool."""
    tracer = make_tracer("pass")
    plain, traced = [], []
    traced_spans = []
    first_counts = None
    nondeterministic = 0  # traced passes whose counts differ from the first
    # an untimed warm-up pass, so lazy set-up inside the libraries lands in neither side
    outcomes = run_round(workloads, kinds, pool, 0)
    start = time.perf_counter()
    passes = 0
    while True:
        # alternate which side goes first, so warm-up favours neither
        for mode in ("plain", "traced") if passes % 2 == 0 else ("traced", "plain"):
            if mode == "traced":
                tracer.reset()
                tracer.install()
            began = time.perf_counter()
            row = run_round(workloads, kinds, pool, 0, tracer, f"pass{passes}/")
            took = time.perf_counter() - began
            tracer.uninstall()
            outcomes += row
            if mode == "plain":
                plain.append(took)
                continue
            traced.append(took)
            traced_spans.append(tracer.spans)
            if first_counts is None:
                first_counts = (tracer.counts, spans.call_counts(tracer.spans))
            elif first_counts[0] != tracer.counts:
                nondeterministic += 1
        passes += 1
        now = time.perf_counter()
        if now - start + (plain[-1] + traced[-1]) / 2 >= args.seconds:
            break

    # the library's own oracles, after the timed passes
    oracle = make_tracer("oracle")
    oracle.instance = "oracle"
    oracle.install()
    cross = [
        (kind.name, kind.cross_check(workloads.fresh(inputs)))
        for kind, inputs in zip(kinds, pool[0])
        if kind.cross_check is not None
    ]
    oracle.uninstall()

    failed = check_all(outcomes, {})
    print_failures(outcomes)
    for name, failures in cross:
        for msg in failures:
            print(f"FAILED oracle cross-check {name}: {msg}")
    failed += sum(bool(failures) for _, failures in cross)
    if nondeterministic:
        print(f"FAILED {nondeterministic} traced passes counted other work than the first")
    failed += nondeterministic

    self_s = {}
    for group in traced_spans:
        for name, value in spans.self_times(group).items():
            self_s[name] = self_s.get(name, 0.0) + value / len(traced)
    for name, value in spans.self_times(setup_spans).items():
        self_s[name] = value / SETUP_REPEATS
    self_s.update(spans.self_times(oracle.spans))

    counts, calls = first_counts
    tried = counts["approx.alphas_tried"]
    derived = {
        name: counts[name]
        for name in ("approx.alphas_tried", "approx.lps_infeasible", "wl.tuples",
                     "wl.colour_classes", "setsystems.family_size")
    }
    derived.update({
        "approx.lp_feasible_frac":
            1 - counts["approx.lps_infeasible"] / tried if tried else 0.0,
        "trace_overhead_frac":
            statistics.median(traced) / statistics.median(plain) - 1,
        # quality of round 0; 0 on workloads without GED instances
        "approx.gap_mean": 0.0,
        "approx.gap_max": 0.0,
        "approx.faq_gap_mean": 0.0,
    })
    for name, value in quality_summary(outcomes[: len(kinds)]).items():  # round 0
        derived[f"approx.{name}"] = value

    write_spans(args, setup_spans, traced_spans, oracle.spans)
    print(f"{len(traced)} traced and {len(plain)} untraced passes over one round of "
          f"{len(kinds)} kinds; median pass {statistics.median(plain):.4f} s untraced, "
          f"{statistics.median(traced):.4f} s traced")

    def value_of(name):
        if name in derived:
            return derived[name]
        base, _, field = name.rpartition(".")
        if field == "self_s":
            return self_s.get(base, 0.0)
        if field == "calls":
            return calls[base]
        raise KeyError(name)

    return value_of, len(outcomes) + len(cross), failed


def write_spans(args, setup_spans, traced_spans, oracle_spans):
    """Spans as JSON; a span's parent indexes its own group's list."""

    def rows(group):
        return [[s.name, s.start, s.end, s.parent, s.instance] for s in group]

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["name", "start", "end", "parent", "instance"],
            "setup": rows(setup_spans),
            "traced_passes": [rows(group) for group in traced_spans],
            "oracle": rows(oracle_spans),
        }, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robustiso", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import_s = import_seconds()
    import workloads

    kinds = workloads.WORKLOADS[args.workload]
    tracer = make_tracer("setup") if args.trace else None
    pool, gen_s = setup(workloads, args.workload, args.seed, tracer)
    setup_s = import_s + gen_s
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"set-up {setup_s:.4f} s (import {import_s:.4f} s, generation {gen_s:.4f} s)")

    if args.trace:
        value_of, attempted, failed = per_layer(workloads, args, kinds, pool, tracer.spans)
        wanted = spec["per_layer"]
        metrics = {m["name"]: value_of(m["name"]) for m in wanted}
    else:
        metrics, attempted, failed = end_to_end(workloads, args, kinds, pool, setup_s)
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    for m in wanted:
        print(f"{m['name']:42s} {metrics[m['name']]!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
