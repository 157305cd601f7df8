#!/usr/bin/env python3
"""Benchmark of the IPET toolchain (see ipetbench/README.md).

One measured run, from the root of a checkout:

    python3 ipetbench/run.py --workload table-static --seed 1 \\
        --seconds 15 --trace 0

prints a summary and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Other modes:

    python3 ipetbench/run.py --short          # every workload, a few
                                              # items, all checks on
    python3 ipetbench/run.py --aa             # two sets of runs of the
                                              # same code, compared
                                              # against the bounds
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("table-static", "table-measure", "fuzz-campaign",
             "service-replay")
#: Fresh interpreter starts per run; setup_s is their median.
PROBES = 5
#: Items per workload in --short mode.
SHORT_ITEMS = 8
#: Runs per set in --aa mode, each on a seed of its own: ten, as a
#: spread over five runs is set by a single outlier.
AA_RUNS = 10
#: The traced run must time at least this share of the untraced item
#: time inside its layer spans.
MIN_COVERAGE = 0.5

#: Per-layer metric -> (span name, field of Spans.layers()).  Spans
#: with children report their inclusive time ("total"), leaves their
#: self time (equal to their total).
LAYER_SPANS = {
    "lang.frontend_s": ("lang.frontend", "self"),
    "lang.tokens": ("lang.frontend", "tokens"),
    "codegen.compile_s": ("codegen.compile", "self"),
    "codegen.instructions": ("codegen.compile", "instructions"),
    "cfg.build_s": ("cfg.build", "self"),
    "cfg.blocks": ("cfg.build", "blocks"),
    "constraints.build_s": ("constraints.build", "self"),
    "constraints.rows": ("constraints.build", "rows"),
    "constraints.sets_solved": ("constraints.build", "sets_solved"),
    "ilp.solve_s": ("ilp.solve", "self"),
    "ilp.lp_calls": ("ilp.solve", "lp_calls"),
    "ilp.simplex_iterations": ("ilp.solve", "simplex_iterations"),
    "ilp.bb_nodes": ("ilp.solve", "bb_nodes"),
    "sim.construct_s": ("sim.construct", "self"),
    "sim.cycle_s": ("sim.cycle", "self"),
    "sim.cycle_runs": ("sim.cycle", "runs"),
    "sim.cycle_instructions": ("sim.cycle", "instructions"),
    "sim.cycles": ("sim.cycle", "cycles"),
    "sim.functional_s": ("sim.functional", "self"),
    "sim.functional_instructions": ("sim.functional", "instructions"),
    "hw.icache_hits": ("sim.cycle", "icache_hits"),
    "hw.icache_misses": ("sim.cycle", "icache_misses"),
    "synth.generate_s": ("synth.generate", "self"),
    "synth.programs": ("synth.generate", "programs"),
    "analysis.estimate_s": ("analysis.estimate", "total"),
    "engine.execute_job_s": ("engine.execute_job", "total"),
    "service.submit_s": ("service.submit", "total"),
}
#: Spans that time a layer's own work, not a wrapper around other
#: spans; trace.coverage is their self time over the untraced item time.
LEAF_SPANS = ("lang.frontend", "codegen.compile", "cfg.build",
              "constraints.build", "ilp.solve", "analysis.assemble",
              "analysis.calculated_dot", "sim.construct", "sim.cycle",
              "sim.functional", "synth.generate", "engine.execute_job",
              "service.submit")


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def make_workload(name: str, seed: int, seconds: float):
    if name == "table-static":
        from ipetbench.tables import TableStatic
        return TableStatic(seed)
    if name == "table-measure":
        from ipetbench.tables import TableMeasure
        return TableMeasure(seed)
    if name == "fuzz-campaign":
        from ipetbench.fuzz import FuzzCampaign
        return FuzzCampaign(seed)
    from ipetbench.service import ServiceReplay
    return ServiceReplay(seed, seconds)


def say(text: str) -> None:
    print(f"# {text}", flush=True)


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None, probes: int = PROBES) -> dict:
    """Set up, run the timed phase, check; returns the result object."""
    from ipetbench.harness import (OUT, Phases, SetupProbes, Spans,
                                   host_probe, latency_metrics)

    spec = load_spec()
    host_before = host_probe()
    setup_probes = SetupProbes(name, seed, seconds)
    setup_probes.run((probes + 1) // 2)
    workload = make_workload(name, seed, seconds)
    phases = Phases()
    spans = Spans() if trace else None
    layers = None
    try:
        with phases.phase("import"):
            workload.imports()
        workload.setup(phases)
        if trace:
            workload.prepare_trace()
        outcome = workload.run(seconds, limit, spans)
        rss = workload.peak_rss_mb()
        if trace:
            layers = spans.layers()
            extra = workload.layer_metrics(outcome, layers)
    finally:
        workload.close()
    setup_probes.run(probes // 2)
    setup = setup_probes.result()
    problems = workload.check(outcome, layers)
    if trace:
        values = layer_values(layers, extra, setup, outcome)
        if values["trace.coverage"] < MIN_COVERAGE:
            problems.append("layer spans time only {:.2f} of the "
                            "untraced item time".format(
                                values["trace.coverage"]))
    host_after = host_probe()

    say(f"workload {name}, seed {seed}, {seconds:g} s, trace "
        f"{int(trace)}")
    say("set-up: median {:.3f} s over {} fresh starts ({}); phases {}"
        .format(setup["setup_s"], len(setup["walls"]),
                " ".join(f"{w:.3f}" for w in setup["walls"]),
                " ".join(f"{k} {v:.3f}" for k, v
                         in setup["phases"].items())))
    say(f"timed phase: {outcome.attempted} items attempted, "
        f"{outcome.failed} failed, {len(outcome.round_rates)} rounds, "
        f"{outcome.wall:.2f} s")
    for error in outcome.errors:
        say(f"failed: {error}")
    say(f"host probe: {host_before:.4f} s before, {host_after:.4f} s "
        "after")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    say(f"checks: {'OK' if not problems else f'{len(problems)} problems'}")

    if trace:
        report_layers(layers, outcome)
        say("tracing overhead {:+.3f} (1 - traced/untraced items_per_s), "
            "coverage {:.3f}".format(values["trace.overhead"],
                                     values["trace.coverage"]))
        spans.dump(OUT / f"trace-{name}-s{seed}.json")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        if not outcome.done:
            raise RuntimeError("no item completed")
        values = {"setup_s": setup["setup_s"], "peak_rss_mb": rss,
                  **latency_metrics(outcome)}
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        count = len(outcome.latencies)
        say(f"items: {count} latencies, p95 has "
            f"{count - math.ceil(0.95 * count) + 1} samples at or "
            "beyond it")
    return {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": float(values.get(n, 0.0)),
                        "unit": units[n]} for n in names},
    }


def layer_values(layers: dict, extra: dict, setup: dict, outcome) -> dict:
    """Per-layer metrics: span times and counts per traced item, the
    workload's own figures (which take precedence), set-up phases and
    the tracing overhead and coverage."""
    items = layers["item"]["calls"]
    values = {}
    for metric, (span, field) in LAYER_SPANS.items():
        values[metric] = layers.get(span, {}).get(field, 0) / items
    for phase, seconds in setup["phases"].items():
        values[f"setup.{phase}_s"] = seconds
    sim_s = (layers.get("sim.cycle", {}).get("self", 0.0)
             + layers.get("sim.functional", {}).get("self", 0.0)) / items
    if sim_s:
        values["sim.minstr_per_s"] = (
            values["sim.cycle_instructions"]
            + values["sim.functional_instructions"]) / sim_s / 1e6
    traced, untraced = outcome.traced_latencies, outcome.latencies
    values["trace.items"] = items
    # Traced and untraced items alternate within the run, so the
    # throughput of each is the inverse of its mean item time.
    values["trace.overhead"] = 1.0 - (statistics.fmean(untraced)
                                      / statistics.fmean(traced))
    values["trace.coverage"] = sum(
        layers.get(span, {}).get("self", 0.0) for span in LEAF_SPANS) \
        / sum(untraced)
    values.update(extra)
    return values


def report_layers(layers: dict, outcome) -> None:
    """Self and inclusive time per span name, against item time."""
    item_total = layers["item"]["total"]
    untraced = sum(outcome.latencies)
    say(f"traced items {layers['item']['calls']}: {item_total:.3f} s "
        f"traced, paired untraced items {len(outcome.latencies)}: "
        f"{untraced:.3f} s")
    say(f"{'span':<24}{'calls':>8}{'self s':>10}{'total s':>10}"
        f"{'self %':>8}")
    for name, entry in sorted(layers.items(),
                              key=lambda kv: -kv[1]["self"]):
        say(f"{name:<24}{entry['calls']:>8}{entry['self']:>10.3f}"
            f"{entry['total']:>10.3f}"
            f"{100 * entry['self'] / item_total:>8.1f}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def setup_probe(name: str, seed: int, seconds: float) -> int:
    """One fresh-interpreter set-up: print READY with the phase times
    as soon as the workload is ready, then tear it down."""
    from ipetbench.harness import Phases

    workload = make_workload(name, seed, seconds)
    phases = Phases()
    try:
        with phases.phase("import"):
            workload.imports()
        workload.setup(phases)
        print("READY " + json.dumps(phases.seconds), flush=True)
    finally:
        workload.close()
    return 0


def short() -> int:
    """Every workload for a handful of items, untraced and traced."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, 1, 1, trace, limit=SHORT_ITEMS,
                             probes=1)
            ok = ok and result["correct"] and not result["failed"]
            print(json.dumps(result), flush=True)
    print("short mode:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def one_run(name: str, seed: int, seconds: float) -> tuple[dict, list]:
    """A run in a fresh process, as the command line makes it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=str(ROOT), capture_output=True, text=True,
        timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines \
            or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    probe = [line for line in lines if line.startswith("# host probe")]
    return json.loads(lines[-1]), probe


def aa(seconds: float) -> int:
    """Two sets of AA_RUNS runs of the same code per workload, each run
    on its own seed: per metric, each set's median and spread, the
    shift between the medians, and whether all of it stays within the
    bounds (in either direction, and for setup_s too)."""
    from ipetbench.harness import spread

    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    verdict = True
    for name in WORKLOADS:
        sets = []
        for number in range(2):
            results = []
            for k in range(AA_RUNS):
                seed = 1 + number * 1000 + k
                result, probe = one_run(name, seed, seconds)
                results.append(result)
                say(f"{name} set {number + 1} seed {seed}: "
                    + " ".join(f"{m}={v['value']:.4g}" for m, v
                               in result["metrics"].items())
                    + " | " + probe[0][len("# host probe: "):])
            sets.append(results)
        shares = {r["failed"] / r["attempted"]
                  for results in sets for r in results}
        if len(shares) != 1:
            verdict = False
            say(f"{name}: failed share differs between runs: {shares}")
        say(f"{name}: {'metric':<14}{'median A':>11}{'median B':>11}"
            f"{'spread A':>9}{'spread B':>9}{'spread':>8}{'shift':>8}"
            f"{'bound':>7}")
        for metric, entry in bounds.items():
            a_vals = [r["metrics"][metric]["value"] for r in sets[0]]
            b_vals = [r["metrics"][metric]["value"] for r in sets[1]]
            a_med, b_med = statistics.median(a_vals), \
                statistics.median(b_vals)
            shift = (b_med - a_med) / a_med
            spreads = (spread(a_vals), spread(b_vals),
                       spread(a_vals + b_vals))
            ok = abs(shift) <= entry["bound"] \
                and max(spreads) <= entry["bound"]
            verdict = verdict and ok and all(
                r["correct"] for results in sets for r in results)
            say(f"{name}: {metric:<14}{a_med:>11.4g}{b_med:>11.4g}"
                f"{spreads[0]:>9.3f}{spreads[1]:>9.3f}{spreads[2]:>8.3f}"
                f"{shift:>8.3f}{entry['bound']:>7.2f}"
                f"{'' if ok else '  OUT OF BOUND'}")
    print("A/A:", "agree within bounds" if verdict else "DISAGREE")
    return 0 if verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the IPET toolchain.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="every workload for a few items, all "
                             "checks on")
    parser.add_argument("--aa", action="store_true",
                        help=f"two sets of {AA_RUNS} runs per workload, "
                             "compared against the bounds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() \
            or not SPEC.is_file():
        print(f"error: no program sources under {src} (run from a "
              "checkout of the repository)", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "ipetbench":
        del sys.path[0]             # import the package, not its files
    sys.path[:0] = [str(src), str(ROOT)]
    if not (args.short or args.aa or args.workload):
        parser.error("give a --workload (or --short or --aa)")
    from ipetbench.harness import adopt_orphans, stop_children

    # A SIGTERM unwinds like an error, so that every process this run
    # started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    try:
        if args.short:
            return short()
        if args.aa:
            return aa(args.seconds)
        if args.setup_probe:
            return setup_probe(args.workload, args.seed, args.seconds)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
