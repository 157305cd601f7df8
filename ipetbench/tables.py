"""The two Table I workloads: ``table-static`` and ``table-measure``.

Both run the 13 routines of the paper's Table I.  The seed only sets
the order of the routines in each pass; the routines, their loop
bounds, functionality constraints and data sets are the suite's own.
"""

from __future__ import annotations

import random
import statistics

from .harness import InProcess

#: Exercised once before timing, so that lazy imports and first-call
#: costs fall into set-up; it is not one of the timed routines.
WARMUP_SOURCE = """
int g[4];
int f() {
    int i; int s;
    s = 0;
    for (i = 0; i < 4; i++) {
        if (g[i] > 0) s += g[i];
        else s -= 1;
    }
    return s;
}
"""


def _warmup_static():
    from repro.analysis import Analysis

    analysis = Analysis(WARMUP_SOURCE, "f")
    analysis.bound_loop(4, 4)
    analysis.estimate()


def _load(dataset, interp):
    for name, value in dataset.globals.items():
        interp.set_global(name, value)


class _Suite(InProcess):
    """Shared by both workloads: the suite and the seeded pass order."""

    def __init__(self, seed: int):
        self.seed = seed

    def load_suite(self):
        from repro.programs import all_benchmarks

        self.suite = all_benchmarks()
        self.names = list(self.suite)

    def copies(self, name: str) -> int:
        """Times the routine runs per pass."""
        return 1

    def round_items(self, number: int) -> list[str]:
        order = [name for name in self.names
                 for _ in range(self.copies(name))]
        random.Random(f"{self.seed}:{number}").shuffle(order)
        return order

    def fresh_analysis(self, name: str, program=None, **kwargs):
        """Compile from the MiniC source text (or take `program`) and
        apply the routine's loop bounds and functionality constraints.

        ``Benchmark.make_analysis`` is not used: it reuses the
        ``Program`` memoized on the module-level benchmark, which would
        drop compilation from every item after the first."""
        from repro.analysis import Analysis

        bench = self.suite[name]
        analysis = Analysis(bench.source if program is None else program,
                            bench.entry,
                            context_sensitive=bench.context_sensitive,
                            **kwargs)
        self.apply_user(name, analysis)
        return analysis

    def apply_user(self, name: str, analysis) -> None:
        """The user's loop bounds and functionality constraints."""
        bench = self.suite[name]
        bench.apply_loop_bounds(analysis)
        if bench.add_constraints is not None:
            bench.add_constraints(analysis)


def _enclosure(problems: list, name: str, what: str, estimate, interval):
    lo, hi = interval
    if not (estimate[0] <= lo <= hi <= estimate[1]):
        problems.append(f"{name}: {what} interval [{lo}, {hi}] not "
                        f"inside estimate [{estimate[0]}, {estimate[1]}]")


def icache_identity(problems: list, layers: dict) -> None:
    """Every instruction fetch is an I-cache hit or a miss."""
    cycle = layers.get("sim.cycle", {})
    if (cycle.get("icache_hits", 0) + cycle.get("icache_misses", 0)
            != cycle.get("instructions", 0)):
        problems.append("I-cache hits + misses != instructions fetched")


def _pessimism(estimates: dict, measured: dict) -> tuple[float, float]:
    """Table III means: (E_u - M_u)/M_u and (M_l - E_l)/M_l."""
    worst = [(estimates[n][1] - measured[n][1]) / measured[n][1]
             for n in measured]
    best = [(measured[n][0] - estimates[n][0]) / measured[n][0]
            for n in measured]
    return sum(worst) / len(worst), sum(best) / len(best)


# ----------------------------------------------------------------------
# table-static
# ----------------------------------------------------------------------
class TableStatic(_Suite):
    """One item: compile a routine from source, apply its bounds and
    constraints, and run ``Analysis.estimate()`` serially, uncached."""

    name = "table-static"

    def imports(self):
        import repro.analysis  # noqa: F401
        import repro.programs  # noqa: F401

    def make_inputs(self):
        self.load_suite()
        _warmup_static()

    def run_item(self, name: str):
        report = self.fresh_analysis(name).estimate()
        return (report.best, report.worst, report.sets_total,
                report.sets_pruned, report.sets_solved)

    def prepare_trace(self):
        from repro.lang import tokenize

        self.tokens = {name: len(tokenize(bench.source))
                       for name, bench in self.suite.items()}

    def trace_item(self, name: str, spans):
        """The same item stage by stage; returns the report reassembled
        from the per-set results, as ``run_item`` does."""
        from repro.analysis import Analysis
        from repro.codegen import compile_program
        from repro.lang import frontend

        bench = self.suite[name]
        with spans.span("analysis.estimate"):
            with spans.span("lang.frontend") as counts:
                tree = frontend(bench.source)
                counts["tokens"] = self.tokens[name]
            with spans.span("codegen.compile") as counts:
                program = compile_program(tree)
                counts["instructions"] = len(program.code)
            with spans.span("cfg.build") as counts:
                analysis = Analysis(
                    program, bench.entry,
                    context_sensitive=bench.context_sensitive)
                counts["blocks"] = sum(len(cfg.blocks)
                                       for cfg in analysis.cfgs.values())
            report = solve_stages(analysis, spans,
                                  lambda: self.apply_user(name, analysis))
        return (report.best, report.worst, report.sets_total,
                report.sets_pruned, report.sets_solved)

    def highs(self) -> dict:
        """Every routine's interval from the HiGHS backend."""
        if not hasattr(self, "_highs"):
            self._highs = {}
            for name in self.names:
                report = self.fresh_analysis(name,
                                             backend="scipy").estimate()
                self._highs[name] = (report.best, report.worst)
        return self._highs

    def check(self, outcome, layers: dict | None) -> list[str]:
        problems = []
        oracle = self.highs()
        for name, result in outcome.done:
            if result[:2] != oracle[name]:
                problems.append(f"{name}: interval {result[:2]} != "
                                f"HiGHS {oracle[name]}")
        for (name, result), (_, traced) in zip(outcome.done,
                                               outcome.traced):
            if traced != result:
                problems.append(f"{name}: reassembled report {traced} "
                                f"!= estimate() {result}")
        for name, (measured, calculated) in self.measure_suite().items():
            _enclosure(problems, name, "measured", oracle[name], measured)
            _enclosure(problems, name, "calculated", oracle[name],
                       calculated)
        return problems

    def measure_suite(self) -> dict:
        """Measured and calculated bounds of every routine (Fig. 1),
        outside the timed phase."""
        from repro.analysis import calculated_bound
        from repro.codegen import compile_source
        from repro.sim import measure_bounds

        if not hasattr(self, "_measured"):
            self._measured = {}
            for name, bench in self.suite.items():
                program = compile_source(bench.source)
                measured = measure_bounds(program, bench.entry,
                                          bench.best_data,
                                          bench.worst_data)
                calculated = calculated_bound(program, bench.entry,
                                              bench.best_data,
                                              bench.worst_data)
                self._measured[name] = (measured.interval,
                                        calculated.interval)
        return self._measured

    def layer_metrics(self, outcome, layers: dict) -> dict:
        worst, best = _pessimism(self.highs(), {
            name: measured
            for name, (measured, _) in self.measure_suite().items()})
        traced = [result for _, result in outcome.traced]
        return {
            "constraints.sets_total": statistics.fmean(r[2]
                                                       for r in traced),
            "constraints.sets_pruned": statistics.fmean(r[3]
                                                        for r in traced),
            "analysis.pessimism_worst": worst,
            "analysis.pessimism_best": best,
        }


def solve_stages(analysis, spans, apply_user):
    """User information and constraint sets, one solve per set, and
    the report folded by ``Analysis.assemble_report``."""
    from repro.analysis.setsolve import solve_set

    with spans.span("constraints.build") as counts:
        apply_user()
        tasks = analysis.set_tasks()
        counts["rows"] = sum(len(t.base) + len(t.resolved) for t in tasks)
        counts["sets_solved"] = len(tasks)
    results = []
    for task in tasks:
        with spans.span("ilp.solve") as counts:
            result = solve_set(task)
            counts["lp_calls"] = result.stats.lp_calls
            counts["simplex_iterations"] = result.stats.simplex_iterations
            counts["bb_nodes"] = result.stats.nodes
        results.append(result)
    with spans.span("analysis.assemble"):
        return analysis.assemble_report(results, analysis.expansion())


# ----------------------------------------------------------------------
# table-measure
# ----------------------------------------------------------------------
#: The routines whose measurement simulates more than 100k
#: instructions; together they take about 80% of a pass.
LONG_ROUTINES = ("des", "fullsearch", "whetstone")
#: A pass measures every other routine this many times: one 20-40 ms
#: measurement on a shared host varies by up to a factor of two, and a
#: single pass fits in a run, so the latency percentiles need several
#: samples of each short routine.
SHORT_REPEATS = 8


class TableMeasure(_Suite):
    """One item: the paper's measurement protocol ``measure_bounds``
    (flushed worst-data run, warmed best-data run, both cycle-accurate)
    and then ``calculated_bound`` (two functional runs)."""

    name = "table-measure"

    def copies(self, name: str) -> int:
        return 1 if name in LONG_ROUTINES else SHORT_REPEATS

    def imports(self):
        import repro.analysis  # noqa: F401
        import repro.programs  # noqa: F401
        import repro.sim  # noqa: F401

    def make_inputs(self):
        from repro.codegen import compile_source

        self.load_suite()
        self.programs = {name: compile_source(bench.source)
                         for name, bench in self.suite.items()}
        self.estimates = {}
        for name in self.names:
            report = self.fresh_analysis(name,
                                         self.programs[name]).estimate()
            self.estimates[name] = (report.best, report.worst)
        self._warmup()

    def _warmup(self):
        from repro.analysis import calculated_bound
        from repro.codegen import compile_source
        from repro.sim import Dataset, measure_bounds

        program = compile_source(WARMUP_SOURCE)
        data = Dataset(globals={"g": [1, -2, 3, -4]})
        measure_bounds(program, "f", data, data)
        calculated_bound(program, "f", data, data)

    def run_item(self, name: str):
        from repro.analysis import calculated_bound
        from repro.sim import measure_bounds

        bench = self.suite[name]
        program = self.programs[name]
        m = measure_bounds(program, bench.entry, bench.best_data,
                           bench.worst_data)
        c = calculated_bound(program, bench.entry, bench.best_data,
                             bench.worst_data)
        return {
            "measured": m.interval, "calculated": c.interval,
            "measured_values": (m.best_result.value, m.worst_result.value),
            "functional_values": (c.best_result.value,
                                  c.worst_result.value),
            "cycle_steps": (m.best_result.steps, m.worst_result.steps),
            "functional_steps": (c.best_result.steps,
                                 c.worst_result.steps),
        }

    def prepare_trace(self):
        from repro.hw import i960kb

        self.machine = i960kb()

    def trace_item(self, name: str, spans):
        """``measure_bounds`` and ``calculated_bound`` replayed call by
        call, with the cycle model at hand for its I-cache counts."""
        from repro.cfg import CallGraph, build_cfgs
        from repro.hw import cost_table
        from repro.sim import Interpreter
        from repro.sim.cycles import CycleModel

        bench = self.suite[name]
        program = self.programs[name]
        entry, machine = bench.entry, self.machine

        def cycle_run(interp, model, args):
            with spans.span("sim.cycle") as counts:
                hits, misses = model.icache.hits, model.icache.misses
                result = interp.run(entry, *args)
                counts["runs"] = 1
                counts["instructions"] = result.steps
                counts["cycles"] = result.cycles
                counts["icache_hits"] = model.icache.hits - hits
                counts["icache_misses"] = model.icache.misses - misses
            return result

        with spans.span("sim.measure"):
            with spans.span("sim.construct"):
                model = CycleModel(machine)
                interp = Interpreter(program, cycle_model=model)
                _load(bench.worst_data, interp)
                model.flush()
            worst = cycle_run(interp, model, bench.worst_data.args)
            with spans.span("sim.construct"):
                model = CycleModel(machine)
                interp = Interpreter(program, cycle_model=model)
                _load(bench.best_data, interp)
            cycle_run(interp, model, bench.best_data.args)
            with spans.span("sim.construct"):
                _load(bench.best_data, interp)
            best = cycle_run(interp, model, bench.best_data.args)

        functional = {}
        with spans.span("analysis.calculated"):
            for label, data in (("worst", bench.worst_data),
                                ("best", bench.best_data)):
                with spans.span("sim.construct"):
                    interp = Interpreter(program)
                    _load(data, interp)
                with spans.span("sim.functional") as counts:
                    result = interp.run(entry, *data.args)
                    counts["instructions"] = result.steps
                functional[label] = result
            with spans.span("analysis.calculated_dot"):
                cfgs = build_cfgs(program)
                dots = {"worst": 0, "best": 0}
                for function in CallGraph(cfgs).reachable_from(entry):
                    costs = cost_table(cfgs[function], machine)
                    for block_id, block in cfgs[function].blocks.items():
                        for label in dots:
                            cost = getattr(costs[block_id], label)
                            dots[label] += (functional[label]
                                            .counts[block.start] * cost)
        return {
            "measured": (best.cycles, worst.cycles),
            "calculated": (dots["best"], dots["worst"]),
        }

    def check(self, outcome, layers: dict | None) -> list[str]:
        problems = []
        first = {}
        for name, result in outcome.done:
            bench = self.suite[name]
            if first.setdefault(name, result) != result:
                problems.append(f"{name}: results differ between items")
            if bench.expected_values is not None:
                for what in ("measured_values", "functional_values"):
                    if tuple(result[what]) != tuple(bench.expected_values):
                        problems.append(
                            f"{name}: {what} {result[what]} != expected "
                            f"{bench.expected_values}")
            if result["cycle_steps"] != result["functional_steps"]:
                problems.append(
                    f"{name}: cycle-accurate steps {result['cycle_steps']}"
                    f" != functional {result['functional_steps']}")
            _enclosure(problems, name, "measured", self.estimates[name],
                       result["measured"])
            _enclosure(problems, name, "calculated", self.estimates[name],
                       result["calculated"])
        for (name, result), (_, traced) in zip(outcome.done,
                                               outcome.traced):
            for what in ("measured", "calculated"):
                if tuple(traced[what]) != tuple(result[what]):
                    problems.append(f"{name}: replayed {what} "
                                    f"{traced[what]} != {result[what]}")
        if layers is not None:
            icache_identity(problems, layers)
        return problems

    def layer_metrics(self, outcome, layers: dict) -> dict:
        worst, best = _pessimism(self.estimates, {
            name: result["measured"] for name, result in outcome.done})
        return {
            "analysis.pessimism_worst": worst,
            "analysis.pessimism_best": best,
        }
