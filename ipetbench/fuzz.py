"""The ``fuzz-campaign`` workload: seeded soundness campaigns.

One item is one generated program checked by
``repro.synth.run_campaign``: generated, estimated serially,
re-estimated through the engine's ``execute_job`` and run six times
cycle-accurately, with best <= measured <= worst on every run.  A round
is SMALL programs of the ``small`` grade and MEDIUM of the ``medium``
grade.  ``large`` is left out: one large program alone can retire tens
of millions of instructions.

The 24:1 mix is an assumption, not an observed campaign: nothing in
the repository runs mixed grades.  A medium program costs about 7.5
small ones on average (and several hundred milliseconds in its tail),
so one in 25 gives medium programs about a quarter of a round: small
programs, whose per-program fixed costs this workload is for, keep
the rest, and every round still runs one deeper medium program.
"""

from __future__ import annotations

import random
import statistics

from .harness import InProcess
from .tables import icache_identity, solve_stages

SMALL, MEDIUM = 24, 1
INPUTS_PER_PROGRAM = 6
#: Programs of a run re-analyzed with HiGHS after the timed phase.
HIGHS_SAMPLE = 12


class FuzzCampaign(InProcess):
    name = "fuzz-campaign"

    def __init__(self, seed: int):
        self.seed = seed

    def imports(self):
        import repro.engine  # noqa: F401
        import repro.synth  # noqa: F401

    def make_inputs(self):
        from repro.synth import run_campaign

        # The warm-up campaign's seed is negative, so its programs are
        # never timed, and the same for every --seed, so that set-up
        # does the same work in every run.
        run_campaign(-1, 2, "small",
                     inputs_per_program=INPUTS_PER_PROGRAM)

    def round_items(self, number: int) -> list[tuple]:
        """(campaign seed, grade) pairs: the seed picks the programs."""
        base = (self.seed * 100_000 + number) * 100
        items = [(base + k, "small") for k in range(SMALL)]
        items += [(base + SMALL + k, "medium") for k in range(MEDIUM)]
        return items

    def run_item(self, item):
        from repro.synth import run_campaign

        seed, grade = item
        report = run_campaign(seed, 1, grade,
                              inputs_per_program=INPUTS_PER_PROGRAM,
                              shrink_violations=False)
        return (report.ok, report.programs, report.sim_runs,
                [v.detail for v in report.violations])

    @staticmethod
    def program(item):
        """The program ``run_campaign(seed, 1, grade)`` generates."""
        from repro.synth import generate

        seed, grade = item
        return generate(seed * 1_000_003, grade=grade)

    def prepare_trace(self):
        from repro.hw import i960kb

        self.machine = i960kb()

    def trace_item(self, item, spans):
        """``check_program`` replayed call by call."""
        from repro.analysis import Analysis
        from repro.codegen import compile_program
        from repro.engine.core import execute_job
        from repro.lang import frontend
        from repro.sim import Interpreter
        from repro.sim.cycles import CycleModel

        with spans.span("synth.generate") as counts:
            prog = self.program(item)
            counts["programs"] = 1
        with spans.span("analysis.estimate"):
            with spans.span("lang.frontend"):
                tree = frontend(prog.source)
            with spans.span("codegen.compile") as counts:
                program = compile_program(tree)
                counts["instructions"] = len(program.code)
            with spans.span("cfg.build") as counts:
                analysis = Analysis(program, prog.entry)
                counts["blocks"] = sum(len(cfg.blocks)
                                       for cfg in analysis.cfgs.values())

            def apply_user():
                for function, line, lo, hi in prog.loop_bounds:
                    analysis.bound_loop(lo, hi, function=function,
                                        line=line)

            report = solve_stages(analysis, spans, apply_user)
        best, worst = report.best, report.worst
        with spans.span("engine.execute_job"):
            result = execute_job((prog.analysis_job(), None, None, None,
                                  False))
        engine = (result.report.best, result.report.worst) \
            if result.ok and result.report is not None else None
        measured = []
        for inputs in prog.sample_inputs(INPUTS_PER_PROGRAM):
            with spans.span("sim.construct"):
                model = CycleModel(self.machine)
                interp = Interpreter(program, cycle_model=model)
                for name, value in inputs.items():
                    interp.set_global(name, value)
                model.flush()
            with spans.span("sim.cycle") as counts:
                run = interp.run(prog.entry)
                counts["runs"] = 1
                counts["instructions"] = run.steps
                counts["cycles"] = run.cycles
                counts["icache_hits"] = model.icache.hits
                counts["icache_misses"] = model.icache.misses
            measured.append(run.cycles)
        return {"interval": (best, worst), "engine": engine,
                "measured": measured, "source": prog.source}

    def check(self, outcome, layers: dict | None) -> list[str]:
        problems = []
        for item, (ok, programs, sim_runs, details) in outcome.done:
            if not ok or programs != 1 \
                    or sim_runs != INPUTS_PER_PROGRAM:
                problems.append(f"campaign {item}: {details or 'short'}")
        for item, traced in outcome.traced:
            best, worst = traced["interval"]
            if traced["engine"] != (best, worst):
                problems.append(f"campaign {item}: engine "
                                f"{traced['engine']} != serial "
                                f"{(best, worst)}")
            if not all(best <= m <= worst for m in traced["measured"]):
                problems.append(f"campaign {item}: a run escapes "
                                f"[{best}, {worst}]")
        # HiGHS on a seeded sample of this run's programs.
        items = [item for item, _ in outcome.done]
        rng = random.Random(f"highs:{self.seed}")
        for item in rng.sample(items, min(HIGHS_SAMPLE, len(items))):
            prog = self.program(item)
            ours = prog.analysis().estimate().interval
            oracle = prog.analysis(backend="scipy").estimate().interval
            if ours != oracle:
                problems.append(f"campaign {item}: interval {ours} != "
                                f"HiGHS {oracle}")
        if layers is not None:
            icache_identity(problems, layers)
        return problems

    def layer_metrics(self, outcome, layers: dict) -> dict:
        from repro.lang import tokenize

        worst, best = [], []
        for _, traced in outcome.traced:
            lo, hi = traced["interval"]
            top, bottom = max(traced["measured"]), min(traced["measured"])
            worst.append((hi - top) / top)
            best.append((bottom - lo) / bottom)
        return {
            "lang.tokens": statistics.fmean(len(tokenize(t["source"]))
                                            for _, t in outcome.traced),
            "analysis.pessimism_worst": statistics.fmean(worst),
            "analysis.pessimism_best": statistics.fmean(best),
        }
