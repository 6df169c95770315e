"""``sweep_grid``: every registered strategy through the serial executor.

Each pass is one grid row per strategy on the default 2 h
``ScenarioSpec()`` with a fresh scenario seed, plus the starved
``harvest_lazy`` job (empty battery, no harvest) at a short horizon.
Passes run through ``ExperimentExecutor`` in-process with no cache
until the time budget is spent, so almost all the work is the scalar
engine, Algorithm 1 and each strategy's event-horizon protocol.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from common import Outcome, WorkloadResult, beyond, median, nearest_rank, peak_rss_mib
from tracing import Tracer

#: Fixed here rather than read from the registry, so a strategy added
#: later cannot change the workload.
STRATEGIES = (
    "immediate",
    "etrain",
    "peres",
    "etime",
    "channel_aware",
    "periodic",
    "fixed_batch",
    "adaptive",
    "tailender",
    "lazy_circuit",
    "harvest_lazy",
    "common_deadline",
    "aoi_download",
)
STARVED = "harvest_lazy_starved"
#: At 600 s the starved job takes seconds event-driven against
#: milliseconds dense; 30 s keeps it visible without dominating a pass.
STARVED_HORIZON = 30.0
#: The starved job's scenario is fixed.  Its cost depends on how many
#: packets wait in those 30 s: about one scenario seed in three has none
#: and costs a millisecond, others up to 120 ms.  This one costs about
#: 90 ms in every pass and run.
STARVED_SEED = 1009
ENGINE_LABELS = STRATEGIES + (STARVED,)
TAIL_Q = 90.0
#: Set-ups per run; the median is reported.
SETUPS = 5


def pass_jobs(seed: int, k: int) -> list:
    """Pass ``k`` of the grid for workload seed ``seed``."""
    from repro.sim.parallel.specs import JobSpec, ScenarioSpec, StrategySpec

    scenario_seed = seed * 1009 + k
    jobs = [
        JobSpec(StrategySpec.make(name), ScenarioSpec(seed=scenario_seed), tag=name)
        for name in STRATEGIES
    ]
    jobs.append(
        JobSpec(
            StrategySpec.make("harvest_lazy", initial_j=0.0, harvest_rate_max=0.0),
            ScenarioSpec(seed=STARVED_SEED, horizon=STARVED_HORIZON),
            tag=STARVED,
        )
    )
    return jobs


def dense_summary(spec) -> Tuple[Dict, float]:
    """The same job through the dense reference loop, and its wall time."""
    from repro.sim.runner import run_strategy

    scenario = spec.scenario.build()
    strategy = spec.strategy.build(scenario)
    t0 = time.perf_counter()
    summary = run_strategy(strategy, scenario, dense=True).summary()
    return summary, time.perf_counter() - t0


def setup_once(seed: int) -> float:
    """Build a pass's specs and warm every strategy on a short horizon."""
    import dataclasses

    from repro.sim.parallel.specs import run_job

    t0 = time.perf_counter()
    for spec in pass_jobs(seed, -1):
        horizon = min(spec.scenario.horizon, 120.0)
        run_job(dataclasses.replace(spec, scenario=dataclasses.replace(spec.scenario, horizon=horizon)))
    return time.perf_counter() - t0


def run_passes(seed: int, seconds: Optional[float], passes: Optional[int] = None):
    """Run grid passes until ``seconds`` elapse (or exactly ``passes``)."""
    from repro.sim.parallel import ExperimentExecutor

    executor = ExperimentExecutor()
    results = []
    walls = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results.extend(executor.run(pass_jobs(seed, len(walls))))
        walls.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        if (passes is not None and len(walls) >= passes) or (passes is None and elapsed >= seconds):
            return results, walls


def check(results, outcome: Outcome) -> Dict[str, float]:
    """Every summary must equal the dense loop's; returns dense seconds per label."""
    dense_s: Dict[str, float] = {}
    for r in results:
        summary, wall = dense_summary(r.spec)
        dense_s[r.spec.tag] = dense_s.get(r.spec.tag, 0.0) + wall
        outcome.check(
            summary == r.summary, f"sweep {r.spec.describe()} seed={r.spec.scenario.seed}: event != dense"
        )
    return dense_s


def run(seed: int, seconds: float) -> WorkloadResult:
    setups = [setup_once(seed) for _ in range(SETUPS)]
    results, walls = run_passes(seed, seconds)
    rss = peak_rss_mib()
    outcome = Outcome()
    dense_s = check(results, outcome)
    times_ms = [r.wall_time * 1000.0 for r in results]
    n = len(results)
    starved = [r for r in results if r.spec.tag == STARVED]
    slots = len(starved) * STARVED_HORIZON
    # Every pass runs the same mix, so the median pass rate is the
    # throughput, and a disturbed pass does not move it.
    rate = len(pass_jobs(seed, 0)) / median(walls)
    report = {
        "sweep.jobs_per_s": (rate, "jobs/s"),
        "sweep.passes": (len(walls), "count"),
        "sweep.job_p50_ms": (median(times_ms), "ms"),
        f"sweep.job_p{TAIL_Q:g}_ms": (nearest_rank(times_ms, TAIL_Q), "ms"),
        "sweep.jobs": (n, "count"),
        "sweep.samples_beyond_tail": (beyond(n, TAIL_Q), "count"),
        "sweep.starved_event_us_per_slot": (
            sum(r.wall_time for r in starved) / slots * 1e6,
            "us",
        ),
        "sweep.starved_dense_us_per_slot": (dense_s[STARVED] / slots * 1e6, "us"),
    }
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "throughput_per_s": rate,
            "latency_p50_ms": median(times_ms),
            "peak_rss_mb": rss,
        },
        outcome=outcome,
        report=report,
    )


# -- traced pass ---------------------------------------------------------


def probe(seed: int, scale: int, tracer: Optional[Tracer]):
    """``scale`` grid passes, traced when ``tracer`` is given."""
    import contextlib

    setup_once(seed)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            _instrument(stack, tracer)
        t0 = time.perf_counter()
        results, _ = run_passes(seed, None, passes=scale)
        wall = time.perf_counter() - t0
    outcome = Outcome()
    check(results, outcome)
    return wall, outcome, {"wall": wall, "jobs": len(results)}


def _instrument(stack, tracer: Tracer) -> None:
    import repro.sim.parallel.executor as executor_mod
    from repro.sim.engine import Simulation
    from repro.sim.parallel import ExperimentExecutor, ScenarioSpec
    from repro.sim.results import SimulationResult

    def engine_exit(span, args, kwargs, result):
        sim = args[0]
        job = tracer.enclosing("parallel.run_job")
        span.attrs.update(
            label=job.attrs["label"] if job else "?",
            slots=sim.horizon / sim.slot,
            visited=sim.loop_iterations,
        )

    def job_trace(args, kwargs):
        return f"{args[0].tag}@{args[0].scenario.seed}"

    def job_enter(span, args, kwargs):
        span.attrs["label"] = args[0].tag

    stack.enter_context(
        tracer.patch(executor_mod, "run_job", "parallel.run_job", on_enter=job_enter, trace=job_trace)
    )
    stack.enter_context(tracer.patch(ExperimentExecutor, "run", "parallel.executor_run"))
    stack.enter_context(tracer.patch(ScenarioSpec, "build", "workload.scenario_build"))
    stack.enter_context(tracer.patch(Simulation, "run", "engine.run", on_exit=engine_exit))
    stack.enter_context(tracer.patch(SimulationResult, "summary", "results.summary"))


def layer_metrics(tracer: Tracer, ctx: Dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    engine = tracer.by_name("engine.run")
    for label in ENGINE_LABELS:
        spans = [s for s in engine if s.attrs["label"] == label]
        slots = sum(s.attrs["slots"] for s in spans)
        out[f"engine.{label}.us_per_slot"] = sum(s.duration for s in spans) / slots * 1e6
        out[f"engine.{label}.visited_ratio"] = sum(s.attrs["visited"] for s in spans) / slots
    jobs = tracer.by_name("parallel.run_job")
    summaries = tracer.by_name("results.summary")
    builds = tracer.by_name("workload.scenario_build")
    out["results.summary_ms"] = tracer.total("results.summary") / len(summaries) * 1e3
    out["workload.scenario_build_ms"] = tracer.total("workload.scenario_build") / len(builds) * 1e3
    out["parallel.overhead_ms_per_job"] = (
        (tracer.total("parallel.executor_run") - tracer.total("parallel.run_job")) / len(jobs) * 1e3
    )
    own = tracer.self_by_name()
    out["engine.self_pct"] = own.get("engine.run", 0.0) / ctx["wall"] * 100.0
    return out
