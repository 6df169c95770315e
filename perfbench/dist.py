"""``dist_lease``: many short jobs leased to one spawned TCP worker.

Each round is a ``DistExecutor(spawn_workers=1)`` run over a fresh grid
with a fresh cache directory and journal.  A job costs about as much
to compute as to lease, so lease round-trips, the wire format, result
hash verification, the journal and the result cache make up a large
share of the time.  This is the only workload that runs
``repro.sim.dist``.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import time
from typing import Dict, List, Optional

from common import WORK, Outcome, WorkloadResult, beyond, median, nearest_rank, peak_rss_mib
from tracing import Tracer

#: One cheap strategy at a 30 min horizon: per-job compute is mostly the
#: scenario build, and lease, wire, verification, journal and cache
#: costs stay a visible share of each job.  Shorter jobs made the
#: figures follow the host's process wake-up latency (spread 0.36 over
#: ten seeds at 600 s).  A
#: single strategy keeps job costs alike, so the completion intervals
#: have one mode and their median does not jump between clusters.
STRATEGY = "immediate"
HORIZON = 1800.0
ROUND_JOBS = 160
#: Budget seconds per round: a 15 s budget gives four rounds.  On a
#: 2-vCPU x86-64 host a round took 2.5-4.6 s, worker start included, at
#: the commit that introduced this benchmark, and the serial check
#: costs about as much again.
ROUND_S = 3.75
TAIL_Q = 90.0


def grid(seed: int, k: int) -> list:
    from repro.sim.parallel import JobSpec, ScenarioSpec, StrategySpec

    base = (seed * 1009 + k) * 100_000
    return [
        JobSpec(
            StrategySpec.make(STRATEGY),
            ScenarioSpec(seed=base + i, horizon=HORIZON),
            tag=f"job{i}",
        )
        for i in range(ROUND_JOBS)
    ]


def one_round(seed: int, k: int, jobs: list) -> Dict:
    """One leased run; completion times come from the public progress hook."""
    from repro.sim.dist import DistExecutor
    from repro.sim.parallel import RunJournal, run_key_of

    work = WORK / f"dist-{seed}-{k}"
    shutil.rmtree(work, ignore_errors=True)
    done: List[float] = []
    try:
        journal = RunJournal.attach(
            work / "journal.jsonl", run_key_of(j.content_hash() for j in jobs), len(jobs)
        )
        executor = DistExecutor(
            spawn_workers=1,
            cache_dir=work / "cache",
            journal=journal,
            progress=lambda _line: done.append(time.perf_counter()),
        )
        t0 = time.perf_counter()
        with journal:
            results = executor.run(jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"t0": t0, "done": done, "results": results, "stats": executor.stats}


def rounds(seed: int, seconds: Optional[float]):
    """``round(seconds / ROUND_S)`` leased rounds (at least one).

    The round count depends only on the budget, so every run of a given
    budget does the same work.
    """
    n = 1 if seconds is None else max(1, round(seconds / ROUND_S))
    return [one_round(seed, k, grid(seed, k)) for k in range(n)]


def check(out: List[Dict], outcome: Outcome) -> float:
    """Leased results must equal the serial executor's; returns serial s/job."""
    from repro.sim.parallel import ExperimentExecutor

    serial_wall = 0.0
    jobs = 0
    for k, r in enumerate(out):
        specs = [res.spec for res in r["results"]]
        t0 = time.perf_counter()
        serial = ExperimentExecutor().run(specs)
        serial_wall += time.perf_counter() - t0
        jobs += len(specs)
        for got, want in zip(r["results"], serial):
            outcome.check(
                got.summary == want.summary and got.spec == want.spec,
                f"dist round {k} {got.spec.describe()}: leased result differs from serial",
            )
        if r["stats"].retries or r["stats"].serial_fallbacks or r["stats"].worker_failures:
            outcome.fail(f"dist round {k}: {r['stats'].describe()}")
    return serial_wall / jobs


def _gaps(r: Dict) -> List[float]:
    """Seconds between successive completions of one round."""
    return [b - a for a, b in zip(r["done"], r["done"][1:])]


def run(seed: int, seconds: float) -> WorkloadResult:
    """Each figure is the median over rounds, so one disturbed round
    (a scheduling stall between the two processes) does not move it."""
    out = rounds(seed, seconds)
    rss = max(peak_rss_mib(), peak_rss_mib(resource.RUSAGE_CHILDREN))
    outcome = Outcome()
    serial_per_job = check(out, outcome)
    per_round = [[g * 1e3 for g in _gaps(r)] for r in out]
    rates = [len(g) / sum(g) * 1e3 for g in per_round]
    p50 = median([median(g) for g in per_round])
    tail = median([nearest_rank(g, TAIL_Q) for g in per_round])
    n = len(per_round[0])
    report = {
        "dist.jobs_per_s": (median(rates), "jobs/s"),
        "dist.job_p50_ms": (p50, "ms"),
        f"dist.job_p{TAIL_Q:g}_ms": (tail, "ms"),
        "dist.rounds": (len(out), "count"),
        "dist.intervals_per_round": (n, "count"),
        "dist.samples_beyond_tail_per_round": (beyond(n, TAIL_Q), "count"),
        "dist.serial_ms_per_job": (serial_per_job * 1e3, "ms"),
    }
    return WorkloadResult(
        metrics={
            "setup_s": median([r["done"][0] - r["t0"] for r in out]),
            "throughput_per_s": median(rates),
            "latency_p50_ms": p50,
            "peak_rss_mb": rss,
        },
        outcome=outcome,
        report=report,
    )


# -- traced pass ---------------------------------------------------------


def probe(seed: int, scale: int, tracer: Optional[Tracer]):
    """``scale`` leased rounds, traced when ``tracer`` is given."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            _instrument(stack, tracer)
        t0 = time.perf_counter()
        out = [one_round(seed, k, grid(seed, k)) for k in range(scale)]
        wall = time.perf_counter() - t0
    outcome = Outcome()
    serial_per_job = check(out, outcome)
    return wall, outcome, {"wall": wall, "rounds": out, "serial_per_job": serial_per_job}


def _instrument(stack, tracer: Tracer) -> None:
    import repro.sim.dist.coordinator as coordinator
    from repro.sim.dist import DistExecutor
    from repro.sim.parallel import ResultCache, RunJournal

    stack.enter_context(tracer.patch(DistExecutor, "run", "dist.run"))
    stack.enter_context(tracer.patch(coordinator, "result_hash", "dist.hash_verify"))
    stack.enter_context(tracer.patch(RunJournal, "record", "parallel.journal_record"))
    stack.enter_context(tracer.patch(ResultCache, "put", "parallel.cache_put"))


def layer_metrics(tracer: Tracer, ctx: Dict) -> Dict[str, float]:
    out = ctx["rounds"]
    gaps = [g for r in out for g in _gaps(r)]
    jobs = sum(len(r["results"]) for r in out)
    per_job = lambda name: tracer.total(name) / jobs * 1e6  # noqa: E731
    return {
        "dist.overhead_ms_per_job": (sum(gaps) / len(gaps) - ctx["serial_per_job"]) * 1e3,
        "dist.worker_start_s": median([r["done"][0] - r["t0"] for r in out]) - ctx["serial_per_job"],
        "dist.hash_verify_us_per_job": per_job("dist.hash_verify"),
        "dist.journal_us_per_job": per_job("parallel.journal_record"),
        "dist.cache_put_us_per_job": per_job("parallel.cache_put"),
    }
