"""``fleet_mix``: ``run_fleet`` in-process over 2 h, four kernel kinds.

One round runs four populations at the CLI's default chunk size:
eTrain (the stateful slot-loop kernel), immediate (loop-free), PerES
(the estimator kernel) and lazy_circuit, which has no kernel and goes
through the per-device scalar fallback.  Synthesis, the kernels,
accounting and aggregation do the work; the populations are large
enough that peak RSS matters.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Optional

from common import Outcome, RssSampler, WorkloadResult, median, nearest_rank, peak_rss_mib
from tracing import Tracer

HORIZON = 7200.0
CHUNK_SIZE = 8192
#: (strategy, devices) per round.  eTrain and PerES cost mostly a fixed
#: slot loop, so their populations set memory more than time.
MIX = (("etrain", 1024), ("immediate", 1024), ("peres", 128), ("lazy_circuit", 32))
VECTOR_KINDS = ("etrain", "immediate", "peres")
#: Wall time of one round on a 2-vCPU x86-64 host at the commit that
#: introduced this benchmark.
ROUND_S = 7.5
#: Set-ups per run; the median is reported.
SETUPS = 5
#: Devices per kind re-simulated by the scalar reference.
SAMPLE = 2
#: The conformance harness's fleet-vs-scalar tolerance.
RTOL = 1e-6


def _spec(strategy: str, devices: int, seed: int, horizon: float = HORIZON):
    from repro.sim.fleet import FleetSpec

    return FleetSpec.make(devices, strategy, seed=seed, horizon=horizon, chunk_size=CHUNK_SIZE)


def _run(spec):
    from repro.sim.fleet import run_fleet

    # The channel table is built in-process rather than published to
    # shared memory: the run is serial, and the benchmark writes only
    # inside its checkout.
    return run_fleet(spec, share_channel=False)


def setup_once(seed: int) -> float:
    """Warm every kernel kind on a small, short population."""
    t0 = time.perf_counter()
    for strategy, _ in MIX:
        _run(_spec(strategy, 4, seed, horizon=600.0))
    return time.perf_counter() - t0


def rounds(seed: int, seconds: Optional[float]):
    """Run the mix ``round(seconds / ROUND_S)`` times (at least once).

    The round count depends only on the budget, so every run of a given
    budget does the same work.
    """
    n = 1 if seconds is None else max(1, round(seconds / ROUND_S))
    calls = []
    t0 = time.perf_counter()
    for k in range(n):
        for strategy, devices in MIX:
            c0 = time.perf_counter()
            result = _run(_spec(strategy, devices, seed * 1009 + k))
            calls.append((strategy, devices, time.perf_counter() - c0, result))
    return calls, time.perf_counter() - t0


def check(calls, outcome: Outcome) -> None:
    """Whole-population invariants, plus sampled devices against the scalar reference."""
    from repro.sim.fleet import FleetChunkSummary, simulate_reference_chunk, synthesize_fleet
    from repro.sim.fleet.spec import FleetChunkSpec
    from repro.radio.power_model import GALAXY_S4_3G

    for strategy, devices, _, result in calls:
        spec = result.spec
        workload = synthesize_fleet(devices, spec.horizon, spec.seed, profiles=spec.profiles())
        arrivals = sum(int(a.size) for a in workload.arrivals)
        outcome.check(
            result.summary.devices == devices and result.summary.packets == arrivals,
            f"fleet {strategy} seed={spec.seed}: {result.summary.devices} devices / "
            f"{result.summary.packets} packets, expected {devices} / {arrivals}",
        )
        if not result.vectorized == (strategy in VECTOR_KINDS):
            outcome.fail(f"fleet {strategy}: vectorized={result.vectorized}")
        offset = (spec.seed * 7919) % (devices - SAMPLE + 1)
        chunk = FleetChunkSpec(
            strategy=strategy,
            seed=spec.seed,
            horizon=spec.horizon,
            n_devices=SAMPLE,
            device_offset=offset,
        )
        fast = FleetChunkSummary.from_dict(chunk.run_in_worker())
        sample = synthesize_fleet(
            SAMPLE, spec.horizon, spec.seed, device_offset=offset, profiles=spec.profiles()
        )
        ref = simulate_reference_chunk(
            sample,
            spec.bandwidth_model(),
            strategy=strategy,
            power_model=GALAXY_S4_3G,
            profiles=spec.profiles(),
        )
        problem = mismatch(fast, ref)
        outcome.check(problem is None, f"fleet {strategy} devices [{offset}, +{SAMPLE}): {problem}")


def mismatch(fleet, scalar) -> Optional[str]:
    """How two summaries differ beyond the harness tolerance, or None."""
    for attr in ("devices", "packets", "bursts", "heartbeats", "piggyback_hits", "violations"):
        if getattr(fleet, attr) != getattr(scalar, attr):
            return f"{attr}: {getattr(fleet, attr)} != {getattr(scalar, attr)}"
    for attr in ("delay_sum", "delay_cost_sum", "energy_total_j", "energy_tail_j", "energy_tx_j"):
        a, b = getattr(fleet, attr), getattr(scalar, attr)
        if abs(a - b) > RTOL * max(abs(a), abs(b), 1.0):
            return f"{attr}: {a!r} vs {b!r}"
    if list(fleet.energy_hist) != list(scalar.energy_hist):
        return "energy histogram differs"
    if list(fleet.delay_hist) != list(scalar.delay_hist):
        return "delay histogram differs"
    return None


def run(seed: int, seconds: float) -> WorkloadResult:
    setups = [setup_once(seed) for _ in range(SETUPS)]
    calls, wall = rounds(seed, seconds)
    rss = peak_rss_mib()
    outcome = Outcome()
    check(calls, outcome)
    device_hours = sum(devices * HORIZON / 3600.0 for _, devices, _, _ in calls)
    walls_ms = [w * 1000.0 for _, _, w, _ in calls]
    report = {
        "fleet.device_hours_per_s": (device_hours / wall, "device-h/s"),
        "fleet.peak_rss_mb": (rss, "MiB"),
        "fleet.calls": (len(calls), "count"),
        "fleet.slowest_call_ms": (max(walls_ms), "ms"),
    }
    for strategy, devices in MIX:
        spent = sum(w for s, _, w, _ in calls if s == strategy)
        n = sum(d for s, d, _, _ in calls if s == strategy)
        report[f"fleet.{strategy}.devices_per_s"] = (n / spent, "devices/s")
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "throughput_per_s": device_hours / wall,
            "latency_p50_ms": nearest_rank(walls_ms, 50.0),
            "peak_rss_mb": rss,
        },
        outcome=outcome,
        report=report,
    )


# -- traced pass ---------------------------------------------------------


def probe(seed: int, scale: int, tracer: Optional[Tracer]):
    """One round of the mix, traced when ``tracer`` is given."""
    setup_once(seed)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            _instrument(stack, tracer)
        t0 = time.perf_counter()
        calls, _ = rounds(seed, None)
        wall = time.perf_counter() - t0
    outcome = Outcome()
    check(calls, outcome)
    return wall, outcome, {"wall": wall}


def _instrument(stack, tracer: Tracer) -> None:
    import repro.sim.fleet.accounting as accounting
    import repro.sim.fleet.engine as engine
    import repro.sim.fleet.reference as reference
    import repro.sim.fleet.workload as workload
    from repro.sim.fleet import ChannelTable, FleetChunkSummary

    def kernel_enter(span, args, kwargs):
        span.attrs["rss"] = RssSampler().start()

    def kernel_exit(span, args, kwargs, result):
        span.attrs["peak_alloc_mb"] = span.attrs.pop("rss").stop()
        wl = args[0]
        span.attrs.update(strategy=kwargs.get("strategy", "etrain"), device_slots=wl.n_devices * wl.horizon)

    def synth_exit(span, args, kwargs, result):
        span.attrs["devices"] = result.n_devices

    def fallback_exit(span, args, kwargs, result):
        wl = args[0]
        span.attrs["device_slots"] = wl.n_devices * wl.horizon

    stack.enter_context(tracer.patch(workload, "synthesize_fleet", "fleet.synthesize", on_exit=synth_exit))
    stack.enter_context(tracer.patch(ChannelTable, "from_model", "fleet.channel"))
    stack.enter_context(
        tracer.patch(
            engine,
            "simulate_fleet_chunk",
            "fleet.kernel",
            on_enter=kernel_enter,
            on_exit=kernel_exit,
        )
    )
    stack.enter_context(tracer.patch(accounting, "summarize_chunk", "fleet.accounting"))
    stack.enter_context(tracer.patch(FleetChunkSummary, "merge_all", "fleet.aggregate"))
    stack.enter_context(
        tracer.patch(reference, "simulate_reference_chunk", "fleet.fallback", on_exit=fallback_exit)
    )


def layer_metrics(tracer: Tracer, ctx: Dict) -> Dict[str, float]:
    synth = tracer.by_name("fleet.synthesize")
    out = {
        "fleet.synth_ms_per_kdev": tracer.total("fleet.synthesize")
        / sum(s.attrs["devices"] for s in synth)
        * 1e6,
        "fleet.channel_ms": tracer.total("fleet.channel") / len(tracer.by_name("fleet.channel")) * 1e3,
        "fleet.accounting_ms": tracer.total("fleet.accounting")
        / len(tracer.by_name("fleet.accounting"))
        * 1e3,
        "fleet.aggregate_ms": tracer.total("fleet.aggregate") / len(tracer.by_name("fleet.aggregate")) * 1e3,
    }
    kernels = tracer.by_name("fleet.kernel")
    for kind in VECTOR_KINDS:
        spans = [s for s in kernels if s.attrs["strategy"] == kind]
        slots = sum(s.attrs["device_slots"] for s in spans)
        out[f"fleet.{kind}.ns_per_device_slot"] = sum(s.duration for s in spans) / slots * 1e9
        out[f"fleet.{kind}.peak_alloc_mb"] = max(s.attrs["peak_alloc_mb"] for s in spans)
    fallback = tracer.by_name("fleet.fallback")
    out["fleet.fallback.us_per_device_slot"] = (
        tracer.total("fleet.fallback") / sum(s.attrs["device_slots"] for s in fallback) * 1e6
    )
    return out
