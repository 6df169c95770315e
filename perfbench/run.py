"""The repo benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload with tracing off and reports every
``end_to_end`` metric of ``BENCHMARK.json``.  ``--trace 1`` is the
separate traced run: it times the calls into each layer's public
functions on the named workload (untraced and traced, for
``trace.overhead_pct``) and on a short pass of every other workload, so
every ``per_layer`` metric is reported whichever workload is named.

People read stderr and the ``#`` lines of stdout; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with provenance, is also written to
``.bench_work/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _load_program():
    """Put ``src`` on the path; fail clearly when the program is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails here, before any measurement, if broken)


def _workloads():
    import dist
    import fleet
    import serve
    import sweep

    return {"sweep_grid": sweep, "fleet_mix": fleet, "serve_stream": serve, "dist_lease": dist}


#: Passes of the named workload in the traced run; the others run one.
TRACE_SCALE = 3


def traced(name: str, modules, seed: int):
    from common import Outcome, WORK, log
    from tracing import Tracer

    metrics = {}
    outcome = Outcome()
    report = {}
    for other, module in modules.items():
        scale = TRACE_SCALE if other == name else 1
        if other == name:
            untraced_wall, o, _ = module.probe(seed, scale, None)
            outcome.merge(o)
        tracer = Tracer()
        wall, o, ctx = module.probe(seed, scale, tracer)
        outcome.merge(o)
        layer = module.layer_metrics(tracer, ctx)
        metrics.update(layer)
        tracer.dump(WORK / f"spans-{name}-{other}-seed{seed}.json")
        if other == name:
            metrics["trace.overhead_pct"] = (wall - untraced_wall) / untraced_wall * 100.0
            report["trace.untraced_wall_s"] = (untraced_wall, "s")
            report["trace.traced_wall_s"] = (wall, "s")
            for span_name, self_s in sorted(tracer.self_by_name().items(), key=lambda kv: -kv[1]):
                report[f"self.{span_name}_pct"] = (self_s / wall * 100.0, "%")
        log(f"benchmark: traced {other} in {wall:.2f}s")
    return metrics, outcome, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from common import WORK, complete_metrics, load_benchmark, log, provenance

    spec = load_benchmark(ROOT / "BENCHMARK.json")
    modules = _workloads()
    if args.workload not in modules:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; known: {sorted(modules)}")
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    if args.trace:
        values, outcome, report = traced(args.workload, modules, args.seed)
    else:
        timed = modules[args.workload].run(args.seed, float(args.seconds))
        values, outcome, report = timed.metrics, timed.outcome, timed.report
    metrics = complete_metrics(spec, args.workload, bool(args.trace), values)

    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "run_wall_s": time.perf_counter() - started,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "failures": outcome.reasons,
    }
    for key, (value, unit) in report.items():
        print(f"# {key} = {value:.6g} {unit}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for reason in outcome.reasons:
        log(f"benchmark: FAILED {reason}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record["result"] = result
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
