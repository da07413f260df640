"""flowtile benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload tile_uniform --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` operations run back to back until their time, scaled to
nominal host speed, adds up to ``--seconds``, and the end-to-end metrics
are reported; with ``--trace 1`` a fixed number of operations runs under
the layer trace of :mod:`spans`, each followed by the same operation
untraced, and the per-layer metrics are reported.  A readable report
comes first; the last line of standard output is the JSON
result.  Workloads, metrics and the first numbers are in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("schedule", "tile_uniform", "tile_rotation", "certify")
MIN_OPS = 2                     # so a schedule run always has two samples


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label.  Below 21 samples that percentile would not lie above the
    median, so the maximum stands in for it."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100 * (n - 10) // n} of {n}, 10 beyond"


def run_ops(wl, seconds: float, count: int | None = None, tracer=None,
            first: int = 0):
    """Operations back to back from number ``first``: ``count`` of them, or
    else until their timed parts add up to ``seconds`` and at least
    ``MIN_OPS`` have run.  The timed parts are in nominal-speed time, so a
    run makes about the same number of operations however busy the host
    is, and its tail is the same order statistic; a failing operation
    counts its wall time.  Returns the timed parts of every operation that
    returned, the failure messages, the number of operations attempted and
    the number that failed."""
    samples, errors = [], []
    failed = 0
    spent = 0.0
    i = first
    while (i < first + count) if count is not None else (
            i - first < MIN_OPS or spent < seconds):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                parts, out = wl.op(i)
            else:
                with tracer.span("bench.op"):
                    parts, out = wl.op(i)
        except Exception as e:  # a failing operation is counted, not fatal
            problems = [f"{type(e).__name__}: {e}"]
            spent += time.perf_counter() - t0
        else:
            samples.append(parts)
            spent += sum(parts.values())
            if tracer is None:
                problems = wl.check(i, out)
            else:
                with tracer.excluded():
                    problems = wl.check(i, out)
        failed += bool(problems)
        errors += [f"op {i}: {p}" for p in problems]
        i += 1
    return samples, errors, i - first, failed


def measure(wl, args):
    """End-to-end metrics, untraced, in nominal-speed time."""
    setups = [wl.timed_setup(args.seed) for _ in range(wl.setup_repeats)]
    errors = [f"set-up: {p}" for p in wl.check_setup()]
    samples, op_errors, attempted, failed = run_ops(wl, args.seconds)
    errors += op_errors
    totals = [sum(s.values()) for s in samples]
    setup_s = statistics.median(setups)
    op_tail, tail_label = tail(totals)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(totals) * 1e3, "ms"),
        "op_ms_tail": (op_tail * 1e3, "ms"),
        "ops_per_s": (len(totals) / sum(totals), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # the workload's own named metrics, for the readable report
    named = {"setup_s": (setup_s, "s", f"median of {len(setups)} set-ups, "
                         f"{min(setups):.3f} to {max(setups):.3f} s")}
    for part in wl.parts:
        xs = [s[part] for s in samples]
        if part.startswith("schedule"):
            named[f"{part}_s"] = (statistics.median(xs), "s", f"median of {len(xs)}")
            continue
        p_tail, label = tail(xs)
        named[f"{part}_ms_p50"] = (statistics.median(xs) * 1e3, "ms", f"median of {len(xs)}")
        named[f"{part}_ms_tail"] = (p_tail * 1e3, "ms", label)
    if wl.parts == ("tile",):
        named["windows_per_s"] = (len(totals) / sum(totals), "1/s",
                                  "1000-point windows per second of tiling")
    named["fail_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} failed")
    q = wl.quality
    if wl.name.startswith("tile"):
        named["disp_max"] = (float(q.disp_ratio), "ratio",
                             f"of min(alpha,1)/3; exactly {q.disp_ratio}")
        if wl.name == "tile_uniform":
            named["n_eta_max"] = (q.n_eta_max, "count", "worst N(1/8)")
        named["witness_levels_min"] = (q.levels_min, "count", "")
    if wl.name == "certify":
        named["loe_residue"] = (q.residue, "count", "residue gaps over all maps")
    named["peak_rss_mb"] = (rss, "MB", "")
    named["op_ms_p50"] = (metrics["op_ms_p50"][0], "ms", f"whole operation; n={len(totals)}")
    named["op_ms_tail"] = (op_tail * 1e3, "ms", tail_label)
    named["host_speed"] = (statistics.median(wl.clock.factors), "x",
                           "median nominal/measured speed; times above are scaled by it")
    return metrics, named, attempted, failed, errors


# Spans the set-up and the operations of each workload must exercise: the
# self-check of the trace.
TILING = ["tiles.enumerate_tileable", "windows.chain_classes",
          "pipeline.build_rank_blocks", "pipeline.classify_section",
          "pipeline.sparse_tile", "pipeline.attach_witnesses"]
EXPECTED_IN_OPS = {
    "schedule": ["tiles.values_in", "tiles.eps_dense",
                 "tiles.enumerate_tileable", "tiles.density_witness"],
    "tile_uniform": TILING + ["pipeline.verify_uniform_frequency",
                              "pipeline.replay"],
    "tile_rotation": TILING,
    "certify": ["pipeline.verify_uniform_frequency", "pipeline.replay",
                "pipeline.from_json", "loe.match_equidense", "loe.build_loe",
                "loe.verify_loe", "cli.verify"],
}
EXPECTED_IN_SETUP = {
    "schedule": [],
    "tile_uniform": ["tiles.values_in", "tiles.eps_dense", "generators.generate"],
    "tile_rotation": ["tiles.values_in", "tiles.eps_dense", "generators.generate"],
    "certify": ["tiles.values_in", "tiles.eps_dense", "generators.generate",
                "pipeline.to_json"],
}
# Spans reported from the set-up trace too, as setup.<span>.  Generating
# windows and writing sections happen in set-ups only, so these two have
# no operation figures.
SETUP_SPANS = ("tiles.values_in", "tiles.eps_dense", "generators.generate",
               "pipeline.to_json")
SETUP_ONLY = ("generators.generate", "pipeline.to_json")


def measure_traced(wl, args):
    """Per-layer metrics of ``wl.trace_ops`` traced operations, and of the
    set-up under a trace of its own.  Each operation is repeated untraced
    right after, at the same host speed, for the tracing overhead."""
    import spans

    setup = spans.Tracer()
    setup.install()
    try:
        with setup.span("bench.setup"):
            wl.setup(args.seed)
        with setup.excluded():
            errors = [f"set-up: {p}" for p in wl.check_setup()]
    finally:
        setup.uninstall()
    tracer = spans.Tracer()
    traced, plain = [], []
    attempted = failed = 0
    for i in range(wl.trace_ops):
        tracer.install()
        try:
            samples, op_errors, n, bad = run_ops(wl, 0, 1, tracer, first=i)
        finally:
            tracer.uninstall()
        traced += samples
        errors += op_errors
        attempted += n
        failed += bad
        plain += run_ops(wl, 0, 1, first=i)[0]
    errors += [f"trace: span {s} never fired in an operation"
               for s in EXPECTED_IN_OPS[wl.name] if not tracer.calls(s)]
    errors += [f"trace: span {s} never fired in the set-up"
               for s in EXPECTED_IN_SETUP[wl.name] if not setup.calls(s)]
    traced_s = sum(sum(s.values()) for s in traced)
    plain_s = sum(sum(s.values()) for s in plain)
    metrics = {}
    for name, _, _ in spans.SPANS:
        if name not in SETUP_ONLY:
            metrics[f"{name}.calls"] = (tracer.calls(name), "count")
            metrics[f"{name}.self_ms"] = (tracer.self_ms(name), "ms")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.calls"] = (setup.calls(name), "count")
        metrics[f"setup.{name}.self_ms"] = (setup.self_ms(name), "ms")
    for name in spans.OUTPUTS.values():
        metrics[name[0]] = (tracer.count(name[0]), "count")
    misses = metrics.pop("tiles.eps_dense.misses")[0]
    calls = tracer.calls("tiles.eps_dense")
    metrics["tiles.eps_dense.miss_ratio"] = (misses / calls if calls else 0.0, "ratio")
    for name in (*spans.QUAD_OPS, spans.PARSE):
        metrics[name] = (tracer.count(name), "count")
    q = wl.quality
    metrics.update({
        "pipeline.disp_max": (float(q.disp_ratio or 0), "ratio"),
        "pipeline.n_eta_max": (q.n_eta_max or 0, "count"),
        "pipeline.witness_levels_min": (q.levels_min or 0, "count"),
        "bench.uncovered_ms": (tracer.self_ms("bench.op"), "ms"),
        "bench.trace_overhead_ms": ((traced_s - plain_s) * 1e3, "ms"),
        "bench.trace_overhead_pct": (100 * (traced_s - plain_s) / plain_s, "%"),
    })
    print(f"== {wl.name}: layers in {len(traced)} traced operations, "
          f"and in the set-up")
    print(f"  {'span':<36} {'calls':>8} {'self ms':>10} {'set-up calls':>13} "
          f"{'set-up ms':>10}")
    for span in sorted(set(tracer.stats) | set(setup.stats)):
        print(f"  {span:<36} {tracer.calls(span):>8} {tracer.self_ms(span):>10.1f} "
              f"{setup.calls(span):>13} {setup.self_ms(span):>10.1f}")
    return metrics, attempted, failed, errors


def print_report(rows: dict):
    for key, (value, unit, *note) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<36} {shown:>12} {unit:<6} {' '.join(note)}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    worst = 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "flowtile" / "__init__.py").is_file():
        print(f"bench: no flowtile package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from clock import Clock
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        # the traced run reports plain wall times: calibration would be
        # charged to the spans it interrupts
        wl = WORKLOADS[args.workload](Path(tmp), Clock(calibrate=not args.trace))
        if args.trace:
            metrics, attempted, failed, errors = measure_traced(wl, args)
            print_report({k: v for k, v in metrics.items()
                          if not k.endswith((".calls", ".self_ms"))})
        else:
            metrics, named, attempted, failed, errors = measure(wl, args)
            print(f"== {wl.name}: end-to-end, seed {args.seed}")
            print_report(named)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}")
    for e in errors[:20]:
        print(f"FAIL {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
