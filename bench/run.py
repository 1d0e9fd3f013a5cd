"""wordsums benchmark: four closed-loop workloads, one client, one thread.

    python3 bench/run.py --workload profile-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  Each
run sets up the workload (import, seeded inputs, warm prefixes), then
repeats passes over the workload's op mix, each op issued only after the
previous one returned, until --seconds have gone by and at least 100 ops
were issued.  A correctness gate then checks every op's result outside
the timed phase.  The last stdout line is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  A traced run
repeats the timed passes with spans on, makes the extra per-layer calls
and writes its spans to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Tracer, run_pass
from words import FAMILY_SPAN

WORKLOADS = {
    "profile-mix": "profile_mix",
    "surgery-stream": "surgery_stream",
    "power-scan": "power_scan",
    "cli-cold": "cli_cold",
}
MODULES = ("core", "generators", "morphisms", "complexity", "slopes", "powers", "cli")
MIN_OPS = 100
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


def _timed_phase(wl, p, state, seed, tracer, seconds=None, passes=None):
    """Passes until the time and op floors are met, or exactly `passes`.

    Returns each pass's outcomes, CPU time (the sum of its op latencies)
    and host factor, from kernel runs made among its ops and after it.
    """
    rng = random.Random(f"order-{seed}")
    outcomes, walls, factors, t0 = [], [], [], time.perf_counter()
    while True:
        kernel: list[float] = []
        ops = harness.probed(wl.pass_ops(p, state, rng, tracer), kernel)
        got = run_pass(ops, tracer, len(outcomes) + 1)
        kernel.append(harness.kernel_seconds())
        outcomes.append(got)
        walls.append(sum(o.latency for o in got))
        factors.append(harness.host_factor(kernel))
        if passes is not None:
            if len(walls) == passes:
                break
        elif time.perf_counter() - t0 >= seconds and sum(map(len, outcomes)) >= MIN_OPS:
            break
    return outcomes, walls, factors


def _setup(wl, p, reps):
    times, state = [], None
    for _ in range(reps):
        state = None
        gc.collect()
        t_import = harness.import_seconds()
        t0 = time.thread_time()
        state = wl.setup(p, Tracer(False))
        t = t_import + time.thread_time() - t0
        kernel = [harness.kernel_seconds() for _ in range(3)]
        times.append((t, t * harness.host_factor(kernel)))
    return state, times


def _gate(wl, p, state, passes):
    """Check every outcome; returns failures per module and the reasons."""
    failed = dict.fromkeys(MODULES, 0)
    reasons = []
    for outcomes in passes:
        for o in outcomes:
            why = o.error or wl.verify(p, state, o.meta, o.digest)
            if why:
                failed[o.module] += 1
                reasons.append(f"{o.key}: {why}")
    return failed, reasons


def _counts(wl, p, phases):
    """Per-pass exact counts; every pass of every phase must agree."""
    seen = [wl.counts(p, outcomes) for phase in phases for outcomes in phase]
    bad = [c for c in seen[1:] if c != seen[0]]
    return seen[0], bad


def _span_totals(spans):
    selfs = harness.self_times(spans)
    tot, own = {}, {}
    for s, st in zip(spans, selfs):
        name = s.name
        if name == "core.prefix_sums":
            parent = spans[s.parent].name if s.parent >= 0 else ""
            name += ".cold" if parent in FAMILY_SPAN.values() else ".warm"
        tot[name] = tot.get(name, 0.0) + (s.end - s.start)
        own[name] = own.get(name, 0.0) + st
    return tot, own


def _layer_metrics(wl, p, setup_spans, phase_spans, n_passes, extra_spans, counts, failed, overhead):
    S, _ = _span_totals(setup_spans)
    T, _ = _span_totals(phase_spans)
    X, _ = _span_totals(extra_spans)

    def per_pass(name):  # set-up once plus the traced passes, per pass
        return S.get(name, 0.0) + T.get(name, 0.0) / n_passes

    m = {}
    mat = per_pass("core.prefix_sums.cold")
    base = wl.setup_counts(p)
    symbols = base.get("core.symbols_materialized", 0) + counts.get("core.symbols_materialized", 0)
    m["core.materialize_s"] = mat
    m["core.symbols_materialized"] = symbols
    m["core.symbols_per_s"] = symbols / mat if mat else 0.0
    m["core.bytes_held"] = max(base.get("core.bytes_held", 0), counts.get("core.bytes_held", 0))
    m["core.read_s"] = per_pass("core.prefix_sums.warm") + per_pass("core.prefix")
    for span in FAMILY_SPAN.values():
        m[span + "_s"] = per_pass(span)
    m["complexity.window_sums_s"] = X.get("complexity.window_sums", 0.0)
    m["complexity.distinct_1d_s"] = X.get("complexity.additive_complexity", 0.0) - m["complexity.window_sums_s"]
    m["complexity.window_images_s"] = X.get("complexity.window_images", 0.0)
    m["complexity.distinct_rows_s"] = X.get("complexity.lattice_complexity", 0.0) - m["complexity.window_images_s"]
    m["complexity.diameter_s"] = X.get("complexity.lattice_spread", 0.0) - X.get("complexity.lattice_complexity", 0.0)
    m["complexity.profile_s"] = per_pass("complexity.profile")
    m["complexity.intersect_s"] = X.get("complexity.factor_set_intersection", 0.0)
    for key in ("windows_scanned", "distinct_images", "distinct_ratio", "window_bytes"):
        m["complexity." + key] = counts.get("complexity." + key, 0)
    for fn in ("slope_estimate", "deviation_constant", "chi_factorization", "greedy_slope_cuts"):
        m[f"slopes.{fn}_s"] = per_pass("slopes." + fn)
    m["powers.additive_scan_s"] = per_pass("powers.find_additive_kpower")
    m["powers.mu_scan_s"] = per_pass("powers.find_kpower_mod_mu")
    m["powers.anchored_scan_s"] = per_pass("powers.find_anchored_power")
    m["powers.verify_s"] = per_pass("powers.verify_power")
    cells = counts.get("powers.cells_scanned", 0)
    scan = m["powers.additive_scan_s"] + m["powers.mu_scan_s"] + m["powers.anchored_scan_s"]
    m["powers.cells_scanned"] = cells
    m["powers.cells_per_s"] = cells / scan if scan else 0.0
    m["powers.found_ratio"] = counts.get("powers.found_ratio", 0.0)
    # per command: bare interpreter, interpreter plus imports, whole command
    interp, imports = X.get("cli.interpreter", 0.0), X.get("cli.import", 0.0)
    m["cli.interpreter_s"] = interp
    m["cli.import_s"] = imports - interp
    m["cli.command_s"] = X.get("cli.command", 0.0) - imports
    m["cli.main_s"] = X.get("cli.main", 0.0)
    m["cli.parse_spec_s"] = X.get("cli.parse_spec", 0.0)
    for mod in MODULES:
        m[mod + ".failed"] = failed[mod]
    m["trace.overhead_s"] = overhead
    return m


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("bytes_held") or name.endswith("window_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def _dump_trace(name, seed, env, groups):
    OUT_DIR.mkdir(exist_ok=True)
    rows = []
    for phase, spans in groups:
        for s, st in zip(spans, harness.self_times(spans)):
            rows.append({"phase": phase, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "op": s.op, "self": st})
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"env": env, "spans": rows}))
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = importlib.import_module(WORKLOADS[name])
    env = {**harness.environment(seed), "pinned_cpu": harness.pin_to_one_cpu()}
    print(f"env {json.dumps(env)}")
    p = wl.plan(seed)
    # first call allocates the kernel's inputs, before set-up fills the heap
    harness.kernel_seconds()
    if trace:
        setup_tr = Tracer(True)
        state = wl.setup(p, setup_tr)
        setup_times = []
    else:
        state, setup_times = _setup(wl, p, wl.SETUP_REPS)
    plain, walls, factors = _timed_phase(wl, p, state, seed, Tracer(False), seconds=seconds)
    peak = harness.peak_rss_mb(wl.CHILD_RSS)
    lat = [o.latency for outcomes in plain for o in outcomes]
    lat_ref = [o.latency * f for outcomes, f in zip(plain, factors) for o in outcomes]
    phases = [plain]
    if trace:
        phase_tr, extra_tr = Tracer(True), Tracer(True)
        traced, traced_walls, traced_factors = _timed_phase(wl, p, state, seed, phase_tr,
                                                            passes=len(walls))
        wl.extras(p, state, extra_tr)
        phases.append(traced)
    failed, reasons = _gate(wl, p, state, [o for phase in phases for o in phase])
    counts, count_drift = _counts(wl, p, phases)
    attempted = sum(len(o) for phase in phases for o in phase)
    n_failed = sum(failed.values())
    correct = n_failed == 0 and not count_drift
    for r in reasons[:20]:
        print(f"FAILED {r}")
    if count_drift:
        print(f"FAILED counts differ between passes: {counts} vs {count_drift[0]}")

    print(f"workload {name} seed={seed} passes={len(walls)} ops={len(lat)} "
          f"ops_per_pass={len(plain[0])} trace={int(trace)}")
    if trace:
        # both at reference speed, as wall_s is
        overhead = (statistics.median(w * f for w, f in zip(traced_walls, traced_factors))
                    - statistics.median(w * f for w, f in zip(walls, factors)))
        metrics = _layer_metrics(wl, p, setup_tr.spans, phase_tr.spans, len(walls),
                                 extra_tr.spans, counts, failed, overhead)
        path = _dump_trace(name, seed, env, [("setup", setup_tr.spans),
                                             ("timed", phase_tr.spans), ("extra", extra_tr.spans)])
        tot, own = _span_totals(phase_tr.spans)
        for span in sorted(tot):
            print(f"span {name} {span:40s} total {tot[span] / len(walls):10.6f} s/pass  "
                  f"self {own[span] / len(walls):10.6f} s/pass")
        for key, val in metrics.items():
            print(f"layer {name} {key:32s} {val:.6g} {_unit(key)}")
        print(f"spans written to {path.relative_to(harness.ROOT)}")
        units = {k: _unit(k) for k in metrics}
    else:
        # Times at the reference host's speed (see harness.host_factor); the
        # raw CPU times are printed next to them.
        def times(setup, passes, latencies):
            p50, p90 = harness.p50_p90(latencies)
            return {"setup_s": statistics.median(setup), "wall_s": statistics.median(passes),
                    "op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3, "peak_rss_mb": peak}

        raw = times([t for t, _ in setup_times], walls, lat)
        metrics = times([r for _, r in setup_times], [w * f for w, f in zip(walls, factors)],
                        lat_ref)
        samples = {"setup_s": len(setup_times), "wall_s": len(walls),
                   "op_p50_ms": len(lat), "op_p90_ms": len(lat), "peak_rss_mb": 1}
        units = dict(END_TO_END)
        for key, val in metrics.items():
            print(f"metric {name} {key:16s} {val:12.4f} {units[key]:5s} (n={samples[key]})  "
                  f"raw {raw[key]:.4f}")
        print(f"metric {name} {'host_factor':16s} {statistics.median(factors):12.4f} ratio "
              f"(n={len(factors)})")
        print(f"metric {name} {'ops_failed_frac':16s} {n_failed / attempted:12.4f} ratio "
              f"(n={attempted})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=harness.ROOT,
                             env=harness.child_env(), timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # numpy loads lazily, with the first workload call, so this still pins it
    for var in harness.THREAD_VARS:
        os.environ[var] = "1"
    if not (harness.SRC / "wordsums" / "__init__.py").is_file():
        print(f"error: no wordsums package under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
