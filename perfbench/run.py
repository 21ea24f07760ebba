"""riplab benchmark: one named workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (rationale in workloads.py): uup-mc, rip-exact-cli, recon-l1,
certify-nets.  The default seed of each is the seed of the acceptance
criterion it reproduces.

Set-up time is the median over SETUP_PROBES fresh processes of interpreter
start, ``import riplab`` and building the operation list.  A separate
worker process then runs timed rounds for ``--seconds`` (worker.py).  Its
outputs are checked here against references (reference.py), outside the
timed region.  The report prints the environment, the end-to-end metrics
and, with ``--trace 1``, the per-layer metrics of a traced run; the last
stdout line is JSON: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 done (the JSON says whether outputs were correct), 2 the
checkout has no riplab sources, 3 a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 11
BLAS_THREADS = 1           # worker threads x BLAS threads stays within the cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150
MAX_LISTED = 12            # failed operations listed in the report

# Printed in every report; only these go into the result line and are
# bounded in BENCHMARK.json.  Per-op percentiles and fail_frac are printed
# but unbounded: their seed-to-seed spread on recon-l1 and certify-nets
# comes from the stall-limited l1 solver and greedy nets, and fail_frac is
# often 0.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

# per-layer metric -> (unit, key in the worker's layer totals)
PER_LAYER = {
    "spectral.rip_monte_carlo_s": ("s", "spectral.rip_monte_carlo_s"),
    "spectral.mc_supports": ("count", "spectral.mc_supports"),
    "spectral.rip_exact_s": ("s", "spectral.rip_exact_s"),
    "spectral.exact_supports": ("count", "spectral.exact_supports"),
    "spectral.gram_extremal_eigs_calls": ("count", "spectral.gram_extremal_eigs.calls"),
    "recon.l1_minimize_s": ("s", "recon.l1_minimize_s"),
    "recon.l1_solves": ("count", "recon.l1_solves"),
    "recon.l1_iterations": ("count", "recon.l1_iterations"),
    "recon.l1_capped": ("count", "recon.l1_capped"),
    "recon.l1_gap_max": ("ratio", "recon.l1_gap_max"),
    "recon.kernel_diameter_lower_s": ("s", "recon.kernel_diameter_lower_s"),
    "recon.kernel_diameter_upper_s": ("s", "recon.kernel_diameter_upper_s"),
    "recon.cert_attempts": ("count", "recon.kernel_diameter_upper.calls"),
    "recon.cert_certified": ("count", "recon.cert_certified"),
    "recon.cert_budget_errors": ("count", "recon.kernel_diameter_upper.raised.BudgetError"),
    "nets.greedy_separated_net_s": ("s", "nets.greedy_separated_net_s"),
    "nets.net_points": ("count", "nets.net_points"),
    "nets.sparse_set_net_s": ("s", "nets.sparse_set_net_s"),
    "nets.cover_check_s": ("s", "nets.cover_check_s"),
    "nets.probes": ("count", "nets.probes"),
    "nets.hull_decompose_s": ("s", "nets.hull_decompose_s"),
    "geometry.sample_ambient_batch_s": ("s", "geometry.sample_ambient_batch_s"),
    "geometry.samples": ("count", "geometry.samples"),
    "geometry.member_s": ("s", "geometry.member_s"),
    "concentration.tail_profile_s": ("s", "concentration.tail_profile_s"),
    "ensembles.sample_matrix_chunk_s": ("s", "ensembles.sample_matrix_chunk_s"),
    "ensembles.cells": ("count", "ensembles.cells"),
    "ensembles.generate_s": ("s", "ensembles.generate_s"),
    "ensembles.rows": ("count", "ensembles.rows"),
    "cli.main_s": ("s", "cli.main_s"),
    "cli.self_s": ("s", "cli.main.self_s"),
    "util.parallel_map_s": ("s", "util.parallel_map_s"),
    "util.thread_speedup": ("ratio", "util.thread_speedup"),
    "trace.overhead_frac": ("ratio", "trace.overhead_frac"),
    "trace.spans": ("count", "trace.spans"),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def _worker_cmd(args) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]


def setup_seconds(args, env) -> float:
    """Start a worker that only sets up, and time it until it says "ready"."""
    start = perf_counter()
    with subprocess.Popen(_worker_cmd(args) + ["--setup-only"], stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def run_worker(args, env) -> dict:
    cmd = _worker_cmd(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten operations beyond it.

    With ten or fewer operations no such percentile exists and the maximum
    is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops"


def _median_rounds(rounds, mode, threads):
    walls = [r["wall"] for r in rounds if r["mode"] == mode and r["threads"] == threads]
    return statistics.median(walls) if walls else None


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "riplab" / "__init__.py").is_file():
        print(f"error: no riplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    env = _env()
    os.environ.update({var: env[var] for var in BLAS_VARS})
    import reference
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance criterion's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    try:
        setups = [setup_seconds(args, env) for _ in range(SETUP_PROBES)]
        result = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    ops = workload.build(args.seed)
    verdicts, ref_layers = reference.check(args.workload, ops, result["summaries"])
    problems = []
    for i, (op, err, verdict) in enumerate(zip(ops, result["errors"], verdicts)):
        label = " ".join(f"{k}={v}" for k, v in op.items()
                         if k in ("kind", "seed", "k", "p", "dim", "eps", "net"))
        if err is not None:     # riplab's own errors are outcomes, others are bugs
            problems.append((i, "failed" if err["riplab"] else "wrong",
                             f"op {i} ({label}) raised {err['text']}"))
        elif verdict is not None:
            problems.append((i, verdict[0], f"op {i} ({label}): {verdict[1]}"))
        if i in result["mismatched"]:
            problems.append((i, "wrong", f"op {i} ({label}): output differs between rounds"))
    failed_ops = {i for i, _, _ in problems}
    correct = all(kind != "wrong" for _, kind, _ in problems)

    plain = [r for r in result["rounds"]
             if r["mode"] == "plain" and r["threads"] == workload.threads]
    walls = [r["wall"] for r in plain]
    per_op = [statistics.median(lat) for lat in zip(*(r["latency"] for r in plain))]
    tail, tail_label = tail_latency(per_op)
    report = [
        ("wall_s", statistics.median(walls), "s",
         f"median of {len(walls)} rounds: " + " ".join(f"{w:.3f}" for w in walls)),
        ("op_p50_s", statistics.median(per_op), "s", f"of {len(ops)} ops"),
        ("op_tail_s", tail, "s", tail_label),
        ("setup_s", statistics.median(setups), "s", f"median of {SETUP_PROBES} processes"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
        ("fail_frac", len(failed_ops) / len(ops), "ratio",
         f"{len(failed_ops)} of {len(ops)} ops raised or missed their reference"),
    ]

    print(f"workload {args.workload} (seed {args.seed}): {workload.why}")
    print("environment: " + json.dumps({
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start, "platform": platform.platform(),
        **result["env"]}))
    print(f"{len(walls)} rounds at {workload.threads} worker thread(s), {len(ops)} ops "
          "per round; an op's latency is its median over the rounds")
    for name, value, unit, note in report:
        print(f"  {name:<13} {value:12.6g} {unit:<5} {note}")
    for _, _, text in problems[:MAX_LISTED]:
        print(f"  failed: {text}")
    if len(problems) > MAX_LISTED:
        print(f"  failed: ... and {len(problems) - MAX_LISTED} more")
    metrics = {name: (value, unit) for name, value, unit, _ in report if name in END_TO_END}

    if args.trace:
        layers = dict(result["layers"])
        layers.update(ref_layers)
        untraced = _median_rounds(result["rounds"], "plain", workload.threads)
        traced = _median_rounds(result["rounds"], "traced", workload.threads)
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        if workload.threads > 1:
            single = _median_rounds(result["rounds"], "plain", 1)
            layers["util.thread_speedup"] = single / untraced
        print(f"traced run, per round of the list (0 where the layer does not run); "
              f"spans in {result['span_file']}")
        metrics = {name: (layers.get(key, 0.0), unit)
                   for name, (unit, key) in PER_LAYER.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed_ops),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
