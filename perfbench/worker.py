"""One workload in a fresh process: build its inputs, run timed rounds.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this with riplab's ``src`` on PYTHONPATH and the BLAS
thread count pinned.  ``--setup-only`` prints "ready" once riplab is
imported and the operation list is built, which is what set-up time
measures.  Otherwise rounds of the whole list repeat until the next round
would end after ``--seconds``; every round must reproduce the outputs of
the first.  With ``--trace 1`` the rounds cycle through untraced, traced
and (for threaded workloads) single-threaded runs, so tracing overhead and
thread speed-up come from the same process.  The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):    # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def environment(threads: int) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_info(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "worker_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import OUT_DIR, WORKLOADS, run
    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    modes = [("plain", workload.threads)]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        modes.append(("traced", workload.threads))
        if workload.threads > 1:
            modes.append(("plain", 1))

    rounds, first, mismatched = [], None, set()
    start = perf_counter()
    longest = 0.0
    while True:
        mode, threads = modes[len(rounds) % len(modes)]
        if mode == "traced":
            tracer.install()
        t0 = perf_counter()
        records = run(workload, ops, threads,
                      on_op=tracer.set_op if mode == "traced" else None)
        wall = perf_counter() - t0
        if mode == "traced":
            tracer.uninstall()
        latency = [lat for lat, _, _ in records]
        errors = [err for _, _, err in records]
        summaries = [None if err else workload.summarize(op, raw)
                     for op, (_, raw, err) in zip(ops, records)]
        del records
        if first is None:
            first = (summaries, errors)
            first_text = [json.dumps(s) for s in summaries]
        else:
            mismatched |= {i for i, s in enumerate(summaries)
                           if json.dumps(s) != first_text[i] or errors[i] != first[1][i]}
        rounds.append({"mode": mode, "threads": threads, "wall": wall,
                       "latency": latency})
        longest = max(longest, wall)
        if len(rounds) >= len(modes) and perf_counter() - start + longest > args.seconds:
            break

    result = {"env": environment(workload.threads), "rounds": rounds,
              "summaries": first[0], "errors": first[1],
              "mismatched": sorted(mismatched),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        traced = sum(1 for r in rounds if r["mode"] == "traced")
        result["layers"] = {k: v / traced for k, v in tracer.layer_totals().items()}
        result["layers"]["trace.spans"] = len(tracer.spans) / traced
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path)
        result["span_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
