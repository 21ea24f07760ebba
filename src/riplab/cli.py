"""Command-line experiment runner: generate, certify, sweep, export.

Exit codes: 0 ok, 1 usage, 2 IO, 3 budget.  Logs go to stderr, data to
files (written atomically), and stdout carries a short human summary.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from ._util import atomic_write_text, parallel_map
from .ensembles import EnsembleSpec, generate, write_matrix
from .errors import BudgetError, InvalidSpecError, RiplabError
from .geometry import BallDescriptor
from .nets import (Net, cover_check, difference_set_net, greedy_separated_net,
                   min_pairwise_distance, net_from_json, net_to_json,
                   sparse_set_net, volumetric_bound)
from .recon import recon_experiment, rho_from_budget
from .spectral import check_uup, rip_exact, rip_monte_carlo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3

log = logging.getLogger("riplab")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    r = range(int(lo), int(hi)) if hi else range(0, int(lo))
    if len(r) == 0:
        raise UsageError(f"empty range {text!r}")
    return r


def _parse_int_list(text: str) -> list[int]:
    vals = [int(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise UsageError(f"empty list {text!r}")
    return vals


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc


def _merge(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Flags override config-file values; config fills unset flags.

    Accepts both flat flag-named keys and the structured sweep shape
    {ensemble: {...}, ball: {...}, t0_model, seeds: [lo, hi), k_list, output}.
    """
    flat = dict(config)
    ensemble = flat.pop("ensemble", None)
    if isinstance(ensemble, dict):
        for key in ("kind", "n", "k", "seed"):
            if key in ensemble:
                flat.setdefault(key, ensemble[key])
    ball = flat.pop("ball", None)
    if isinstance(ball, dict):
        family = ball.get("family")
        flat.setdefault("ball", "weak-lp" if family == "weak-lp" else "l1")
        for src, dst in (("p", "p"), ("radius", "radius"), ("dim", "n")):
            if src in ball:
                flat.setdefault(dst, ball[src])
    elif ball is not None:
        flat["ball"] = ball
    seeds = flat.get("seeds")
    if isinstance(seeds, (list, tuple)) and len(seeds) == 2:
        flat["seeds"] = f"{seeds[0]}:{seeds[1]}"
    k_list = flat.get("k_list")
    if isinstance(k_list, (list, tuple)):
        flat["k_list"] = ",".join(str(k) for k in k_list)
    if "output" in flat:
        flat.setdefault("out", flat.pop("output"))
    for key, value in flat.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _count(args, name, default):
    """Option ``name`` as the type of ``default``, which fills in when unset.

    An explicit value below 1 is a usage error, never a silent default.
    """
    value = getattr(args, name)
    if value is None:
        return default
    value = type(default)(value)
    if value < 1:
        raise UsageError(f"--{name} must be >= 1, got {value}")
    return value


def _spec_from_args(args, seed=None) -> EnsembleSpec:
    _require(args, "kind", "n", "k")
    if seed is None:
        _require(args, "seed")
        seed = args.seed
    return EnsembleSpec(kind=args.kind, n=int(args.n), k=int(args.k), seed=int(seed))


def _ball_from_args(args) -> BallDescriptor:
    _require(args, "ball", "n")
    n = int(args.n)
    radius = float(args.radius if args.radius is not None else 1.0)
    if args.ball == "l1":
        return BallDescriptor.l1_ball(n, radius)
    if args.ball == "weak-lp":
        _require(args, "p")
        return BallDescriptor.weak_lp_ball(n, float(args.p), radius)
    raise UsageError(f"unknown ball {args.ball!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    _require(args, "out")
    matrix = generate(spec)
    write_matrix(args.out, matrix, fmt=args.format or "binary")
    print(f"wrote {matrix.k}x{matrix.n} {spec.kind} matrix (seed {spec.seed}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_rip(args) -> int:
    spec = _spec_from_args(args)
    _require(args, "sparsity", "out")
    grid = _parse_int_list(str(args.sparsity))
    matrix = generate(spec)
    method = args.method or "exact"
    trials = _count(args, "trials", 1000)
    budget = _count(args, "budget", 2_000_000)

    def one(m):
        if method == "exact":
            return rip_exact(matrix, m, budget=budget)
        return rip_monte_carlo(matrix, m, trials, int(args.mc_seed or 0))

    reports = parallel_map(one, grid, threads=args.threads)
    rows = [(r.m, r.theta, r.theta_lower, r.theta_upper, r.method)
            for r in sorted(reports, key=lambda r: r.m)]
    atomic_write_text(args.out, _csv(rows, ("m", "theta", "theta_lower",
                                            "theta_upper", "method")))
    worst = max(r.theta for r in reports)
    print(f"rip sweep over m={grid}: worst theta {worst:.6g} ({method}) -> {args.out}")
    return EXIT_OK


def cmd_uup(args) -> int:
    _require(args, "kind", "n", "k", "theta", "lam", "seeds", "out")
    seeds = _parse_range(str(args.seeds))
    theta = float(args.theta)
    lam = float(args.lam)
    method = args.method or "exact"
    trials = _count(args, "trials", 1000)
    budget = _count(args, "budget", 2_000_000)

    def one(seed):
        spec = _spec_from_args(args, seed=seed)
        result = check_uup(generate(spec), theta, lam,
                           method="exact-enumeration" if method == "exact"
                           else "monte-carlo",
                           trials=trials, seed=seed, budget=budget)
        measured = result.report.theta if result.report else 0.0
        return (seed, int(result.holds), measured, result.support_bound,
                int(result.degenerate))

    rows = parallel_map(one, list(seeds), threads=args.threads)
    rows.sort(key=lambda r: r[0])
    atomic_write_text(args.out, _csv(rows, ("seed", "holds", "theta_measured",
                                            "support_bound", "degenerate")))
    frac = sum(r[1] for r in rows) / len(rows)
    print(f"uup(theta={theta}, lambda={lam}) over {len(rows)} seeds: "
          f"pass fraction {frac:.3f} -> {args.out}")
    return EXIT_OK


def cmd_recon(args) -> int:
    _require(args, "kind", "n", "seeds", "k_list", "out", "t0_model")
    ball = _ball_from_args(args)
    seeds = _parse_range(str(args.seeds))
    k_list = _parse_int_list(str(args.k_list))
    p = 1.0 if ball.family == "l1" else ball.p
    sparsity = _count(args, "sparsity", 1)

    def one(item):
        seed, k = item
        spec = EnsembleSpec(kind=args.kind, n=int(args.n), k=k, seed=seed)
        res = recon_experiment(spec, ball, args.t0_model, seed,
                               sparsity=sparsity,
                               solver=args.solver or "iterative")
        rho = rho_from_budget(p, k, int(args.n), ball.radius)
        return (seed, int(args.n), k, p, res.error,
                math.nan if rho is None else rho, int(res.certified),
                res.residual)

    work = [(seed, k) for seed in seeds for k in k_list]
    rows = parallel_map(one, work, threads=args.threads)
    rows.sort(key=lambda r: (r[0], r[2]))
    atomic_write_text(args.out, _csv(rows, ("seed", "n", "k", "p", "error",
                                            "rho", "certified", "solver_tol")))
    print(f"recon sweep: {len(rows)} runs ({len(seeds)} seeds x {k_list}) "
          f"-> {args.out}")
    return EXIT_OK


def _reverify_net(net: Net, probes: int, seed: int) -> dict:
    sep = min_pairwise_distance(net.points)
    out = {"size": len(net), "min_pairwise": sep,
           "separated": bool(sep > net.epsilon)}
    try:
        res = cover_check(net, probes, seed)
        out.update(cover_pass=res.pass_,
                   max_observed_distance=res.max_observed_distance)
    except RiplabError as exc:
        out.update(cover_pass=None, note=str(exc))
    return out


def cmd_nets(args) -> int:
    if args.verify:
        try:
            net = net_from_json(Path(args.verify).read_text())
        except OSError as exc:
            raise IOError(str(exc)) from exc
        except (ValueError, KeyError, InvalidSpecError) as exc:
            raise IOError(f"corrupt net file {args.verify}: {exc}") from exc
        info = _reverify_net(net, _count(args, "probes", 10_000), int(args.seed or 0))
        print(json.dumps(info))
        return EXIT_OK

    _require(args, "construct", "epsilon", "out")
    eps = float(args.epsilon)
    seed = int(args.seed or 0)
    stall = int(args.stall_limit) if args.stall_limit else None
    kind = args.construct
    if kind == "greedy":
        _require(args, "dim")
        net = greedy_separated_net(int(args.dim), eps, args.ambient or "ball",
                                   seed, stall_limit=stall)
        bound = volumetric_bound(int(args.dim), eps)
    elif kind == "sparse":
        _require(args, "n", "m")
        net = sparse_set_net(int(args.n), int(args.m), eps,
                             args.ambient or "sphere", seed,
                             budget=_count(args, "budget", 2e6), stall_limit=stall)
        bound = math.comb(int(args.n), int(args.m)) * (5.0 / eps) ** int(args.m)
    elif kind == "difference":
        _require(args, "n", "m", "radius")
        net = difference_set_net(int(args.n), int(args.m), float(args.radius),
                                 seed, budget=_count(args, "budget", 2e6))
        m2 = min(2 * int(args.m), int(args.n))
        bound = math.comb(int(args.n), m2) * 10.0 ** m2
    else:
        raise UsageError(f"unknown construction {kind!r}")
    probes = _count(args, "probes", 10_000)
    res = cover_check(net, probes, seed)
    net = replace(net, certified_cover=res.pass_, probes_used=probes)
    atomic_write_text(args.out, net_to_json(net))
    if args.table:
        rows = [(kind, net.dim, eps, len(net), bound,
                 int(len(net) <= bound), int(res.pass_))]
        atomic_write_text(args.table, _csv(rows, ("construction", "dim", "epsilon",
                                                  "size", "bound", "within_bound",
                                                  "cover_pass")))
    print(f"{kind} net: {len(net)} points (bound {bound:.6g}), cover probe "
          f"{'pass' if res.pass_ else 'FAIL'} at {probes} probes -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--threads", type=int, help="worker thread cap (default 1)")
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="riplab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="write a measurement matrix file")
    g.add_argument("--kind", choices=("gaussian", "bernoulli", "uniform-sphere-row"))
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--out")
    g.add_argument("--format", choices=("binary", "csv"))
    _add_common(g)
    g.set_defaults(func=cmd_gen)

    r = subs.add_parser("rip", help="restricted-isometry sweep over sparsity levels")
    r.add_argument("--kind", choices=("gaussian", "bernoulli", "uniform-sphere-row"))
    r.add_argument("--n", type=int)
    r.add_argument("--k", type=int)
    r.add_argument("--sparsity", help="comma list, e.g. 1,2,3")
    r.add_argument("--method", choices=("exact", "mc"))
    r.add_argument("--trials", type=int)
    r.add_argument("--mc-seed", type=int, dest="mc_seed")
    r.add_argument("--budget", type=int)
    r.add_argument("--out")
    _add_common(r)
    r.set_defaults(func=cmd_rip)

    u = subs.add_parser("uup", help="seed sweep of the near-isometry check")
    u.add_argument("--kind", choices=("gaussian", "bernoulli", "uniform-sphere-row"))
    u.add_argument("--n", type=int)
    u.add_argument("--k", type=int)
    u.add_argument("--theta", type=float)
    u.add_argument("--lam", type=float)
    u.add_argument("--seeds", help="seed range lo:hi")
    u.add_argument("--method", choices=("exact", "mc"))
    u.add_argument("--trials", type=int)
    u.add_argument("--budget", type=int)
    u.add_argument("--out")
    _add_common(u)
    u.set_defaults(func=cmd_uup)

    c = subs.add_parser("recon", help="reconstruction error sweep")
    c.add_argument("--kind", choices=("gaussian", "bernoulli", "uniform-sphere-row"))
    c.add_argument("--n", type=int)
    c.add_argument("--ball", choices=("l1", "weak-lp"))
    c.add_argument("--p", type=float)
    c.add_argument("--radius", type=float)
    c.add_argument("--t0-model", dest="t0_model",
                   choices=("sparse", "weak-lp-extremal", "random-ball"))
    c.add_argument("--sparsity", type=int)
    c.add_argument("--solver", choices=("iterative", "exact"))
    c.add_argument("--seeds", help="seed range lo:hi")
    c.add_argument("--k-list", dest="k_list", help="comma list of k values")
    c.add_argument("--out")
    _add_common(c)
    c.set_defaults(func=cmd_recon)

    n = subs.add_parser("nets", help="build or re-verify covering nets")
    n.add_argument("--construct", choices=("greedy", "sparse", "difference"))
    n.add_argument("--verify", help="net JSON file to reload and re-verify")
    n.add_argument("--dim", type=int)
    n.add_argument("--n", type=int)
    n.add_argument("--m", type=int)
    n.add_argument("--epsilon", type=float)
    n.add_argument("--radius", type=float)
    n.add_argument("--ambient", choices=("ball", "sphere"))
    n.add_argument("--probes", type=int)
    n.add_argument("--budget", type=float)
    n.add_argument("--stall-limit", type=int, dest="stall_limit")
    n.add_argument("--out")
    n.add_argument("--table")
    _add_common(n)
    n.set_defaults(func=cmd_nets)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge(args, _load_config(getattr(args, "config", None)))
        args.threads = _count(args, "threads", 1)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidSpecError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
