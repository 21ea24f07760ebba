"""Command-line experiment runner: generate, certify, sweep, export.

Exit codes: 0 ok, 1 usage, 2 IO, 3 budget.  Logs go to stderr, data to
files (written atomically), and stdout carries a short human summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

from ._util import atomic_write_text, parallel_map
from .ensembles import EnsembleSpec, generate, write_matrix
from .errors import BudgetError, InvalidSpecError, RiplabError
from .geometry import BallDescriptor
from .nets import (Net, certify_cover, cover_check, difference_set_net,
                   greedy_separated_net, min_pairwise_distance, net_from_json,
                   net_to_json, sparse_net_bound, sparse_set_net,
                   volumetric_bound)
from .recon import T0_MODELS, recon_experiment, rho_from_budget
from .spectral import (EXACT_METHOD, MC_METHOD, SUPPORT_BUDGET, check_uup, rip_exact,
                       rip_monte_carlo)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3

_KINDS = ("gaussian", "bernoulli", "uniform-sphere-row")

# options that count something: an explicit value below 1 is a usage error
_COUNTS = ("trials", "threads", "budget", "probes", "sparsity", "stall_limit")

# the structured sweep shape of a config file: nested key -> flag it fills
_NESTED = {"ensemble": {"kind": "kind", "n": "n", "k": "k", "seed": "seed"},
           "ball": {"family": "ball", "p": "p", "radius": "radius", "dim": "n"}}

# net construction -> (options it needs beyond --out, default --ambient); the
# difference net's epsilon is always 0.5 * radius
_CONSTRUCTIONS = {"greedy": (("epsilon", "dim"), "ball"),
                  "sparse": (("epsilon", "n", "m"), "sphere"),
                  "difference": (("n", "m", "radius"), None)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage problems and never expands abbreviations."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

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


def seed_range(text: str) -> range:
    # "N" is 0:N; a range with an empty side fails int("") and exits as a usage error
    lo, sep, hi = text.partition(":")
    r = range(int(lo), int(hi)) if sep else range(0, int(lo))
    try:
        size = len(r)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"range {text!r} is too long") from None
    if size == 0:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return r


def int_list(text: str) -> list[int]:
    vals = [int(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return vals


def _config_tokens(path: str) -> list[str]:
    """The JSON config file as ``--flag=value`` tokens.

    Keys are flag names, with dashes or underscores.  The structured sweep
    shape {ensemble: {...}, ball: {...}, seeds: [lo, hi], k_list: [...],
    output} is translated first; flat keys win over structured ones.
    """
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} is not a JSON object")
    flat = {key.replace("_", "-"): value for key, value in config.items()
            if not (key in _NESTED and isinstance(value, dict))}
    for outer, flags in _NESTED.items():
        if isinstance(config.get(outer), dict):
            for key, value in config[outer].items():
                if key not in flags:
                    raise UsageError(f"unknown config key {outer}.{key}")
                flat.setdefault(flags[key], value)
    if "output" in flat:
        flat.setdefault("out", flat.pop("output"))
    tokens = []
    for key, value in flat.items():
        if key == "seeds" and isinstance(value, list) and len(value) == 2:
            value = f"{value[0]}:{value[1]}"
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        token = f"--{key}={value}"
        if value is None or isinstance(value, (bool, dict)) or not token.isprintable():
            raise UsageError(f"config key {key!r}: {value!r} is not a flag value")
        tokens.append(token)
    return tokens


@functools.cache
def _config_parser() -> _Parser:
    """The pre-parser that finds --config, built once per process."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    return pre


def _with_config(argv: list[str]) -> list[str]:
    """argv with the --config file's tokens spliced in after the command.

    argparse keeps the last value it sees, so command-line flags win.
    """
    path = _config_parser().parse_known_args(argv)[0].config
    return argv if path is None else argv[:1] + _config_tokens(path) + argv[1:]


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    spec = EnsembleSpec(args.kind, args.n, args.k, args.seed)
    matrix = generate(spec)
    write_matrix(args.out, matrix, fmt=args.format)
    print(f"wrote {matrix.k}x{matrix.n} {spec.kind} matrix (seed {spec.seed}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_rip(args) -> int:
    matrix = generate(EnsembleSpec(args.kind, args.n, args.k, args.seed))

    def one(m):
        if args.method == "exact":
            return rip_exact(matrix, m, budget=args.budget)
        return rip_monte_carlo(matrix, m, args.trials, args.mc_seed, budget=args.budget)

    reports = parallel_map(one, args.grid, threads=args.threads)
    rows = [(r.m, r.theta, r.theta_lower, r.theta_upper, r.method)
            for r in sorted(reports, key=lambda r: r.m)]
    atomic_write_text(args.out, _csv(rows, ("m", "theta", "theta_lower",
                                            "theta_upper", "method")))
    worst = max(r.theta for r in reports)
    print(f"rip sweep over m={args.grid}: worst theta {worst:.6g} ({args.method}) "
          f"-> {args.out}")
    return EXIT_OK


def cmd_uup(args) -> int:
    method = EXACT_METHOD if args.method == "exact" else MC_METHOD

    def one(seed):
        spec = EnsembleSpec(args.kind, args.n, args.k, seed)
        result = check_uup(generate(spec), args.theta, args.lam, method=method,
                           trials=args.trials, seed=seed, budget=args.budget)
        report = result.report
        return (seed, int(result.holds), report.theta if report else 0.0,
                report.m if report else 0, int(report is None))

    rows = parallel_map(one, list(args.seeds), threads=args.threads)
    rows.sort(key=lambda r: r[0])
    atomic_write_text(args.out, _csv(rows, ("seed", "holds", "theta_measured",
                                            "support_bound", "degenerate")))
    frac = sum(r[1] for r in rows) / len(rows)
    print(f"uup(theta={args.theta}, lambda={args.lam}) over {len(rows)} seeds: "
          f"pass fraction {frac:.3f} -> {args.out}")
    return EXIT_OK


def cmd_recon(args) -> int:
    ball = BallDescriptor(args.ball, args.n, args.p if args.ball == "weak-lp" else None,
                          args.radius)
    p = 1.0 if ball.family == "l1" else ball.p

    def one(item):
        seed, k = item
        spec = EnsembleSpec(args.kind, args.n, k, seed)
        res = recon_experiment(spec, ball, args.t0_model, seed, sparsity=args.sparsity)
        rho = rho_from_budget(p, k, args.n, ball.radius)
        return (seed, args.n, k, p, res.error, math.nan if rho is None else rho, res.gap)

    work = [(seed, k) for seed in args.seeds for k in args.k_list]
    rows = parallel_map(one, work, threads=args.threads)
    rows.sort(key=lambda r: (r[0], r[2]))
    atomic_write_text(args.out, _csv(rows, ("seed", "n", "k", "p", "error",
                                            "rho", "solver_tol")))
    print(f"recon sweep: {len(rows)} runs ({len(args.seeds)} seeds x {args.k_list}) "
          f"-> {args.out}")
    return EXIT_OK


def _reverify_net(net: Net, probes: int, seed: int) -> dict:
    sep = min_pairwise_distance(net.points)
    # inf for fewer than two points, which strict JSON cannot carry
    out = {"size": len(net), "min_pairwise": sep if math.isfinite(sep) else None,
           "separated": bool(sep > net.epsilon)}
    try:
        res = cover_check(net, probes, seed)
        out.update(cover_pass=res.pass_,
                   max_observed_distance=res.max_observed_distance)
    except RiplabError as exc:
        out.update(cover_pass=None, note=str(exc))
    return out


def cmd_nets(args) -> int:
    if args.verify is not None:
        try:
            net = net_from_json(Path(args.verify).read_text())
        except OSError as exc:
            raise IOError(str(exc)) from exc
        except ValueError as exc:      # InvalidSpecError, or text that is not UTF-8
            raise IOError(f"corrupt net file {args.verify}: {exc}") from exc
        print(json.dumps(_reverify_net(net, args.probes, args.seed)))
        return EXIT_OK

    kind = args.construct
    needs, default_ambient = _CONSTRUCTIONS[kind]
    for name in ("out", *needs):
        if getattr(args, name) is None:
            raise UsageError(f"--construct {kind} needs --{name}")
    ambient = default_ambient if args.ambient is None else args.ambient
    eps = args.epsilon
    if kind == "greedy":
        net = greedy_separated_net(args.dim, eps, ambient, args.seed,
                                   stall_limit=args.stall_limit)
        bound = volumetric_bound(args.dim, eps)
    elif kind == "sparse":
        net = sparse_set_net(args.n, args.m, eps, ambient, args.seed,
                             budget=args.budget, stall_limit=args.stall_limit)
        bound = sparse_net_bound(args.n, args.m, eps)
    else:
        if eps is not None and eps != 0.5 * args.radius:
            raise UsageError("--construct difference builds epsilon = 0.5 * radius; "
                             f"--epsilon {eps} does not match --radius {args.radius}")
        if args.ambient is not None:
            raise UsageError("--construct difference always covers a sparse ball; "
                             "drop --ambient")
        net = difference_set_net(args.n, args.m, args.radius, args.seed,
                                 budget=args.budget, stall_limit=args.stall_limit)
        bound = sparse_net_bound(args.n, min(2 * args.m, args.n), 0.5)
    net = certify_cover(net, args.probes, args.seed)
    atomic_write_text(args.out, net_to_json(net))
    if args.table:
        rows = [(kind, net.dim, net.epsilon, len(net), bound,
                 int(len(net) <= bound), int(net.certified_cover))]
        atomic_write_text(args.table, _csv(rows, ("construction", "dim", "epsilon",
                                                  "size", "bound", "within_bound",
                                                  "cover_pass")))
    print(f"{kind} net: {len(net)} points (bound {bound:.6g}), cover probe "
          f"{'pass' if net.certified_cover else 'FAIL'} at {args.probes} probes "
          f"-> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--threads", type=int, default=1, help="worker thread cap")


def build_parser() -> _Parser:
    parser = _Parser(prog="riplab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="write a measurement matrix file")
    g.add_argument("--kind", choices=_KINDS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("binary", "csv"), default="binary")
    _add_common(g)
    g.set_defaults(func=cmd_gen)

    r = subs.add_parser("rip", help="restricted-isometry sweep over sparsity levels")
    r.add_argument("--kind", choices=_KINDS, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    # a list, so its dest is not the name of recon's count option --sparsity
    r.add_argument("--sparsity", type=int_list, dest="grid", required=True,
                   metavar="LIST", help="comma list, e.g. 1,2,3")
    r.add_argument("--method", choices=("exact", "mc"), default="exact")
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--mc-seed", type=int, default=0)
    r.add_argument("--budget", type=int, default=SUPPORT_BUDGET)
    r.add_argument("--out", required=True)
    _add_common(r)
    r.set_defaults(func=cmd_rip)

    u = subs.add_parser("uup", help="seed sweep of the near-isometry check")
    u.add_argument("--kind", choices=_KINDS, required=True)
    u.add_argument("--n", type=int, required=True)
    u.add_argument("--k", type=int, required=True)
    u.add_argument("--theta", type=float, required=True)
    u.add_argument("--lam", type=float, required=True)
    u.add_argument("--seeds", type=seed_range, required=True, help="seed range lo:hi")
    u.add_argument("--method", choices=("exact", "mc"), default="exact")
    u.add_argument("--trials", type=int, default=1000)
    u.add_argument("--budget", type=int, default=SUPPORT_BUDGET)
    u.add_argument("--out", required=True)
    _add_common(u)
    u.set_defaults(func=cmd_uup)

    c = subs.add_parser("recon", help="reconstruction error sweep")
    c.add_argument("--kind", choices=_KINDS, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--ball", choices=("l1", "weak-lp"), required=True)
    c.add_argument("--p", type=float)
    c.add_argument("--radius", type=float, default=1.0)
    c.add_argument("--t0-model", choices=T0_MODELS, required=True)
    c.add_argument("--sparsity", type=int, default=1)
    c.add_argument("--seeds", type=seed_range, required=True, help="seed range lo:hi")
    c.add_argument("--k-list", type=int_list, required=True, help="comma list of k values")
    c.add_argument("--out", required=True)
    _add_common(c)
    c.set_defaults(func=cmd_recon)

    n = subs.add_parser("nets", help="build or re-verify covering nets")
    action = n.add_mutually_exclusive_group(required=True)
    action.add_argument("--construct", choices=tuple(_CONSTRUCTIONS))
    action.add_argument("--verify", help="net JSON file to reload and re-verify")
    n.add_argument("--dim", type=int)
    n.add_argument("--n", type=int)
    n.add_argument("--m", type=int)
    n.add_argument("--epsilon", type=float,
                   help="cover radius; a difference net's is 0.5 * --radius")
    n.add_argument("--radius", type=float)
    n.add_argument("--ambient", choices=("ball", "sphere"))
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--probes", type=int, default=10_000)
    n.add_argument("--budget", type=float, default=2e6)
    n.add_argument("--stall-limit", type=int)
    n.add_argument("--out")
    n.add_argument("--table")
    _add_common(n)
    n.set_defaults(func=cmd_nets)
    return parser


@functools.cache
def _parser() -> _Parser:
    """``build_parser()`` once per process, shared by every ``main`` call.

    Parsing reads a parser and changes nothing in it, so calls in turn and
    calls from several threads at once can share one.
    """
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_with_config(argv))
        for name in _COUNTS:
            value = getattr(args, name, None)
            if value is not None and not value >= 1:
                raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
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
