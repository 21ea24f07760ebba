"""References for every operation's output, computed outside the timed region.

``check`` returns one verdict per operation: None when the output matches
its reference, otherwise ``(kind, reason)``.  Kind "wrong" is an output
that contradicts its reference (an eigenvalue, m*, separation, a residual,
feasibility) and makes the run incorrect.  Kind "failed" is an operation
that did not reach its goal although what it reports is true: an l1
objective more than ``L1_GAP_TOL`` above the HiGHS optimum, or a greedy
net that its own cover probe does not certify.  Both stop on a stall
heuristic; they count in ``failed`` and ``fail_frac``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy import stats
from scipy.optimize import linprog

from riplab._util import philox
from riplab.ensembles import EnsembleSpec, generate

import workloads as W

EIG_TOL = 1e-12            # RIP accuracies against eigvalsh
L1_GAP_TOL = 1e-6          # criterion 10's tolerance on the l1 objective
FEASIBILITY_TOL = 1e-8     # |G x_hat - b|, riplab's documented tolerance
DKW_ALPHA = 1e-6           # false-alarm rate of the chi-square tail band


def _deviation(entries, k, supports) -> tuple[np.ndarray, np.ndarray]:
    """(1 - lambda_min, lambda_max - 1) of G_A^T G_A / k for each support row."""
    cols = entries[:, supports]                     # (k, s, m)
    grams = np.einsum("kbi,kbj->bij", cols, cols) / k
    eigs = np.linalg.eigvalsh(grams)
    return 1.0 - eigs[:, 0], eigs[:, -1] - 1.0


def _mc_supports(seed, n, m, trials) -> np.ndarray:
    """Monte-Carlo supports as riplab draws them: a seeded Fisher-Yates prefix."""
    out = np.empty((trials, m), dtype=np.int64)
    for t in range(trials):
        rng = philox(seed, "rip-mc", t)
        arr = np.arange(n)
        for j in range(m):
            swap = j + int(rng.integers(0, n - j))
            arr[j], arr[swap] = arr[swap], arr[j]
        out[t] = arr[:m]
    return out


def _close(a, b, tol=EIG_TOL) -> bool:
    return abs(a - b) <= tol


def _check_bisect(op, out):
    mat = generate(EnsembleSpec("bernoulli", n=W.UUP_N, k=op["k"], seed=op["seed"]))
    entries, k = mat.entries, mat.k
    m_star = out["m_star"]
    top = min(m_star + 1, k)
    supports = _mc_supports(op["seed"], mat.n, top, W.UUP_TRIALS)

    def theta(m):
        lows, highs = _deviation(entries, k, supports[:, :m])
        return max(float(lows.max()), float(highs.max()), 0.0)

    if m_star == 0:
        return None if theta(1) > W.UUP_THETA else ("wrong", "m*=0 but m=1 passes")
    ref = theta(m_star)
    if not _close(ref, out["theta"]):
        return ("wrong", f"theta at m*={m_star}: {out['theta']!r} vs eigvalsh {ref!r}")
    if ref > W.UUP_THETA:
        return ("wrong", f"m*={m_star} has theta {ref:.6g} > {W.UUP_THETA}")
    if m_star < k and theta(m_star + 1) <= W.UUP_THETA:
        return ("wrong", f"m*={m_star} but m*+1 also passes")
    low, _ = _deviation(entries, k, np.array([out["witness_min"]]))
    _, high = _deviation(entries, k, np.array([out["witness_max"]]))
    if not (_close(low[0], out["theta_lower"]) and _close(high[0], out["theta_upper"])):
        return ("wrong", "witness supports do not reproduce theta_lower/theta_upper")
    return None


def _exact_deviation(seed, m) -> tuple[float, float]:
    mat = generate(EnsembleSpec("gaussian", n=W.EXACT_N, k=W.EXACT_K, seed=seed))
    supports = np.array(list(itertools.combinations(range(W.EXACT_N), m)))
    lows, highs = _deviation(mat.entries, mat.k, supports)
    return float(lows.max()), float(highs.max())


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_cli(op, out):
    rows = list(csv.DictReader(io.StringIO(out["csv"])))
    argv = op["argv"]
    if op["kind"] == "uup":
        lo, hi = (int(v) for v in _argv_value(argv, "--seeds").split(":"))
        bound = int(W.EXACT_K / W.EXACT_LAM)
        if [int(r["seed"]) for r in rows] != list(range(lo, hi)):
            return ("wrong", "uup rows do not cover the seed range")
        for r in rows:
            tl, tu = _exact_deviation(int(r["seed"]), bound)
            ref = max(tl, tu, 0.0)
            if not _close(float(r["theta_measured"]), ref):
                return ("wrong", f"seed {r['seed']}: theta {r['theta_measured']} vs {ref!r}")
            if (int(r["holds"]), int(r["support_bound"]), int(r["degenerate"])) != (
                    int(ref <= W.EXACT_THETA), bound, 0):
                return ("wrong", f"seed {r['seed']}: holds/support_bound/degenerate")
        return None
    seed = int(_argv_value(argv, "--seed"))
    grid = [int(v) for v in _argv_value(argv, "--sparsity").split(",")]
    if [int(r["m"]) for r in rows] != grid:
        return ("wrong", "rip rows do not cover the sparsity grid")
    for r in rows:
        tl, tu = _exact_deviation(seed, int(r["m"]))
        got = (float(r["theta_lower"]), float(r["theta_upper"]), float(r["theta"]))
        if not all(_close(a, b) for a, b in zip(got, (tl, tu, max(tl, tu, 0.0)))):
            return ("wrong", f"seed {seed} m={r['m']}: {got} vs {(tl, tu)}")
    return None


def l1_optimum(entries, b) -> float:
    """min |x|_1 subject to G x = b, as an LP over x = u - v with u, v >= 0."""
    n = entries.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([entries, -entries]), b_eq=b,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def l1_kernel_radius(entries) -> float:
    """sqrt(gamma) with gamma = max_i max{z_i : G z = 0, |z|_1 <= 1}.

    Every kernel vector z has |z|_2^2 <= |z|_inf |z|_1 <= gamma |z|_1^2, so
    the kernel diameter of the unit l1 ball is at most 2 sqrt(gamma).
    """
    k, n = entries.shape
    a_eq = np.hstack([entries, -entries])
    a_ub = np.ones((1, 2 * n))
    gamma = 0.0
    for i in range(n):
        c = np.zeros(2 * n)
        c[i], c[n + i] = -1.0, 1.0
        res = linprog(c, A_ub=a_ub, b_ub=[1.0], A_eq=a_eq, b_eq=np.zeros(k),
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        gamma = max(gamma, -float(res.fun))
    return math.sqrt(gamma)


def _check_recon(op, out, gaps, lowers):
    if op["kind"] == "solve":
        spec = EnsembleSpec("bernoulli", n=W.RECON_N, k=op["k"], seed=op["seed"])
        entries = generate(spec).entries
        b, x = np.array(out["b"]), np.array(out["x_hat"])
        if np.linalg.norm(entries @ x - b) > FEASIBILITY_TOL:
            return ("wrong", "x_hat is not feasible")
        if not math.isclose(float(np.sum(np.abs(x))), out["objective"], rel_tol=1e-12):
            return ("wrong", "objective is not |x_hat|_1")
        opt = l1_optimum(entries, b)
        gap = (out["objective"] - opt) / opt
        gaps.append(gap)
        if abs(gap) > L1_GAP_TOL:
            return ("failed", f"relative gap {gap:.3g} to the HiGHS optimum "
                                 f"exceeds {L1_GAP_TOL:g} after {out['iterations']} iterations")
        return None
    entries = generate(EnsembleSpec("bernoulli", n=W.KERNEL_N, k=W.KERNEL_K,
                                    seed=op["seed"])).entries
    if op["kind"] == "kernel-lower":
        lowers[op["seed"]] = out["lower"]
        upper = 2.0 * l1_kernel_radius(entries)
        if not (0.0 < out["lower"] <= upper * (1.0 + 1e-9)):
            return ("wrong", f"lower bound {out['lower']:.6g} outside (0, {upper:.6g}]")
        return None
    if out.get("certified") and lowers.get(op["seed"], 0.0) > out["rho"] + 1e-9:
        return ("wrong", "certified rho is below the search lower bound")
    return None


def _pairwise_min(points) -> float:
    diffs = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(d2, np.inf)
    return math.sqrt(float(d2.min())) if len(points) > 1 else math.inf


def _chi2_tail(k, t) -> float:
    """P(| chi2_k / k - 1 | >= t): the exact tail for the Gaussian ensemble."""
    return float(stats.chi2.cdf(k * (1.0 - t), k) + stats.chi2.sf(k * (1.0 + t), k))


def _check_nets(op, out, nets_seen):
    kind = op["kind"]
    if kind in ("greedy", "sparse"):
        pts = np.array(out["points"])
        nets_seen[op["net"]] = pts
        if kind == "greedy":
            sep = _pairwise_min(pts)
            if not sep > op["eps"] or not math.isclose(sep, out["min_pairwise"],
                                                      rel_tol=1e-12):
                return ("wrong", f"separation {sep!r} vs reported {out['min_pairwise']!r}")
            if len(pts) > (1.0 + 2.0 / op["eps"]) ** op["dim"]:
                return ("wrong", "net exceeds the packing bound")
            return None
        if (np.any(np.count_nonzero(pts, axis=1) > 2)
                or np.linalg.norm(pts, axis=1).max() > 1.0 + 1e-12):
            return ("wrong", "sparse net points are not 2-sparse points of the unit ball")
        return None
    if kind == "certify":
        return None if out["certified_cover"] else ("failed", "cover probe failed")
    if kind == "cover":
        ok = out["pass"] and out["probes"] == W.NET_PROBES
        return None if ok else ("failed", "sparse net cover probe failed")
    if kind == "decompose":
        pts, eps = nets_seen[op["net"]], op["eps"]
        recon, coeff = np.zeros(pts.shape[1]), 1.0
        for idx in out["terms"]:
            recon += coeff * pts[idx]
            coeff *= eps
        residual = float(np.linalg.norm(op["z"] - recon))
        if residual > eps ** W.HULL_ROUNDS:
            return ("wrong", f"hull residual {residual:.3g} > eps^{W.HULL_ROUNDS}")
        return None
    band = 2.0 * math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * out["trials"]))
    worst = max(abs(tail - _chi2_tail(op["k"], t))
                for t, tail in zip(out["t_grid"], out["tail"]))
    if worst > band:
        return ("wrong", f"empirical tail is {worst:.4f} from chi-square (band {band:.4f})")
    return None


def check(workload: str, ops: list, summaries: list) -> tuple[list, dict]:
    """Per-op verdicts, plus reference figures for the per-layer report."""
    verdicts, extra = [], {}
    gaps, lowers, nets_seen = [], {}, {}
    for op, out in zip(ops, summaries):
        if out is None:                  # the op raised; run.py reports the error
            verdicts.append(None)
            continue
        if workload == "uup-mc":
            verdict = _check_bisect(op, out)
        elif workload == "rip-exact-cli":
            verdict = _check_cli(op, out)
        elif workload == "recon-l1":
            verdict = _check_recon(op, out, gaps, lowers)
        else:
            verdict = _check_nets(op, out, nets_seen)
        verdicts.append(verdict)
    if gaps:
        extra["recon.l1_gap_max"] = max(gaps)
    return verdicts, extra
