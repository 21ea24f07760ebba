import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riplab
from riplab import cli
from riplab.cli import main
from riplab.ensembles import matrix_from_binary, matrix_from_csv
from riplab.spectral import check_uup


def run(args):
    return main([str(a) for a in args])


def test_gen_bernoulli_binary(tmp_path):
    out = tmp_path / "m.ripl"
    code = run(["gen", "--kind", "bernoulli", "--n", 8, "--k", 4,
                "--seed", 1, "--out", out])
    assert code == 0
    entries = matrix_from_binary(out.read_bytes())
    assert entries.shape == (4, 8)
    assert set(np.unique(entries)) <= {-1.0, 1.0}


def test_gen_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.ripl", tmp_path / "b.ripl"
    for out in (a, b):
        assert run(["gen", "--kind", "gaussian", "--n", 6, "--k", 3,
                    "--seed", 9, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_dims_exit_1_no_file(tmp_path):
    out = tmp_path / "bad.ripl"
    assert run(["gen", "--kind", "bernoulli", "--n", 4, "--k", 9,
                "--seed", 1, "--out", out]) == 1
    assert not out.exists()


def test_gen_unwritable_path_exit_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run(["gen", "--kind", "bernoulli", "--n", 4, "--k", 2, "--seed", 1,
                "--out", blocker / "m.ripl"]) == 2


def test_gen_csv_round_trip(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["gen", "--kind", "gaussian", "--n", 5, "--k", 2, "--seed", 3,
                "--out", out, "--format", "csv"]) == 0
    parsed = matrix_from_csv(out.read_text())
    assert parsed.shape == (2, 5)


def test_unknown_flag_exit_1(tmp_path, capsys):
    out = tmp_path / "x.ripl"
    assert run(["gen", "--kind", "bernoulli", "--n", 4, "--k", 2,
                "--seed", 1, "--out", out, "--frobnicate", 3]) == 1
    assert not out.exists()


def test_rip_bernoulli_singletons_exact_zero(tmp_path):
    out = tmp_path / "rip.csv"
    assert run(["rip", "--kind", "bernoulli", "--n", 8, "--k", 4, "--seed", 2,
                "--sparsity", "1", "--out", out]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "m,theta,theta_lower,theta_upper,method"
    fields = row.split(",")
    assert fields[0] == "1" and float(fields[1]) == 0.0
    assert fields[4] == "exact-enumeration"


def test_rip_exact_vs_exhaustive_mc(tmp_path):
    exact_out = tmp_path / "exact.csv"
    mc_out = tmp_path / "mc.csv"
    base = ["--kind", "bernoulli", "--n", 10, "--k", 5, "--seed", 7,
            "--sparsity", "2"]
    assert run(["rip"] + base + ["--out", exact_out]) == 0
    assert run(["rip"] + base + ["--method", "mc", "--trials", 2500,
                "--mc-seed", 13, "--out", mc_out]) == 0
    te = float(exact_out.read_text().strip().splitlines()[1].split(",")[1])
    tm = float(mc_out.read_text().strip().splitlines()[1].split(",")[1])
    assert tm == pytest.approx(te, abs=1e-12)


def test_rip_budget_exit_3(tmp_path):
    out = tmp_path / "rip.csv"
    assert run(["rip", "--kind", "bernoulli", "--n", 40, "--k", 12, "--seed", 1,
                "--sparsity", "10", "--budget", 100, "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rip", "--kind", "bernoulli", "--n", 16, "--k", 8, "--seed", 1, "--sparsity", 3,
     "--trials", 100_000_000_000],
    ["uup", "--kind", "bernoulli", "--n", 16, "--k", 8, "--theta", 0.5, "--lam", 2.0,
     "--seeds", "0:2", "--trials", 100_000_000_000],
    ["rip", "--kind", "bernoulli", "--n", 16, "--k", 8, "--seed", 1, "--sparsity", 3,
     "--trials", 101, "--budget", 100],
], ids=["rip", "uup", "rip-budget-flag"])
def test_mc_trials_over_budget_exit_3(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["--method", "mc", "--out", out]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded:")
    assert not out.exists()


def test_uup_sweep_pass_fraction(tmp_path, capsys):
    out = tmp_path / "uup.csv"
    assert run(["uup", "--kind", "bernoulli", "--n", 6, "--k", 3, "--theta",
                0.99, "--lam", 2.0, "--seeds", "0:10", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11
    assert "pass fraction 1.000" in capsys.readouterr().out


def test_uup_degenerate_rows(tmp_path):
    # floor(k/lam) = 0: a vacuous pass with no report, support bound 0
    out = tmp_path / "uup.csv"
    assert run(["uup", "--kind", "bernoulli", "--n", 8, "--k", 4, "--theta", 0.5,
                "--lam", 100, "--seeds", "0:3", "--out", out]) == 0
    assert out.read_text().splitlines()[1:] == [f"{s},1,0,0,1" for s in range(3)]


def test_uup_small_theta_fails_often(tmp_path, capsys):
    out = tmp_path / "uup.csv"
    assert run(["uup", "--kind", "gaussian", "--n", 6, "--k", 3, "--theta",
                0.01, "--lam", 2.0, "--seeds", "0:10", "--out", out]) == 0
    frac = np.mean([int(l.split(",")[1])
                    for l in out.read_text().strip().splitlines()[1:]])
    assert frac < 0.5


def test_uup_empty_seed_range_exit_1(tmp_path):
    out = tmp_path / "uup.csv"
    assert run(["uup", "--kind", "bernoulli", "--n", 6, "--k", 3, "--theta",
                0.5, "--lam", 2.0, "--seeds", "5:5", "--out", out]) == 1
    assert not out.exists()


def test_recon_sweep_rows_and_zero_handling(tmp_path):
    out = tmp_path / "recon.csv"
    assert run(["recon", "--kind", "bernoulli", "--n", 12, "--ball", "l1",
                "--t0-model", "sparse", "--sparsity", 1, "--seeds", "0:3",
                "--k-list", "4,6", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,n,k,p,error,rho,solver_tol"
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) >= 0.0
        assert float(fields[6]) <= 1e-8


def test_recon_solver_tol_is_certified_gap(tmp_path):
    out = tmp_path / "recon.csv"
    for ball in (["--ball", "l1"], ["--ball", "weak-lp", "--p", 0.5]):
        assert run(["recon", "--kind", "bernoulli", "--n", 32, *ball,
                    "--t0-model", "weak-lp-extremal", "--seeds", "0:4",
                    "--k-list", "8,16", "--out", out]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            gap = float(line.split(",")[6])
            assert math.isfinite(gap) and -1e-12 <= gap <= 1e-6


def test_import_does_not_load_scipy():
    # the package depends on numpy alone; scipy is a test-only dependency
    code = "import sys, riplab; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(riplab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_recon_threads_byte_identical(tmp_path):
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"recon{threads}.csv"
        assert run(["recon", "--kind", "gaussian", "--n", 12, "--ball", "l1",
                    "--t0-model", "sparse", "--seeds", "0:4", "--k-list", "4,6",
                    "--threads", threads, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_rip_mc_threads_byte_identical_at_large_supports(tmp_path):
    # 256 x 256 eigenproblems, large enough for a multi-threaded BLAS to
    # change the last digits if the worker count set its thread count
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"rip{threads}.csv"
        assert run(["rip", "--kind", "bernoulli", "--n", 512, "--k", 256, "--seed", 0,
                    "--sparsity", "200,256", "--method", "mc", "--trials", 40,
                    "--mc-seed", 0, "--threads", threads, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_nets_build_table_and_reverify(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    table = tmp_path / "table.csv"
    assert run(["nets", "--construct", "greedy", "--dim", 2, "--epsilon", 0.5,
                "--ambient", "ball", "--seed", 4, "--probes", 2000,
                "--out", net_file, "--table", table]) == 0
    rows = table.read_text().strip().splitlines()
    assert rows[0] == "construction,dim,epsilon,size,bound,within_bound,cover_pass"
    fields = rows[1].split(",")
    assert int(fields[3]) <= float(fields[4])
    assert run(["nets", "--verify", net_file, "--probes", 2000, "--seed", 1]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["separated"]


@pytest.mark.parametrize("epsilon", [[], ["--epsilon", 0.25]], ids=["implied", "matching"])
def test_nets_difference_table_reports_the_nets_epsilon(tmp_path, epsilon):
    # a difference net always has epsilon 0.5 * radius; --epsilon may only repeat it
    table = tmp_path / "table.csv"
    assert run(["nets", "--construct", "difference", "--n", 4, "--m", 1, "--radius", 0.5,
                *epsilon, "--probes", 600, "--out", tmp_path / "net.json",
                "--table", table]) == 0
    fields = table.read_text().strip().splitlines()[1].split(",")
    assert fields[:3] == ["difference", "4", "0.25"]
    assert json.loads((tmp_path / "net.json").read_text())["epsilon"] == 0.25


def test_nets_difference_passes_the_stall_limit(tmp_path, capsys):
    # --stall-limit reaches the inner greedy net; at 20 000 it grows to a cover
    table = tmp_path / "table.csv"
    assert run(["nets", "--construct", "difference", "--n", 4, "--m", 1, "--radius", 0.5,
                "--stall-limit", 20_000, "--out", tmp_path / "net.json",
                "--table", table]) == 0
    fields = table.read_text().strip().splitlines()[1].split(",")
    assert fields[3] == "78" and fields[6] == "1"
    assert "cover probe pass" in capsys.readouterr().out


def test_nets_corrupt_json_exit_2(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text("{not json")
    assert run(["nets", "--verify", bad]) == 2
    assert run(["nets", "--verify", tmp_path / "missing.json"]) == 2


@pytest.mark.parametrize("field,value", [
    ("point", math.nan), ("epsilon", -1.0),
    pytest.param("ambient", {"family": "sparse-ball", "dim": 2, "sparsity": 1.5},
                 id="sparsity-1.5"),
    pytest.param("ambient", {"family": "weak-lp", "dim": 2, "p": "abc"}, id="p-abc"),
    pytest.param("ambient", [2], id="ambient-list"), pytest.param("file", [1], id="file-list"),
    ("ambient.dim", 2.5), ("certified_cover", "false")])
def test_nets_verify_rejects_nan_point_and_bad_epsilon(tmp_path, capsys, field, value):
    net_file = tmp_path / "net.json"
    assert run(["nets", "--construct", "greedy", "--dim", 2, "--epsilon", 0.5,
                "--ambient", "ball", "--seed", 4, "--probes", 500, "--out", net_file]) == 0
    obj = json.loads(net_file.read_text())
    if field == "point":
        obj["points"][0][1] = value
    elif field == "file":
        obj = value
    elif field == "ambient.dim":
        obj["ambient"]["dim"] = value
    else:
        obj[field] = value
    net_file.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["nets", "--verify", net_file]) == 2
    err = capsys.readouterr().err
    assert "corrupt net file" in err and "Traceback" not in err


def test_nets_verify_weak_lp_net_reports_no_cover_verdict(tmp_path, capsys):
    # no uniform sampler covers a weak-lp ball: the probe's InvalidSpecError
    # becomes a null verdict with a note, not an exit code
    net_file = tmp_path / "net.json"
    assert run(["nets", "--construct", "greedy", "--dim", 2, "--epsilon", 0.5,
                "--ambient", "ball", "--seed", 4, "--probes", 500, "--out", net_file]) == 0
    obj = json.loads(net_file.read_text())
    obj["ambient"] = {"family": "weak-lp", "radius": 1.0, "dim": 2, "p": 0.5}
    net_file.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["nets", "--verify", net_file]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"cover_pass": null' in line
    assert "weak-lp" in json.loads(line)["note"]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_nets_verify_one_point_net_prints_strict_json(tmp_path, capsys):
    net_file = tmp_path / "one.json"
    assert run(["nets", "--construct", "greedy", "--dim", 1, "--epsilon", 2,
                "--out", net_file]) == 0
    capsys.readouterr()
    assert run(["nets", "--verify", net_file]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1],
                      parse_constant=_reject_constant)
    assert info["size"] == 1 and info["min_pairwise"] is None


def test_nets_sparse_bound_overflow_exit_3(tmp_path, capsys):
    # C(2000, 1000) * 10^1000 overflows a float: the budget check still refuses
    out = tmp_path / "net.json"
    assert run(["nets", "--construct", "sparse", "--n", 2000, "--m", 1000,
                "--epsilon", 0.5, "--out", out]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded:")
    assert not out.exists()


def test_nets_sparse_construction(tmp_path):
    net_file = tmp_path / "net.json"
    assert run(["nets", "--construct", "sparse", "--n", 6, "--m", 1,
                "--epsilon", 0.5, "--ambient", "sphere", "--seed", 0,
                "--probes", 2000, "--out", net_file]) == 0
    obj = json.loads(net_file.read_text())
    assert obj["certified_cover"] is True
    assert obj["ambient"]["family"] == "sparse-sphere"


def test_recon_exponent_recomputable_from_csv(tmp_path):
    # the emitted CSV alone carries everything the regression needs
    out = tmp_path / "sweep.csv"
    assert run(["recon", "--kind", "bernoulli", "--n", 32, "--ball", "l1",
                "--t0-model", "weak-lp-extremal", "--seeds", "0:6",
                "--k-list", "4,8,16", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_k = {}
    for fields in rows:
        by_k.setdefault(int(fields[2]), []).append(float(fields[4]))
    ks = sorted(by_k)
    medians = [float(np.median(by_k[k])) for k in ks]
    slope = float(np.polyfit(np.log(ks), np.log(medians), 1)[0])
    assert slope < 0.0   # errors decay with k; the fit is reproducible offline


def test_recon_structured_sweep_config(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "ensemble": {"kind": "bernoulli", "n": 12},
        "ball": {"family": "l1", "dim": 12, "radius": 1.0},
        "t0_model": "sparse",
        "seeds": [0, 3],
        "k_list": [4, 6],
        "output": str(tmp_path / "sweep.csv"),
    }))
    assert run(["recon", "--config", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "bernoulli", "n": 8, "k": 4, "seed": 1}))
    out = tmp_path / "m.ripl"
    assert run(["gen", "--config", cfg, "--out", out, "--k", 2]) == 0
    assert matrix_from_binary(out.read_bytes()).shape == (2, 8)


def test_missing_config_exit_2(tmp_path):
    assert run(["gen", "--config", tmp_path / "nope.json",
                "--out", tmp_path / "m.ripl"]) == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["rip", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["gen", "rip"])
def test_missing_seed_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    extra = ["--sparsity", "1"] if command == "rip" else []
    assert run([command, "--kind", "bernoulli", "--n", 8, "--k", 4,
                "--out", out, *extra]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


RIP = ["rip", "--kind", "bernoulli", "--n", 8, "--k", 4, "--seed", 1, "--sparsity", "2"]
UUP = ["uup", "--kind", "bernoulli", "--n", 8, "--k", 4, "--theta", 0.5, "--lam", 2.0,
       "--seeds", "0:2"]


@pytest.mark.parametrize("argv,flag", [
    (RIP + ["--method", "mc", "--trials", 0], "--trials"),
    (UUP + ["--method", "mc", "--trials", 0], "--trials"),
    (RIP + ["--threads", 0], "--threads"),
    (UUP + ["--threads", -1], "--threads"),
    (RIP + ["--budget", 0], "--budget"),
    (["nets", "--construct", "sparse", "--n", 6, "--m", 1, "--epsilon", 0.5,
      "--seed", 0, "--budget", 0], "--budget"),
    (["nets", "--construct", "greedy", "--dim", 2, "--epsilon", 0.5, "--seed", 0,
      "--probes", 0], "--probes"),
    (["nets", "--construct", "greedy", "--dim", 2, "--epsilon", 0.5, "--seed", 0,
      "--stall-limit", 0], "--stall-limit"),
    (["recon", "--kind", "bernoulli", "--n", 12, "--ball", "l1", "--t0-model", "sparse",
      "--sparsity", 0, "--seeds", "0:2", "--k-list", "4"], "--sparsity"),
    (["nets", "--construct", "sparse", "--n", 6, "--m", 1, "--epsilon", 0.5,
      "--seed", 0, "--budget", "nan"], "--budget"),
], ids=["rip-trials", "uup-trials", "rip-threads", "uup-threads", "rip-budget",
        "nets-budget", "nets-probes", "nets-stall-limit", "recon-sparsity",
        "nets-budget-nan"])
def test_count_below_one_exit_1(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_calls_in_one_process_share_the_parser_cleanly(tmp_path, monkeypatch):
    trials = []

    def spy(*args, **kwargs):
        trials.append(kwargs["trials"])
        return check_uup(*args, **kwargs)

    monkeypatch.setattr(cli, "check_uup", spy)
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 7, "method": "mc"}))
    assert run(RIP + ["--out", first]) == 0
    assert run(UUP + ["--method", "mc", "--trials", 0, "--out", tmp_path / "u0"]) == 1
    assert run(RIP + ["--frobnicate", 3, "--out", tmp_path / "r1"]) == 1
    assert run(UUP + ["--config", cfg, "--out", tmp_path / "u1"]) == 0
    assert run(UUP + ["--method", "mc", "--out", tmp_path / "u2"]) == 0
    assert run(RIP + ["--out", last]) == 0
    assert trials == [7, 7, 1000, 1000]        # two seeds a sweep
    assert first.read_bytes() == last.read_bytes()


def test_concurrent_calls_write_what_serial_calls_write(tmp_path):
    argvs = [RIP + ["--method", "mc", "--trials", 300], UUP, RIP, UUP + ["--method", "mc"]]
    for i, argv in enumerate(argvs):
        assert run(argv + ["--out", tmp_path / f"serial{i}.csv"]) == 0
    codes = {}

    def call(i):
        codes[i] = run(argvs[i] + ["--out", tmp_path / f"thread{i}.csv"])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(argvs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert codes == {i: 0 for i in range(len(argvs))}
    for i in range(len(argvs)):
        assert (tmp_path / f"thread{i}.csv").read_bytes() == \
            (tmp_path / f"serial{i}.csv").read_bytes()


RECON = ["recon", "--kind", "bernoulli", "--n", 12, "--ball", "l1", "--t0-model", "sparse",
         "--seeds", "0:2", "--k-list", "4"]


@pytest.mark.parametrize("config,argv,prefix", [
    ({"n": "abc"}, ["gen", "--kind", "bernoulli", "--k", 2, "--seed", 1], "usage error:"),
    ([8, 4], ["gen", "--kind", "bernoulli", "--n", 8, "--k", 4, "--seed", 1],
     "usage error:"),
    ({"frobnicate": 3}, ["gen", "--kind", "bernoulli", "--n", 8, "--k", 4, "--seed", 1],
     "usage error:"),
    ({"table": "net\x00.csv"}, ["nets", "--construct", "greedy", "--dim", 2,
                                  "--epsilon", 0.5], "usage error:"),
    (None, UUP + ["--seed", 3], "usage error:"),
    (None, UUP[:-1] + ["0:99999999999999999999999"], "usage error:"),
    (None, UUP[:-1] + ["3:"], "usage error:"),
    (None, ["nets", "--construct", "greedy", "--dim", 2, "--epsilon", "nan"],
     "invalid parameters:"),
    (None, ["nets", "--construct", "sparse", "--n", 6, "--m", 1, "--epsilon", "nan"],
     "invalid parameters:"),
    (None, ["nets", "--construct", "sparse", "--n", 8, "--m", 2, "--epsilon", 0],
     "invalid parameters:"),
    (None, ["nets", "--construct", "sparse", "--n", 8, "--m", 2, "--epsilon=-1e-300"],
     "invalid parameters:"),
    (None, ["nets", "--construct", "difference", "--n", 4, "--m", 1, "--radius", 0.5,
            "--epsilon", "nan"], "usage error:"),
    (None, ["nets", "--construct", "difference", "--n", 4, "--m", 1, "--radius", 0.5,
            "--ambient", "ball"], "usage error:"),
    (None, UUP + ["--lam", "nan"], "invalid parameters:"),
    (None, RECON + ["--radius", "nan"], "invalid parameters: radius"),
    (None, RECON + ["--radius", "inf"], "invalid parameters: radius"),
    (None, RECON + ["--sparsity", 13], "invalid parameters:"),
    (None, RECON + ["--solver", "exact"], "usage error:"),
], ids=["config-bad-int", "config-list", "config-unknown-key", "config-nul-path",
        "uup-seed", "uup-seeds-too-long", "uup-seeds-open-end",
        "nets-greedy-epsilon-nan", "nets-sparse-epsilon-nan", "nets-sparse-epsilon-0",
        "nets-sparse-epsilon-negative",
        "nets-difference-epsilon-nan", "nets-difference-ambient", "uup-lam-nan",
        "recon-radius-nan", "recon-radius-inf", "recon-sparsity-above-n", "recon-solver"])
def test_bad_input_exit_1_one_line(tmp_path, capsys, config, argv, prefix):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", cfg]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert not out.exists()


# A valid base config that generated entries may override or break.
BASE_CONFIG = {"kind": "bernoulli", "n": 8, "k": 4, "seed": 1, "out": "out"}
GEN_KEYS = ["kind", "n", "k", "seed", "out", "format", "config", "threads",
            "ensemble", "output"]
RIP_KEYS = GEN_KEYS[:5] + ["sparsity", "method", "trials", "mc-seed", "mc_seed",
                           "budget", "config", "threads", "ensemble", "output"]
# No '/', so every path a command writes stays in the working directory, and no
# decimal digit, so a text value never parses as an int outside [-2, 16].
TEXT = (st.text(st.characters(exclude_categories=("Nd",), exclude_characters="/"),
                max_size=10)
        | st.sampled_from(["gaussian", "uniform-sphere-row", "csv", "exact", "mc"]))
SCALARS = st.none() | st.integers(-2, 16) | st.floats() | TEXT


@pytest.mark.parametrize("argv,keys", [(["gen"], GEN_KEYS),
                                       (["rip", "--sparsity", "1"], RIP_KEYS)],
                         ids=["gen", "rip"])
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_exits_with_documented_code(tmp_path, monkeypatch, argv, keys,
                                               data):
    # mostly flag names, so that most configs get past the unknown-key check
    key = st.sampled_from([*keys, None]).flatmap(lambda k: TEXT if k is None else st.just(k))
    value = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(key, inner, max_size=3), max_leaves=6)
    config = {**BASE_CONFIG, **data.draw(st.dictionaries(key, value, max_size=2))}
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(argv + ["--config", str(cfg)]) in (0, 1, 2, 3)
