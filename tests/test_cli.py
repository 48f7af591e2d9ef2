"""End-to-end tests of the command-line front end."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gtftlab import cli, ehrenfest, games, meanfield
from gtftlab.cli import main

from test_games import (
    DONATION,
    assert_near_reference,
    mp_payoff,
    reference_gtft_payoff,
    reference_payoff_closed,
)

SIM_FLAGS = [
    "simulate", "--n", "40", "--alpha", "0.25", "--beta", "0.25", "--k", "3",
    "--g-hat", "0.25", "--steps", "2000", "--seed", "7",
]


def read_manifest(path):
    return json.loads(path.read_text())


# ------------------------------------------------------------------ simulate


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(SIM_FLAGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,z_1,z_2,z_3,avg_generosity"
    assert len(lines) == 2 + 2000 // 40  # header, t=0, every n=40 steps
    manifest = read_manifest(tmp_path / "traj.csv.manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["config"]["record_every"] == 40
    assert manifest["seed"] == 7
    assert manifest["outputs"] == [str(out)]


def test_simulate_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_FLAGS + ["--out", str(out1)]) == 0
    assert main(SIM_FLAGS + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_different_seed_differs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(SIM_FLAGS + ["--out", str(out1)])
    main(SIM_FLAGS[:-1] + ["8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_zero_steps(tmp_path):
    out = tmp_path / "traj.csv"
    flags = [f if f != "2000" else "0" for f in SIM_FLAGS]
    assert main(flags + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_simulate_validation_failure_writes_nothing(tmp_path):
    out = tmp_path / "traj.csv"
    for bad in (
        [f if f != "40" else "41" for f in SIM_FLAGS],  # 0.25 * 41 not integral
        SIM_FLAGS + ["--init-counts", "1", "2"],
        [f if f != "2000" else "-1" for f in SIM_FLAGS],
        SIM_FLAGS + ["--record-every", "-1"],
    ):
        assert main(bad + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "traj.csv.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    SIM_FLAGS,
    ["stationary", "--beta", "0.25", "--k", "3"],
    ["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--trials", "5", "--seed", "1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 36.4 TiB"), "Unable to allocate 36.4 TiB"),
    (MemoryError(), "an allocation failed"),
])
def test_running_out_of_memory_is_a_limit_exit(argv, error, message, tmp_path, monkeypatch,
                                               capsys, request):
    # a huge --n, --m or --k once ended main() on a MemoryError traceback; the
    # command raises it here, since a real allocation could succeed and fill the host
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", exhausted)
    # the cached parser holds the commands it was built with
    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    out = tmp_path / "x.out"
    assert main(argv + ["--out", str(out)]) == cli.EXIT_LIMIT
    assert capsys.readouterr() == ("", f"error: out of memory: {message}\n")
    assert list(tmp_path.iterdir()) == []


# sha256 of the CSV and of the manifest's config (json.dumps, sorted keys) for
# --out traj.csv, fixed before run() streamed its records
PINNED = {
    "idealized": (
        ["--n", "40"],
        "8eaaf821a5c69802c157ed589c52354a97f82b36a79ead5faf7be0bb7a2293e1",
        "c4594a8c80d9052e3d415cf9a742c27194c6e21e761acdceb312a07ceb959134",
    ),
    "distinct-pair": (
        ["--n", "20", "--pairing", "distinct-pair", "--record-every", "7",
         "--init-counts", "4", "3", "3"],
        "88bd6f44ad14af4980ca0ba5dce00931e83356e55c39b6ef92f795b33abe0cf9",
        "d622d9f00d7133af4563402863582646c9c765615adb888e4a3344ca1da079b1",
    ),
}


@pytest.mark.parametrize("flags,csv_sha,config_sha", PINNED.values(), ids=PINNED.keys())
def test_simulate_bytes_are_pinned(tmp_path, monkeypatch, flags, csv_sha, config_sha):
    monkeypatch.chdir(tmp_path)
    argv = [f if f != "2000" else "100000" for f in SIM_FLAGS if f not in ("--n", "40")]
    assert main(argv + flags + ["--out", "traj.csv"]) == 0
    assert hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest() == csv_sha
    config = read_manifest(tmp_path / "traj.csv.manifest.json")["config"]
    assert hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest() == config_sha


def test_simulate_streams_its_csv(tmp_path):
    # 50,001 records; held as one list of lines the run peaked at 13.4 MB,
    # streamed it holds about one block of 2**16 draws (6.1 MB)
    argv = [f if f != "2000" else "50000" for f in SIM_FLAGS]
    tracemalloc.start()
    try:
        assert main(argv + ["--record-every", "1", "--out", str(tmp_path / "traj.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 2 + 50_000
    assert peak < 8e6


def test_simulate_explicit_init_counts(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(SIM_FLAGS + ["--init-counts", "20", "0", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,20,0,0,0.0"


# ------------------------------------------------------------------ stationary


def test_stationary_chain_mode_with_exact(tmp_path, capsys):
    code = main(["stationary", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--exact"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([1 / 7, 2 / 7, 4 / 7])
    assert payload["exact_solver"]["tv_diff"] < 1e-10
    assert payload["exact_solver"]["detailed_balance_residual"] < 1e-12
    assert payload["exact_solver"]["exact_p"] == pytest.approx([1 / 7, 2 / 7, 4 / 7])


def test_stationary_beta_mode(capsys):
    assert main(["stationary", "--beta", "0.25", "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([1 / 13, 3 / 13, 9 / 13])


def test_stationary_balanced_is_uniform(capsys):
    assert main(["stationary", "--k", "4", "--a", "0.3", "--b", "0.3", "--m", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([0.25] * 4)


def test_stationary_cap_exceeded_degrades_gracefully(capsys):
    code = main(["stationary", "--k", "6", "--a", "0.4", "--b", "0.2", "--m", "20",
                 "--exact", "--cap", "100"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_solver"] is None
    assert "exceeds cap" in payload["note"]


def test_stationary_residual_failure_is_limit_exit(monkeypatch, capsys):
    solve = ehrenfest._solve
    monkeypatch.setattr(ehrenfest, "_solve", lambda params, cap: solve(params, cap, tol=1e-20))
    code = main(["stationary", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--exact"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == "" and "residual" in out.err


def reference_exact_block(params, cap=ehrenfest.DEFAULT_STATE_CAP):
    """The exact_solver block read off the public route: solve, enumerate, closed pmf, balance."""
    _, exact = ehrenfest.solve_stationary_exact(params, cap=cap)
    counts = ehrenfest.state_array(params.k, params.m, cap)
    closed_pmf = np.exp(ehrenfest.stationary_closed(params).log_pmf(counts))
    return {
        "n_states": len(counts),
        "exact_p": (exact @ counts / params.m).tolist(),
        "tv_diff": ehrenfest.tv_distance(exact, closed_pmf),
        "max_pointwise_diff": float(np.abs(exact - closed_pmf).max()),
        "detailed_balance_residual": ehrenfest.detailed_balance_residual(params, cap=cap),
    }


EXACT_BLOCKS = [
    (["--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4"], (3, 0.4, 0.2, 4)),
    (["--k", "6", "--a", "0.7", "--b", "0.3", "--m", "20"], (6, 0.7, 0.3, 20)),
    (["--beta", "0.25", "--k", "3", "--m", "30"], (3, 0.75, 0.25, 30)),
    (["--beta", "5e-324", "--k", "3", "--m", "4"], (3, 1 - 5e-324, 5e-324, 4)),
]


@pytest.mark.parametrize("argv, params", EXACT_BLOCKS, ids=[" ".join(a) for a, _ in EXACT_BLOCKS])
def test_stationary_exact_block_equals_the_public_route_bitwise(argv, params, capsys):
    assert main(["stationary", *argv, "--exact"]) == 0
    block = json.loads(capsys.readouterr().out)["exact_solver"]
    params = ehrenfest.EhrenfestParams(*params)
    # the solver's residual against ||pi P - pi||_1 from the sparse kernel
    _, exact = ehrenfest.solve_stationary_exact(params)
    _, _, kernel = ehrenfest.build_kernel(params)
    residual = block.pop("solver_residual")
    assert abs(residual - float(np.abs(exact @ kernel - exact).sum())) <= 1e-15
    assert 0 <= residual <= 1e-12
    reference = reference_exact_block(params)
    assert block == json.loads(json.dumps(reference))


def test_stationary_exact_enumerates_once_and_builds_the_moves_once(monkeypatch, capsys):
    # the solve, state_array and detailed_balance_residual once enumerated 3 times and built
    # the moves twice per run; now one chain serves a run, and a memoized one every later run
    calls = {"_build_chain": 0, "_states_and_table": 0, "_kernel_moves": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(ehrenfest, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(ehrenfest, name, counted)
    # two runs each: 15 states are memoized, 1,771 are built per call
    for k, m, builds in ((3, 4, 1), (4, 20, 2)):
        ehrenfest._small_chain.cache_clear()
        calls.update(dict.fromkeys(calls, 0))
        argv = ["stationary", "--k", str(k), "--a", "0.4", "--b", "0.2", "--m", str(m), "--exact"]
        for _ in range(2):
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)["exact_solver"]
            assert report["n_states"] == ehrenfest.state_count(k, m)
        # each run reads the rates off the moves once
        assert calls == {"_build_chain": builds, "_states_and_table": builds, "_kernel_moves": 2}


@pytest.mark.parametrize("k, m, memoized", [(3, 4, True), (4, 20, False)],
                         ids=["15 states, memoized", "1,771 states, built per call"])
def test_stationary_exact_counts_its_states_in_the_manifest(k, m, memoized, capsys):
    argv = ["stationary", "--k", str(k), "--a", "0.4", "--b", "0.2", "--m", str(m)]
    assert main([*argv, "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["manifest"]["counters"] == {
        "states_enumerated": ehrenfest.state_count(k, m), "chain_memoized": memoized}
    assert "counters" not in report["exact_solver"]
    # a run with no solve enumerates nothing and writes no counters
    assert main(argv) == 0
    assert "counters" not in json.loads(capsys.readouterr().out)["manifest"]


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = [sys.executable, "-m", "gtftlab"]
    done = subprocess.run([*run, "--help"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert "stationary" in done.stdout
    done = subprocess.run([*run, "stationary", "--k", "three"], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 2
    assert "invalid int value" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("m", ["-5", "0"])
def test_stationary_beta_mode_checks_its_ball_count(m, capsys):
    # with no --exact, beta mode once exited 0 and echoed the bad m
    assert main(["stationary", "--beta", "0.25", "--k", "3", "--m", m]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "need an integer m >= 1" in out.err


@pytest.mark.parametrize("argv", [
    ["stationary", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--exact", "--cap", "-5"],
    ["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--trials", "5",
     "--seed", "5", "--exact-scan", "--cap", "-3"],
], ids=["stationary", "mixing"])
def test_an_exact_run_refuses_a_cap_below_1(argv, capsys):
    # both once exited 0 with the note "15 states exceeds cap -5" (or -3)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "need an integer cap >= 1" in out.err


def test_stationary_missing_args_is_config_error(capsys):
    assert main(["stationary", "--k", "3"]) == 2


def test_stationary_beta_mode_needs_two_urns(capsys):
    for k in ("1", "0", "-1"):
        assert main(["stationary", "--beta", "0.3", "--k", k]) == 2
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------------ mixing


def test_mixing_single_instance(capsys):
    code = main(["mixing", "--k", "2", "--a", "0.25", "--b", "0.25", "--m", "8",
                 "--trials", "100", "--epsilon", "0.25", "--seed", "5", "--exact-scan"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"]["t_hat"] <= payload["bound"]
    assert payload["exact_tmix"] <= payload["estimate"]["t_hat"]
    assert payload["estimate"]["trials"] == 100


def test_mixing_exact_scan_uses_epsilon(capsys):
    code = main(["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "8",
                 "--trials", "20", "--epsilon", "0.1", "--seed", "5", "--exact-scan"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    params = ehrenfest.EhrenfestParams(k=3, a=0.4, b=0.2, m=8)
    assert payload["exact_tmix"] == ehrenfest.tmix_exact(params, 0.1).t_hat
    assert payload["exact_tmix"] != ehrenfest.tmix_exact(params, 0.25).t_hat


def test_mixing_sweep_sorted(capsys):
    code = main(["mixing", "--k", "3", "--a", "0.6", "--b", "0.2", "--m", "8",
                 "--trials", "50", "--seed", "5", "--sweep", "m=16,8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in payload["rows"]] == [8, 16]


def test_mixing_malformed_sweep_is_config_error(capsys):
    base = ["mixing", "--k", "3", "--a", "0.6", "--b", "0.2", "--m", "8",
            "--trials", "5", "--seed", "1", "--sweep"]
    for sweep in ("m8,16", "j=8,16", "m=8,x", "m="):
        assert main(base + [sweep]) == 2


def test_mixing_step_limit_exit_code(capsys):
    code = main(["mixing", "--k", "4", "--a", "0.3", "--b", "0.3", "--m", "16",
                 "--trials", "5", "--seed", "5", "--step-limit", "3"])
    assert code == 3
    # rounding keeps the exact distance above an epsilon this small
    code = main(["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4",
                 "--trials", "5", "--seed", "5", "--epsilon", "1e-18", "--exact-scan"])
    assert code == 3


def test_mixing_step_limit_reaches_the_exact_scan(capsys):
    # the coupling meets within 1000 steps here; the scan once ran to its own 1921
    argv = ["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--trials", "5",
            "--seed", "5", "--epsilon", "1e-18", "--exact-scan", "--step-limit", "1000"]
    assert main(argv) == 3
    assert "distance stayed above 1e-18 through t=1000" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["1e-300", "5e-324"])
def test_mixing_at_rates_near_the_float_floor_is_a_step_limit_exit(rate, capsys):
    # each coupling needs about m k^2 / (2 rate) steps, past int64; these
    # once exited 2 with numpy's "lam value too large"
    code = main(["mixing", "--k", "3", "--a", rate, "--b", rate, "--m", "4", "--seed", "5"])
    assert code == 3
    assert "coupling did not coalesce" in capsys.readouterr().err


def test_mixing_rejects_a_negative_step_limit_or_no_trials(capsys):
    base = ["mixing", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4", "--seed", "5"]
    # -1 once ended on StepLimitError "within -1 steps", exit 3
    assert main(base + ["--step-limit", "-1"]) == 2
    assert "step_limit" in capsys.readouterr().err
    assert main(base + ["--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


# ------------------------------------------------------------------ payoff / optimality


def test_payoff_command_closed_series_mc(capsys):
    code = main(["payoff", "--me", "gtft:0.2", "--opp", "alld", "--b", "3", "--c", "2",
                 "--delta", "0.9", "--mc-games", "50000", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form"] == pytest.approx(-4.6)
    assert sorted(payload) == ["closed_form", "manifest", "me", "monte_carlo", "opp"]
    mc = payload["monte_carlo"]
    assert abs(mc["mean"] - (-4.6)) < 4 * mc["std_error"]


@pytest.mark.parametrize("me,row", [("gtft:0.2", games.gtft(0.2)), ("allc", games.ALLC)])
def test_payoff_closed_form_near_delta_one(capsys, me, row):
    # a series to 1e-10 would need 4.7e11 terms here; it once ran past 300 s
    delta = 0.9999999999
    assert main(["payoff", "--me", me, "--opp", "gtft:0.1", "--b", "3", "--c", "2",
                 "--delta", str(delta)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["closed_form", "manifest", "me", "opp"]
    exact = mp_payoff(row, games.gtft(0.1), games.GameConfig(delta), DONATION)
    assert abs(payload["closed_form"] - float(exact)) <= 1e-15 * 3 / (1 - delta)


def test_payoff_mc_games_ends_near_delta_one(capsys):
    # games of about 1e10 rounds each; playing them round by round never ended
    t0 = time.perf_counter()
    code = main(["payoff", "--me", "gtft:0.2", "--opp", "gtft:0.1", "--b", "3", "--c", "2",
                 "--delta", "0.9999999999", "--mc-games", "2"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["monte_carlo"]["mean_rounds"])


def test_payoff_mc_games_needs_two_for_a_standard_error(capsys):
    argv = ["payoff", "--me", "gtft:0.2", "--opp", "alld", "--b", "3", "--c", "2",
            "--delta", "0.9", "--mc-games"]
    assert main(argv + ["1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(argv + ["0"]) == 0
    assert "monte_carlo" not in json.loads(capsys.readouterr().out)


def test_payoff_has_no_tol_flag(tmp_path, capsys):
    # the series' truncation error; a manifest recorded with it replays with exit 2
    argv = ["payoff", "--me", "gtft:0.2", "--opp", "alld", "--b", "3", "--c", "2",
            "--delta", "0.9"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol": 1e-10}))
    for extra in (["--tol", "1e-10"], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err


def test_payoff_rejects_bad_strategy(capsys):
    assert main(["payoff", "--me", "grudger", "--opp", "alld", "--b", "3", "--c", "2",
                 "--delta", "0.9"]) == 2


def test_optimality_low_regime_example(capsys):
    code = main(["optimality", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25",
                 "--alpha", "0.25", "--beta", "0.05", "--n", "100"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "low"
    assert payload["g_star"] == 0.25
    assert payload["phi"] == pytest.approx(0.05 / 0.7)
    assert payload["low_phi_threshold"] == pytest.approx(40 / 169)


def test_optimality_with_k_reports_gap(capsys):
    code = main(["optimality", "--b", "3", "--c", "1", "--delta", "0.5", "--g-hat", "0.25",
                 "--alpha", "0.05", "--beta", "0.25", "--n", "100", "--k", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] <= payload["gap_bound"]
    assert 0 <= payload["avg_stationary_generosity"] <= 0.25


def test_optimality_refuses_a_small_game_that_is_not_a_donation_game(capsys):
    # P is half of R here; an absolute 1e-12 tolerance once read it as a donation game
    argv = ["optimality", "--T", "3e-12", "--R", "1e-12", "--P", "5e-13", "--S=-2e-12",
            "--delta", "0.9", "--g-hat", "0.25", "--alpha", "0.1", "--beta", "0.1", "--n", "100"]
    assert main(argv) == 2
    assert "not a donation-game reward vector" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-7", "0"])
def test_optimality_checks_its_node_count(n, capsys):
    # optimal_generosity once dropped n unread, and the report echoed it
    assert main(["optimality", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25",
                 "--alpha", "0.1", "--beta", "0.1", "--n", n]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "need an integer n >= 1" in out.err


def test_optimality_impossible_fractions_are_config_errors(tmp_path, capsys):
    base = ["optimality", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25",
            "--beta", "0.1", "--n", "100"]
    for alpha in ("-0.5", "nan"):
        out = tmp_path / f"opt{alpha}.json"
        assert main(base + ["--alpha", alpha, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# ------------------------------------------------------------------ compare


def test_compare_emits_fig_shaped_table(tmp_path):
    out = tmp_path / "compare.csv"
    code = main(["compare", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25",
                 "--k", "6", "--m", "20", "--populations", "0.25,0.25;0.3,0.3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == [
        "alpha", "beta", "g", "F_meanfield", "F_granular", "avg_generosity",
        "F_meanfield_at_avg",
    ]
    assert len(lines) == 1 + 2 * 6  # two populations, six grid points each
    manifest = read_manifest(tmp_path / "compare.csv.manifest.json")
    assert manifest["command"] == "compare"


COMPARE = ["compare", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25", "--m", "20"]


def test_compare_refuses_payoff_tables_past_the_cap(tmp_path, capsys):
    # k x k payoff tables: k = 5000 was killed for want of memory, before any MemoryError
    out = tmp_path / "compare.csv"
    assert main([*COMPARE, "--k", "5000", "--populations", "0.25,0.25", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", "error: k x k payoff tables at k=5000 exceed cap 1000000\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    SIM_FLAGS[:7] + ["--k", "300000000"] + SIM_FLAGS[9:],
    ["optimality", *COMPARE[1:-2], "--alpha", "0.25", "--beta", "0.25", "--n", "40",
     "--k", "300000000"],
], ids=["simulate", "optimality"])
def test_a_huge_k_is_refused_before_its_grid_is_built(argv, tmp_path, capsys):
    # a tuple of 3*10^8 generosity values once ended only on the allocator
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == (
        "", "error: k=300000000 generosity values exceed cap 1000000\n")
    assert not out.exists()
    assert peak < 5e6


@pytest.mark.parametrize("populations", ["0.25,0.25,0.1", "0.25,0.25;", "0.25,x"])
def test_compare_names_a_malformed_populations_flag(populations, tmp_path, capsys):
    # a third value and a trailing ';' once exited 2 on a tuple-unpacking message
    out = tmp_path / "compare.csv"
    assert main([*COMPARE, "--k", "3", "--populations", populations, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --populations must look like 0.25,0.25;0.3,0.2, got {populations!r}\n")
    assert not out.exists()


# sha256 of the README's payoff report (json.dumps, sorted keys, without the
# manifest, which holds the time) and of its compare CSV: first from the
# round-chain solve, then from the reference forms, as recorded before that
# solve; the payoff digest leaves out the Monte Carlo block, pinned on its own below,
# and was re-recorded when the report dropped its series and series_tol fields
README_REPORTS = {
    "payoff": (
        ["payoff", "--me", "gtft:0.2", "--opp", "alld", "--b", "3", "--c", "2",
         "--delta", "0.9", "--mc-games", "1000000", "--seed", "1"],
        "3861f4127984ccfd1562ea7625c2ad1af473452f6169fe3d53864d4c315a1b75",
        "c9755a6f03763ee17516fefb26ed76b27c5262161e7125f9c62a6bf559f87000",
    ),
    "compare": (
        ["compare", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25", "--k", "6",
         "--m", "20", "--populations", "0.4,0.1;0.3,0.2;0.25,0.25;0.2,0.3;0.1,0.4",
         "--out", "compare.csv"],
        "b9362cfe039b991e15da86212b1b8c838ae6672149b591db29e96ee8f87c25de",
        "222de05c5124ac32170b788230754cae91c3adb0d3e8c47c4b51aed71bdc5e57",
    ),
}


# the payoff report's Monte Carlo block, recorded when simulate_games began
# sampling each game's state counts from its two alternating chains
README_PAYOFF_MC = {
    "games": 1000000,
    "mean": -4.592944,
    "mean_rounds": 9.998444,
    "opp_mean": 6.889416,
    "std_error": 0.004591886594667436,
}


def readme_report(argv, tmp_path, capsys) -> bytes:
    """What the README digests cover: the compare CSV, or the payoff report's JSON."""
    assert main(argv) == 0
    if argv[0] == "compare":
        return (tmp_path / "compare.csv").read_bytes()
    payload = json.loads(capsys.readouterr().out)
    del payload["manifest"]
    mc = payload.pop("monte_carlo")
    assert mc == README_PAYOFF_MC
    assert abs(mc["mean"] - payload["closed_form"]) <= 3 * mc["std_error"]
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("name", README_REPORTS)
def test_readme_payoff_reports_are_pinned(tmp_path, monkeypatch, capsys, name):
    argv, sha, _ = README_REPORTS[name]
    monkeypatch.chdir(tmp_path)
    assert hashlib.sha256(readme_report(argv, tmp_path, capsys)).hexdigest() == sha


@pytest.mark.parametrize("name", README_REPORTS)
def test_readme_payoff_reports_match_the_reference_forms(tmp_path, monkeypatch, capsys, name):
    argv, _, reference_sha = README_REPORTS[name]
    monkeypatch.chdir(tmp_path)
    body = readme_report(argv, tmp_path, capsys)
    monkeypatch.setattr(games, "expected_payoff_closed", reference_payoff_closed)
    monkeypatch.setattr(meanfield, "expected_payoff_closed", reference_gtft_payoff)
    reference = readme_report(argv, tmp_path, capsys)
    assert hashlib.sha256(reference).hexdigest() == reference_sha
    tokens = [re.split(r"[,:\s]+", text.decode()) for text in (body, reference)]
    for token, ref_token in zip(*tokens, strict=True):
        try:
            value, ref_value = float(token), float(ref_token)
        except ValueError:
            assert token == ref_token
        else:
            assert_near_reference(value, ref_value)


# ------------------------------------------------------------------ config file


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 0.25, "k": 3}))
    assert main(["--config", str(cfg_file), "stationary"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([1 / 13, 3 / 13, 9 / 13])


def test_config_file_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 0.25, "k": 3}))
    assert main(["--config", str(cfg_file), "stationary", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([0.25, 0.75])


def test_config_equals_form(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 0.25, "k": 3}))
    assert main([f"--config={cfg_file}", "stationary"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([1 / 13, 3 / 13, 9 / 13])
    assert main([f"--config={cfg_file}", "stationary", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form_p"] == pytest.approx([0.25, 0.75])
    assert main(["--config=", "stationary"]) == 2


def test_missing_config_file_is_config_error():
    assert main(["--config", "/nonexistent/path.json", "stationary"]) == 2


def test_config_flag_without_path_is_config_error(capsys):
    assert main(["stationary", "--k", "3", "--config"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------------ replay

GAME = ["--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25"]
REPLAYED = {
    "simulate": (SIM_FLAGS + ["--record-every", "0"], "csv"),
    "stationary": (["stationary", "--k", "3", "--a", "0.4", "--b", "0.2", "--m", "4",
                    "--exact"], "json"),
    "stationary-beta": (["stationary", "--beta", "0.25", "--k", "3"], "json"),
    "mixing": (["mixing", "--k", "3", "--a", "0.6", "--b", "0.2", "--m", "8", "--trials", "20",
                "--seed", "5", "--sweep", "m=8,4", "--exact-scan"], "json"),
    "payoff": (["payoff", "--me", "gtft:0.2", "--opp", "alld", *GAME, "--mc-games", "500",
                "--seed", "3"], "json"),
    "optimality": (["optimality", *GAME, "--alpha", "0.25", "--beta", "0.05", "--n", "100",
                    "--k", "4"], "json"),
    "compare": (["compare", *GAME, "--k", "3", "--m", "4", "--populations",
                 "0.25,0.25;0.3,0.2"], "csv"),
}


def _run_record(argv, kind, out):
    """Run once; return the data bytes (CSV) or report (JSON) and the manifest."""
    assert main(argv + ["--out", str(out)]) == 0
    if kind == "csv":
        return out.read_bytes(), read_manifest(out.with_name(out.name + ".manifest.json"))
    report = json.loads(out.read_text())
    return report, report.pop("manifest")


@pytest.mark.parametrize("argv,kind", REPLAYED.values(), ids=REPLAYED.keys())
def test_manifest_config_replays_the_run(tmp_path, argv, kind):
    first, manifest = _run_record(argv, kind, tmp_path / f"first.{kind}")
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(manifest["config"]))
    fresh = tmp_path / f"replay.{kind}"
    second, replayed = _run_record([argv[0], "--config", str(config_file)], kind, fresh)
    assert second == first
    assert replayed["config"] == {**manifest["config"], "out": str(fresh)}
    for key in ("artifact_version", "command", "seed"):
        assert replayed[key] == manifest[key]


# ------------------------------------------------------------------ exit codes

# the replayed runs, with relative CSV paths, are the valid base argvs
FUZZ_BASE = {
    name: argv + ["--out", f"{name}.csv"] if kind == "csv" else argv
    for name, (argv, kind) in REPLAYED.items()
}
FUZZ_FLAGS = {
    "simulate": ["--n", "--alpha", "--beta", "--k", "--g-hat", "--steps", "--record-every",
                 "--init-counts", "--seed"],
    "stationary": ["--k", "--a", "--b", "--m", "--beta", "--cap"],
    "mixing": ["--k", "--a", "--b", "--m", "--epsilon", "--trials", "--sweep", "--step-limit",
               "--cap", "--seed"],
    "payoff": ["--b", "--c", "--R", "--S", "--T", "--P", "--delta", "--s1", "--g-hat",
               "--mc-games", "--seed"],
    "optimality": ["--b", "--c", "--delta", "--s1", "--g-hat", "--alpha", "--beta", "--n", "--k"],
    "compare": ["--b", "--c", "--delta", "--s1", "--g-hat", "--k", "--m", "--populations"],
}
DIRECTORY = "fuzz-dir"
FUZZ_VALUES = ["-1", "0", "1", "2", "3", "0.25", "0.5", "1.5", "nan", "inf", "x", "",
               DIRECTORY, "0.5,0.5"]


@st.composite
def cli_argvs(draw):
    base = FUZZ_BASE[draw(st.sampled_from(sorted(FUZZ_BASE)))]
    flags = st.sampled_from(FUZZ_FLAGS[base[0]] + ["--out", "--config"])
    pairs = draw(st.lists(st.tuples(flags, st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))
    return base + [word for pair in pairs for word in pair]


# one shared working directory for all examples, so the fixtures need no reset
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argvs())
@example(argv=FUZZ_BASE["stationary"] + ["--out", DIRECTORY])
@example(argv=FUZZ_BASE["simulate"] + ["--out", DIRECTORY])
@example(argv=FUZZ_BASE["mixing"] + ["--config", DIRECTORY])
@example(argv=FUZZ_BASE["compare"] + ["--populations", "0.5,0.5"])
@example(argv=FUZZ_BASE["payoff"] + ["--mc-games", "1"])
def test_exit_code_contract(argv, tmp_path, monkeypatch):
    """Any argv ends in exit code 0, 2 or 3, or argparse's exit 2; never a traceback."""
    # relative --out and --config values such as "x" resolve inside tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / DIRECTORY).mkdir(exist_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)


STRATEGY_SPECS = st.one_of(
    st.sampled_from(["allc", "alld"]),
    st.floats(0.0, 1.0).map("gtft:{!r}".format),
    st.sampled_from(["gtft:", "gtft:x", "tft", "gtft:nan", "gtft:-0.5", "gtft:1.5"]),
)
# games and series both grow like 1 / (1 - delta); the log scale reaches 1 - 1e-12
DELTAS = st.one_of(
    st.floats(0.0, 1 - 1e-12),
    st.floats(0.0, 12.0).map(lambda x: 1 - 10.0**-x),
    st.sampled_from([-0.5, 1.0, math.nan]),
)
PAYOFFS = st.floats(-100.0, 100.0)


@st.composite
def reward_flags(draw):
    """Donation or T > R > P > S flags, mostly valid; otherwise any floats.

    Also whether the flags are a donation game's, with b > c > 0.
    """
    form = draw(st.sampled_from(["donation", "ordered", "any"]))
    if form == "donation":
        cost = draw(st.floats(1e-3, 100.0))
        return [f"--b={cost + draw(st.floats(1e-3, 100.0))!r}", f"--c={cost!r}"], True
    flags = ["--T", "--R", "--P", "--S"]
    if form == "ordered":
        values = draw(st.lists(PAYOFFS, min_size=4, max_size=4, unique=True))
        values.sort(reverse=True)
    else:
        if draw(st.booleans()):
            flags = ["--b", "--c"]
        values = draw(st.lists(PAYOFFS | st.floats(), min_size=len(flags), max_size=len(flags)))
    # the = form, since argparse reads a word like -1e-05 as a flag
    return [f"{flag}={value!r}" for flag, value in zip(flags, values)], False


@st.composite
def payoff_argvs(draw):
    return [
        "payoff", "--me", draw(STRATEGY_SPECS), "--opp", draw(STRATEGY_SPECS),
        *draw(reward_flags())[0],
        "--delta", repr(draw(DELTAS)),
        "--s1", repr(draw(st.floats(0.0, 1.0))),
        "--mc-games", str(draw(st.integers(0, 1000))),
        "--seed", str(draw(st.integers(0, 2**32))),
    ]


def _refuse(constant):
    raise ValueError(f"{constant} is not a JSON number")


def strict_json(text):
    """The JSON value of ``text``; NaN and Infinity, which JSON lacks, raise."""
    return json.loads(text, parse_constant=_refuse)


def exit_code_and_stdout(argv):
    """main(argv)'s exit code, which must be 0, 2 or 3 and never a traceback, and its stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
    return code, out.getvalue()


OVERFLOW = ["payoff", "--me", "allc", "--opp", "alld", "--T", "1e308", "--R", "1", "--P", "0",
            "--S=-1e308", "--delta", "0.5", "--mc-games", "5"]
INFINITE_T = OVERFLOW[:6] + ["inf"] + OVERFLOW[7:]


# a payoff is one round-chain solve and at most 1000 games, whatever delta is
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(argv=payoff_argvs())
@example(argv=["payoff", "--me", "gtft:0.2", "--opp", "gtft:0.1", "--b", "3", "--c", "2",
               "--delta", repr(1 - 1e-12), "--mc-games", "1000"])
@example(argv=OVERFLOW)
@example(argv=INFINITE_T)
def test_payoff_exit_code_contract_over_the_whole_delta_range(argv):
    """Any payoff argv ends in exit code 0, 2 or 3 within the deadline; never a traceback.

    An exit-0 report is strict JSON: a payoff that overflowed is an error, not -Infinity.
    """
    code, out = exit_code_and_stdout(argv)
    if code == 0:
        strict_json(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_payoff_overflow_and_infinite_rewards_are_config_errors(capsys):
    # the first once printed "closed_form": -Infinity and exited 0; the second said only
    # "math domain error"
    assert main(OVERFLOW) == 2
    assert "overflowed to inf or nan" in capsys.readouterr().err
    assert main(INFINITE_T) == 2
    assert capsys.readouterr().err == "error: reward T must be finite, got inf\n"


# ------------------------------------------------------- exit-code properties
#
# One property per subcommand, each example held to a 10 s deadline. Every
# numeric flag is drawn negative, zero, in range, large, fractional-looking
# (for an integer flag) or not finite. Each draw is kept cheap: --cap <= 2000, --trials <= 50, --steps <= 10**4, and --k <= 64
# wherever the work is O(k**2) per move or per table (mixing, compare).

SPECIAL_REALS = [-0.5, 0.0, 1.5, 1e308, math.nan, math.inf]
ANY_REAL = st.one_of(st.floats(-1.0, 2.0), st.sampled_from(SPECIAL_REALS)).map(repr)


def real(lo, hi, **bounds):
    """A real flag's in-range words, and its any words: also negative, zero, large or not finite."""
    return st.floats(lo, hi, **bounds).map(repr), ANY_REAL


def count(lo, hi):
    """An integer flag's in-range words, and its any words: also negative, zero or fractional."""
    words = st.integers(lo, hi).map(str)
    return words, st.one_of(st.integers(-2, hi).map(str), st.sampled_from(["2.5", "1e3", "-0.5"]))


def drawn_flags(draw, required, optional=None):
    """``--flag=word`` for every required flag and a drawn subset of the optional ones.

    Each flag maps to its (in-range, any) words. No flag, one flag or every
    flag draws from its any words, so that most runs get past the checks to
    the work, and each check still meets every kind of bad value. Returns
    the words, and whether every one of them is an in-range word.
    """
    chosen = list(required.items())
    chosen += [item for item in (optional or {}).items() if draw(st.booleans())]
    wild = draw(st.sampled_from(["none", "all", *(flag for flag, _ in chosen)]))
    # the = form, since argparse reads a word like -1 or -0.5 after a flag as a flag
    argv = [f"{flag}={draw(words[wild in ('all', flag)])}" for flag, words in chosen]
    return argv, wild == "none"


RATE = real(0.0, 0.5, exclude_min=True)
SHARE = real(0.0, 0.45)
DEFECTORS = real(0.01, 0.45)
UNIT = real(0.0, 1.0)
SEED = count(0, 2**32)
GAME_DELTA = (DELTAS.filter(lambda d: 0 <= d < 1).map(repr), DELTAS.map(repr))


@st.composite
def stationary_argvs(draw):
    balls = {"--m": count(1, 10**9)}
    if draw(st.booleans()):  # --m only serves --exact here
        mode, optional = {"--beta": real(0.0, 1.0, exclude_min=True, exclude_max=True)}, balls
    else:
        mode, optional = {"--a": RATE, "--b": RATE, **balls}, {}
    argv, in_range = drawn_flags(draw, {"--k": count(2, 1000), "--cap": count(1, 2000), **mode},
                                 optional)
    return ["stationary", *argv] + ["--exact"] * draw(st.booleans()), in_range


def sweeps(least):
    """--sweep words: m= or k= with up to three values, or malformed."""
    values = st.lists(st.integers(least, 64), min_size=1, max_size=3)
    words = st.tuples(st.sampled_from("mk"), values).map(
        lambda sweep: f"{sweep[0]}=" + ",".join(map(str, sweep[1])))
    return words, st.one_of(words, st.sampled_from(["m=", "x=2", "k=2.5", "m=4,,8"]))


@st.composite
def mixing_argvs(draw):
    # the exact scan costs about 10-20 us per step at up to 200 states, and its
    # step count grows like m log m / (a + b) and, for an epsilon below rounding,
    # up to 4 * mixing_bound; so here --cap <= 200 and a, b >= 0.01, and epsilon
    # >= 0.01 unless a --step-limit <= 10^4 also ends the scan (see CHANGES.md)
    rate = real(0.01, 0.5)
    required = {"--k": count(2, 64), "--a": rate, "--b": rate, "--m": count(1, 10**4),
                "--trials": count(1, 50), "--cap": count(1, 200), "--seed": SEED}
    optional = {"--epsilon": real(0.01, 0.99), "--sweep": sweeps(2),
                "--step-limit": count(0, 10**9)}
    if draw(st.booleans()):
        required["--step-limit"] = count(0, 10**4)
        optional = {"--epsilon": real(0.0, 0.99, exclude_min=True), "--sweep": sweeps(2)}
    argv, _ = drawn_flags(draw, required, optional)
    return ["mixing", *argv] + ["--exact-scan"] * draw(st.booleans())


@st.composite
def optimality_argvs(draw):
    """The argv, and whether it is a donation game with every other flag in range."""
    argv, in_range = drawn_flags(
        draw,
        {"--delta": GAME_DELTA, "--g-hat": UNIT, "--alpha": SHARE, "--beta": DEFECTORS,
         "--n": count(1, 10**9)},
        {"--s1": real(0.0, 1.0, exclude_max=True), "--k": count(2, 10**5)},
    )
    rewards, donation = draw(reward_flags())
    return ["optimality", *rewards, *argv], donation and in_range


def populations():
    """--populations words: up to three alpha,beta pairs, or malformed."""
    pairs = st.lists(st.tuples(SHARE[0], DEFECTORS[0]), min_size=1, max_size=3)
    words = pairs.map(lambda pairs: ";".join(f"{alpha},{beta}" for alpha, beta in pairs))
    wild = st.lists(st.tuples(ANY_REAL, ANY_REAL), min_size=1, max_size=3).map(
        lambda pairs: ";".join(f"{alpha},{beta}" for alpha, beta in pairs))
    return words, st.one_of(wild, st.sampled_from(["", "0.25", "0.25,0.25,0.25", "a,b"]))


@st.composite
def compare_argvs(draw):
    argv, _ = drawn_flags(
        draw,
        {"--delta": GAME_DELTA, "--g-hat": UNIT, "--k": count(2, 64), "--m": count(1, 10**4),
         "--populations": populations()},
        {"--s1": real(0.0, 1.0, exclude_max=True)},
    )
    return ["compare", *draw(reward_flags())[0], *argv]


# fractions whose product with any multiple of 20 nodes is an integer
NODE_SHARE = (st.sampled_from([0.0, 0.05, 0.1, 0.25]).map(repr), ANY_REAL)


@st.composite
def simulate_argvs(draw):
    nodes = st.integers(1, 5000).map(lambda blocks: str(20 * blocks))
    argv, _ = drawn_flags(
        draw,
        {"--n": (nodes, count(2, 10**5)[1]), "--alpha": NODE_SHARE, "--beta": NODE_SHARE,
         "--k": count(2, 100), "--g-hat": UNIT, "--steps": count(0, 10**4), "--seed": SEED},
        {"--record-every": count(0, 10**4),
         "--pairing": (st.sampled_from(["idealized", "distinct-pair"]), st.just("x"))},
    )
    if draw(st.booleans()):
        argv += ["--init-counts", *map(str, draw(st.lists(st.integers(-1, 40), min_size=1,
                                                           max_size=4)))]
    return ["simulate", *argv]


def assert_report_contract(argv):
    """The exit-code contract, and strict JSON on stdout after exit 0; returns the exit code."""
    code, out = exit_code_and_stdout(argv)
    if code == 0:
        strict_json(out)
    return code


def assert_table_contract(argv, out):
    """The exit-code contract for a CSV subcommand, and a strict-JSON manifest after exit 0."""
    code, _ = exit_code_and_stdout(argv + ["--out", str(out)])
    if code == 0:
        strict_json(out.with_name(out.name + ".manifest.json").read_text())


PROPERTY = settings(max_examples=100, deadline=timedelta(seconds=10),
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(case=stationary_argvs())
# an up move of probability 5e-324 x / 4 underflows; the solve once warned and exited 3
@example(case=(["stationary", "--a=5e-324", "--b=0.5", "--k=3", "--m=4", "--exact"], True))
# C(m + k - 1, k - 1) has over 4300 digits, which str() refuses: the cap note once exited 2
@example(case=(["stationary", "--k=819", "--cap=853", "--a=0.17", "--b=0.15", "--m=708186270",
                "--exact"], True))
def test_stationary_exit_code_contract(case):
    """The exit-code contract; a draw with every flag in range is never a config error."""
    argv, in_range = case
    code = assert_report_contract(argv)
    if in_range:
        assert code in (0, 3)


# at rates or shares near the float floor a report's lambda = a/b overflowed and failed strict
# JSON, and beta mode's exact pair (1 - beta, beta) / 2 had b = 0 at beta = 5e-324
FLOAT_FLOOR_REPORTS = [
    ["stationary", "--k", "3", "--a", "0.5", "--b", "5e-324", "--m", "4", "--exact"],
    ["stationary", "--beta", "1e-320", "--k", "3"],
    ["stationary", "--beta", "1e-320", "--k", "3", "--m", "4", "--exact"],
    ["optimality", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25", "--alpha", "0.25",
     "--beta", "1e-320", "--n", "100", "--k", "6"],
    ["stationary", "--beta", "5e-324", "--k", "3", "--m", "4", "--exact"],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", FLOAT_FLOOR_REPORTS, ids=" ".join)
def test_reports_near_the_float_floor_carry_no_lambda(argv):
    code, out = exit_code_and_stdout(argv)
    assert code == 0
    report = strict_json(out)
    assert "lambda" not in report
    if "--exact" in argv:
        assert report["exact_solver"]["max_pointwise_diff"] <= 1e-12


@PROPERTY
@given(argv=mixing_argvs())
def test_mixing_exit_code_contract(argv):
    assert_report_contract(argv)


@PROPERTY
@given(case=optimality_argvs())
@example(case=(["optimality", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0",
                "--alpha", "0.1", "--beta", "0.3", "--n", "100"], True))
def test_optimality_exit_code_contract(case):
    """The exit-code contract; an exit-0 report is strict JSON and its optimum is consistent.

    A donation game with every other flag in range exits 0. Only a
    donation game gets past optimal_generosity, so every exit-0 report
    has both thresholds, and g* lies in [0, g_hat] in the regime that phi
    picks against them.
    """
    argv, in_range = case
    code, out = exit_code_and_stdout(argv)
    assert code == 0 or not in_range
    if code != 0:
        return
    report = strict_json(out)
    low, high, phi = report["low_phi_threshold"], report["high_phi_threshold"], report["phi"]
    # at g_hat = 0 the two once read 2.500000000000001 > 2.5000000000000004
    assert low <= high
    assert 0.0 <= report["g_star"] <= report["manifest"]["config"]["g_hat"]
    expected = "low" if phi <= low else "high" if phi >= high else "mid"
    assert report["regime"] == expected


@PROPERTY
@given(argv=compare_argvs())
# k x k payoff tables past the state cap: k = 5000 was killed for want of memory, not exit 3
@example(argv=["compare", *GAME, "--k", "5000", "--m", "20", "--populations", "0.25,0.25"])
def test_compare_exit_code_contract(argv, tmp_path):
    assert_table_contract(argv, tmp_path / "compare.csv")


@PROPERTY
@given(argv=simulate_argvs())
def test_simulate_exit_code_contract(argv, tmp_path):
    assert_table_contract(argv, tmp_path / "simulate.csv")
