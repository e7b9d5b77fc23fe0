import functools
import json
import math
import os
import subprocess
import sys
import weakref
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from sepwit import (Partition, SpaceConfig, Statistics, Witness,
                    WitnessForm, appendix_b_states, detect, fig1_bound,
                    fig1_state_family, noisy_state, rank_one_observable)
from sepwit import cli
from sepwit import witness as witness_module
from sepwit.cli import (load_observable_file, load_state_file, main,
                        save_observable_json, save_state_json)
from sepwit.errors import ConvergenceError, InputFormatError

from conftest import break_overlap_eigh, break_span_svd, random_hermitian

INTERFERENCE_N3 = str(files("sepwit").joinpath("data/interference_N3.json"))
BELL_BOSON_D3 = str(files("sepwit").joinpath("data/bell_boson_d3.json"))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, (json.loads(out) if out else None)


# ---------------------------------------------------------------------------
# cold start

def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter in which importing scipy fails: sepwit and its
    # CLI load no scipy module and a small verified fig1 run succeeds
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import sepwit, sepwit.cli\n"
        "loaded = [name for name, mod in sys.modules.items()\n"
        "          if name.split('.')[0] == 'scipy' and mod is not None]\n"
        "assert not loaded, loaded\n"
        "sys.exit(sepwit.cli.main(['fig1', '--verify', '--d-max', '2',\n"
        "                          '--starts', '2']))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "fig1"


# ---------------------------------------------------------------------------
# fig1

def test_fig1_closed_form_rows(capsys):
    code, payload = _run_json(capsys, ["fig1", "--d-min", "2", "--d-max", "3"])
    assert code == 0
    rows = {(row["d"], row["panel"]): row for row in payload["rows"]}
    assert abs(rows[(2, "SR>1")]["p_star"] - 1.0 / 3.0) < 1e-12
    assert rows[(2, "Fermion")]["p_star"] == 1.0
    assert rows[(2, "Fermion")]["undetectable"] is True
    assert abs(rows[(3, "Boson")]["p_star"] - 0.6) < 1e-12
    assert abs(rows[(3, "SR>2")]["G"] - 2.0 / 3.0) < 1e-12


def test_fig1_verify_cross_checks(capsys):
    code, payload = _run_json(
        capsys, ["fig1", "--d-min", "2", "--d-max", "4", "--verify",
                 "--starts", "12", "--seed", "1"])
    assert code == 0
    for row in payload["rows"]:
        assert row["verified"] is True, row


def _fig1_scan_cases(d_values):
    for d in d_values:
        for _panel, stats, level in cli._FIG1_PANELS:
            bound, _ = fig1_bound(d, level if level is not None else stats)
            yield fig1_state_family(d, stats), stats, bound


def test_fig1_scan_matches_exhaustive_grid():
    step = 1e-3
    for psi, stats, bound in _fig1_scan_cases(range(2, 5)):
        witness = Witness(observable=rank_one_observable(psi, stats),
                          stats=stats, space=psi.space, k=2, bound=bound,
                          partition=Partition((1, 1)),
                          form=WitnessForm.UPPER, bound_source="analytic")
        first = next((idx * step for idx in range(1001)
                      if detect(noisy_state(psi, stats, min(idx * step, 1.0)),
                                witness).entangled), 1.0)
        assert cli._fig1_grid_scan(psi, stats, bound, step) == first


def test_fig1_scan_probe_count(monkeypatch):
    calls = []

    def counting_detect(rho, witness):
        calls.append(1)
        return detect(rho, witness)

    monkeypatch.setattr(cli, "detect", counting_detect)
    limit = 2 + math.ceil(math.log2(1001))
    for psi, stats, bound in _fig1_scan_cases(range(2, 9)):
        calls.clear()
        cli._fig1_grid_scan(psi, stats, bound, 1e-3)
        assert 1 <= len(calls) <= limit


def test_fig1_rejects_bad_range(capsys):
    code, _ = _run(capsys, ["fig1", "--d-min", "5", "--d-max", "3"])
    assert code == 2


# ---------------------------------------------------------------------------
# fig2

def test_fig2_closed_form_and_verdicts(capsys):
    code, payload = _run_json(
        capsys, ["fig2", "--n", "5", "--delta-steps", "5"])
    assert code == 0
    first = payload["rows"][0]
    assert abs(first["delta"]) < 1e-15
    assert abs(first["expectation"] - 4.0 / (3.0 * math.sqrt(3.0))) < 1e-12
    for k in range(2, 6):
        assert first[f"not_{k}_separable"] is True
    last = payload["rows"][-1]
    assert abs(last["delta"] - math.pi) < 1e-12
    assert abs(last["expectation"]) < 1e-12
    for k in range(2, 6):
        assert last[f"not_{k}_separable"] is False
    # the crossing point for K=2 solves signal = 1/2
    delta_star = payload["delta_star"]["2"]
    from sepwit import ghz_expectation
    assert abs(ghz_expectation(1 / math.sqrt(3), delta_star) - 0.5) < 1e-9


def test_fig2_numeric_verification(capsys):
    code, payload = _run_json(
        capsys, ["fig2", "--n", "3", "--delta-steps", "3", "--verify"])
    assert code == 0
    for row in payload["rows"]:
        assert abs(row["expectation_numeric"] - row["expectation"]) \
            <= 2 * row["tail_bound"] + 1e-12


def test_fig2_verify_needs_small_n(capsys):
    code, _ = _run(capsys, ["fig2", "--n", "5", "--verify"])
    assert code == 2


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_fig2_rejects_too_few_delta_steps(capsys, steps):
    # the grid idx * pi / (steps - 1) needs both end points
    code = main(["fig2", "--n", "3", "--delta-steps", steps])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "delta-steps must be >= 2" in captured.err


# ---------------------------------------------------------------------------
# sevalue

@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_sevalue_rejects_bad_tol(capsys, tol):
    # no start can meet the tolerance: an input error, not "no start
    # converged" after every start ran to the sweep limit
    code = main(["sevalue", INTERFERENCE_N3, "--k", "2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tol must be a number >= 0" in captured.err


def test_sevalue_shipped_interference(capsys):
    code, payload = _run_json(
        capsys, ["sevalue", INTERFERENCE_N3, "--k", "2",
                 "--starts", "12", "--seed", "4"])
    assert code == 0
    assert abs(payload["G"] - 0.5) < 1e-9
    entry = payload["partitions"][0]
    assert entry["oracle_bound"] <= payload["G"] + 1e-9
    assert entry["max_residual"] <= 1e-9


def test_sevalue_reports_sweeps_and_limit_hits(monkeypatch, capsys):
    # every start's sweeps go into the histogram; sweep_limit_hits counts
    # the starts that stopped at the limit unconverged: none at the
    # default limit, and with the limit cut below some starts' counts,
    # exactly those starts, each in the histogram at the limit
    argv = ["sevalue", INTERFERENCE_N3, "--k", "2", "--starts", "12",
            "--seed", "4", "--oracle-samples", "20"]
    _, payload = _run_json(capsys, argv)
    entry, = payload["partitions"]
    full = {h["sweeps"]: h["starts"] for h in entry["sweep_histogram"]}
    assert sum(full.values()) == 12 and entry["sweep_limit_hits"] == 0
    assert "sweep_histogram" not in payload["rows"][0]
    limit = sorted(full)[len(full) // 2]
    beyond = sum(count for sweeps, count in full.items() if sweeps > limit)
    assert beyond > 0
    monkeypatch.setattr(cli, "MAX_SWEEPS", limit)
    monkeypatch.setattr(cli, "solve_sup_g",
                        functools.partial(cli.solve_sup_g, max_sweeps=limit))
    _, payload = _run_json(capsys, argv)
    entry, = payload["partitions"]
    cut = {h["sweeps"]: h["starts"] for h in entry["sweep_histogram"]}
    assert entry["sweep_limit_hits"] == beyond
    assert cut == {**{n: c for n, c in full.items() if n < limit},
                   limit: full.get(limit, 0) + beyond}


def test_sevalue_shipped_boson_rank_one(capsys):
    code, payload = _run_json(
        capsys, ["sevalue", BELL_BOSON_D3, "--k", "2",
                 "--starts", "16", "--seed", "4"])
    assert code == 0
    assert abs(payload["G"] - 2.0 / 3.0) < 1e-8


def test_sevalue_identity_observable(tmp_path, capsys):
    path = tmp_path / "identity.json"
    space = SpaceConfig(2, 2)
    save_observable_json(str(path), space, Statistics.BOSON,
                         np.eye(4, dtype=complex))
    code, payload = _run_json(
        capsys, ["sevalue", str(path), "--k", "2", "--starts", "4"])
    assert code == 0
    assert abs(payload["G"] - 1.0) < 1e-9


def test_sevalue_rejects_non_hermitian(tmp_path, capsys):
    path = tmp_path / "bad.json"
    blob = {"d": 2, "N": 2, "statistics": "boson",
            "entries": [[0, 1, 1.0, 0.0]]}
    path.write_text(json.dumps(blob))
    code, _ = _run(capsys, ["sevalue", str(path), "--k", "2"])
    assert code == 2


def test_sevalue_rejects_oracle_samples_before_solving(monkeypatch, capsys):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("solved before checking --oracle-samples")

    monkeypatch.setattr(cli, "solve_sup_g", forbidden)
    code = main(["sevalue", INTERFERENCE_N3, "--k", "2",
                 "--oracle-samples", "0"])
    assert code == 2
    assert capsys.readouterr().err == "sepwit: samples must be >= 1\n"


def test_sevalue_diagonalises_the_sector_observable_once(monkeypatch,
                                                         capsys):
    # the solver and the oracle of a partition read one problem, so the
    # dense observable's S^H L S, of side 56 on the boson sector at N=3,
    # d=6, is diagonalised once for the one partition (2, 1)
    sizes = []

    def counting(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counting)
    code, _ = _run(capsys, ["sevalue", INTERFERENCE_N3, "--k", "2",
                            "--starts", "16", "--oracle-samples", "200"])
    assert code == 0
    assert sizes.count(56) == 1


def test_sevalue_holds_one_problem_at_a_time(tmp_path, monkeypatch,
                                            capsys):
    # each partition's problem, with its sector data, dies before the
    # next partition's is built
    rng = np.random.default_rng(5)
    space = SpaceConfig(3, 4)
    path = tmp_path / "dense.json"
    save_observable_json(str(path), space, Statistics.BOSON,
                         random_hermitian(rng, space.total_dim))
    refs = []
    alive = []

    def tracked(*args):
        problem = problem_class(*args)
        refs.append(weakref.ref(problem))
        alive.append(sum(ref() is not None for ref in refs))
        return problem

    problem_class = cli.SevalueProblem
    monkeypatch.setattr(cli, "SevalueProblem", tracked)
    code, payload = _run_json(capsys, ["sevalue", str(path), "--k", "2",
                                       "--starts", "2",
                                       "--oracle-samples", "20"])
    assert code == 0
    assert len(payload["partitions"]) == 2
    assert alive == [1, 1]


def test_sevalue_reports_a_failed_eigensolve_and_goes_on(tmp_path,
                                                         monkeypatch, capsys):
    # boson N=4, d=3 at K=2: where no route diagonalises the overlaps of
    # partition (3, 1) (party sectors of 10 and 3 dimensions), its row
    # records the failure and (2, 2) is solved; where none of either
    # partition's is, no partition converged: a numerical failure
    rng = np.random.default_rng(5)
    space = SpaceConfig(3, 4)
    path = tmp_path / "dense.json"
    save_observable_json(str(path), space, Statistics.BOSON,
                         random_hermitian(rng, space.total_dim))
    argv = ["sevalue", str(path), "--k", "2", "--starts", "2",
            "--oracle-samples", "20"]
    with monkeypatch.context() as patch:
        break_overlap_eigh(patch, sides=(10,))
        code, payload = _run_json(capsys, argv)
    assert code == 0
    failed, solved = payload["partitions"]
    assert failed["partition"] == "3,1" and "no route" in failed["error"]
    assert solved["partition"] == "2,2" and "G" in solved
    break_overlap_eigh(monkeypatch, sides=(10, 6))
    code = main(argv)
    assert code == 3 and capsys.readouterr().out == ""


def test_sevalue_exits_3_where_a_span_svd_fails(monkeypatch, capsys):
    # no route takes the SVD of a party step's whitened term vectors: a
    # numerical failure, not an input error
    break_span_svd(monkeypatch)
    code = main(["sevalue", INTERFERENCE_N3, "--k", "2", "--starts", "2",
                 "--oracle-samples", "20"])
    assert code == 3 and capsys.readouterr().out == ""


def test_sevalue_requires_partition_choice(capsys):
    code, _ = _run(capsys, ["sevalue", INTERFERENCE_N3])
    assert code == 2


def _bad_input(tmp_path, capsys, entries, amplitudes=None):
    """Exit code and stderr of sevalue on a d=2, N=2 observable with the
    given entries, and the error of loading a state file with the same
    entries (or with the given amplitudes)."""
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"d": 2, "N": 2, "statistics": "boson",
                               "entries": entries}))
    code = main(["sevalue", str(obs), "--k", "2", "--starts", "2"])
    err = capsys.readouterr().err
    state = tmp_path / "state.json"
    blob = {"d": 2, "N": 2}
    if amplitudes is None:
        blob["entries"] = entries
    else:
        blob["amplitudes"] = amplitudes
    state.write_text(json.dumps(blob))
    with pytest.raises(InputFormatError) as exc:
        load_state_file(str(state))
    return code, err, str(exc.value)


@pytest.mark.parametrize("bad", [[-1, -1, 1.0, 0.0], [4, 0, 1.0, 0.0],
                                 [0.9, 0, 1.0, 0.0], [True, 1, 1.0, 0.0]])
def test_loaders_reject_bad_index(tmp_path, capsys, bad):
    code, err, state_err = _bad_input(tmp_path, capsys,
                                      [[0, 0, 1.0, 0.0], bad])
    assert code == 2
    for message in (err, state_err):
        assert f"entry {bad}: index not an integer in 0..3" in message


@pytest.mark.parametrize("d,n", [(2.7, 2), (2, 2.0), (True, 2), ("2", 2)])
def test_loaders_reject_non_integer_sizes(tmp_path, d, n):
    # d and N are not truncated to integers
    path = tmp_path / "input.json"
    for load, blob in ((load_observable_file, {"statistics": "boson"}),
                       (load_state_file, {})):
        path.write_text(json.dumps({"d": d, "N": n,
                                    "entries": [[0, 0, 1.0, 0.0]], **blob}))
        with pytest.raises(InputFormatError, match="must be an integer"):
            load(str(path))


def test_loaders_reject_repeated_entry(tmp_path, capsys):
    code, err, state_err = _bad_input(
        tmp_path, capsys, [[0, 0, 1.0, 0.0], [0, 0, 2.0, 0.0]])
    assert code == 2
    for message in (err, state_err):
        assert "entry [0, 0, 2.0, 0.0]: repeats (0, 0)" in message


def test_loaders_reject_non_hermitian_matrix(tmp_path, capsys):
    # both loaders report a non-Hermitian matrix as a malformed file
    code, err, state_err = _bad_input(tmp_path, capsys, [[0, 1, 1.0, 0.0]])
    assert code == 2
    assert err.startswith("sepwit: malformed observable file ")
    assert state_err.startswith("malformed state file ")
    for message in (err, state_err):
        assert "is not Hermitian" in message


@pytest.mark.parametrize("value", [5, None])
def test_loaders_reject_non_string_statistics(tmp_path, capsys, value):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"d": 2, "N": 2, "statistics": value,
                               "entries": [[0, 0, 1.0, 0.0]]}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"d": 2, "N": 2, "amplitudes": [
        [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    for argv in (["sevalue", str(obs)], ["witness", str(state), str(obs)]):
        code = main(argv + ["--k", "2", "--starts", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("sepwit: malformed observable file ")
        assert "statistics must be a string" in captured.err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_loaders_reject_non_finite_value(tmp_path, capsys, value):
    code, err, state_err = _bad_input(
        tmp_path, capsys, [[0, 0, 1.0, 0.0], [3, 3, value, 0.0]],
        amplitudes=[[1.0, 0.0], [0.0, 0.0], [0.0, value], [0.0, 0.0]])
    assert code == 2
    assert "entry [3, 3," in err and "non-finite" in err
    assert "amplitude 2: non-finite" in state_err


# ---------------------------------------------------------------------------
# witness

@pytest.fixture(scope="module")
def appendix_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("appendix")
    _plus, minus = appendix_b_states()
    state = minus.normalized()
    state_path = base / "state.json"
    save_state_json(str(state_path), state)
    observable = rank_one_observable(state, Statistics.FERMION)
    obs_path = base / "observable.json"
    save_observable_json(str(obs_path), state.space, Statistics.FERMION,
                         observable.to_matrix())
    return str(state_path), str(obs_path)


def test_witness_appendix_state_not_fully_separable(capsys, appendix_files):
    state_path, obs_path = appendix_files
    code, payload = _run_json(
        capsys, ["witness", state_path, obs_path, "--k", "3",
                 "--starts", "24", "--seed", "2"])
    assert code == 0
    row = payload["rows"][0]
    assert row["verdict"] == "entangled"
    assert abs(row["expectation"] - 1.0) < 1e-9
    assert row["G"] < 1.0 - 1e-3


def test_witness_appendix_state_is_two_separable(capsys, appendix_files):
    state_path, obs_path = appendix_files
    code, payload = _run_json(
        capsys, ["witness", state_path, obs_path, "--partition", "1,2",
                 "--starts", "24", "--seed", "2"])
    assert code == 0
    row = payload["rows"][0]
    assert row["verdict"] == "inconclusive"
    assert row["G"] >= 1.0 - 1e-9


def test_witness_fully_mixed_state_inconclusive(capsys, tmp_path):
    # a noiseless sector-mixed state is separable by construction
    from sepwit import fig1_state_family, noisy_state, Statistics
    psi = fig1_state_family(3, Statistics.BOSON)
    rho = noisy_state(psi, Statistics.BOSON, 0.0)
    state_path = tmp_path / "mixed.json"
    matrix = rho.to_matrix()
    blob = {"d": 3, "N": 2, "statistics": "boson",
            "entries": [[i, j, matrix[i, j].real, matrix[i, j].imag]
                        for i in range(9) for j in range(9)
                        if abs(matrix[i, j]) > 1e-15]}
    state_path.write_text(json.dumps(blob))
    code, payload = _run_json(
        capsys, ["witness", str(state_path), BELL_BOSON_D3, "--k", "2",
                 "--starts", "16"])
    assert code == 0
    assert payload["rows"][0]["verdict"] == "inconclusive"


def test_witness_dimension_mismatch(capsys, appendix_files, tmp_path):
    _state_path, obs_path = appendix_files
    small = tmp_path / "small.json"
    blob = {"d": 2, "N": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0],
                                           [0.0, 0.0], [0.0, 0.0]]}
    small.write_text(json.dumps(blob))
    code, _ = _run(capsys, ["witness", str(small), obs_path, "--k", "2"])
    assert code == 2


def test_witness_rejects_a_non_psd_state(capsys, tmp_path):
    # diag(1.5, 0, 0, -0.5) has trace 1 but is no state: against |00><00|
    # it would read <L> = 1.5 > G = 1, an "entangled" verdict
    state, obs = tmp_path / "state.json", tmp_path / "obs.json"
    state.write_text(json.dumps({"d": 2, "N": 2, "entries": [
        [0, 0, 1.5, 0.0], [3, 3, -0.5, 0.0]]}))
    obs.write_text(json.dumps({"d": 2, "N": 2,
                               "statistics": "distinguishable",
                               "entries": [[0, 0, 1.0, 0.0]]}))
    code = main(["witness", str(state), str(obs), "--k", "2", "--starts", "2"])
    assert code == 2
    assert "negative eigenvalue" in capsys.readouterr().err


def test_witness_rejects_a_state_off_the_sector(capsys, tmp_path):
    # |0>|1> lives in the space of two d=3 particles but not on its boson
    # sector: an input error, not a verdict
    state = tmp_path / "state.json"
    amplitudes = [[0.0, 0.0]] * 9
    amplitudes[1] = [1.0, 0.0]
    state.write_text(json.dumps({"d": 3, "N": 2, "amplitudes": amplitudes}))
    code = main(["witness", str(state), BELL_BOSON_D3, "--k", "2",
                 "--starts", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        "sepwit: state leaks out of the boson sector")


def test_witness_exits_3_where_no_start_converges(monkeypatch, capsys,
                                                  appendix_files):
    def unconverged(*_args, **_kwargs):
        raise ConvergenceError("no start converged (stub)")

    monkeypatch.setattr(witness_module, "solve_sup_g", unconverged)
    state_path, obs_path = appendix_files
    for choice in (["--k", "3"], ["--partition", "1,2"]):
        code = main(["witness", state_path, obs_path, *choice])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "sepwit: no start converged (stub)\n"


# ---------------------------------------------------------------------------
# formats and determinism

def test_output_identical_across_runs(capsys):
    argv = ["sevalue", BELL_BOSON_D3, "--k", "2", "--starts", "8",
            "--seed", "9"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["fig1", "--tol", "1e-9"],
    ["fig2", "--seed", "1"],
    ["fig2", "--starts", "4"],
    ["fig2", "--tol", "1e-9"],
    ["sevalue", INTERFERENCE_N3, "--k", "2", "--verify"],
    ["witness", BELL_BOSON_D3, BELL_BOSON_D3, "--k", "2", "--verify"],
])
def test_parser_rejects_unread_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code, _ = _run(capsys, ["fig1", "--d-min", "2", "--d-max", "2",
                            "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header.split(",")[:3] == ["d", "panel", "p_star"]
    row = lines[-1].split(",")
    assert row[1] == "Fermion"
    assert row[2] == "1"


def test_roundtrip_loaders(tmp_path, rng):
    space = SpaceConfig(3, 2)
    from conftest import crandn, random_hermitian
    matrix = random_hermitian(rng, 9)
    path = tmp_path / "obs.json"
    save_observable_json(str(path), space, Statistics.DISTINGUISHABLE, matrix)
    loaded_space, stats, loaded = load_observable_file(str(path))
    assert loaded_space == space
    assert stats is Statistics.DISTINGUISHABLE
    assert np.abs(loaded - matrix).max() < 1e-15

    from sepwit import StateVector
    state = StateVector(space, crandn(rng, 9)).normalized()
    spath = tmp_path / "state.json"
    save_state_json(str(spath), state)
    sspace, rho = load_state_file(str(spath))
    assert sspace == space
    assert abs(rho.trace() - 1.0) < 1e-12


def test_loaded_observable_is_shared_read_only():
    # every problem built from the loaded matrix adopts it as its frozen
    # copy: one d^N x d^N observable however many partitions are solved
    space, stats, matrix = load_observable_file(INTERFERENCE_N3)
    assert not matrix.flags.writeable
    for parts in ((2, 1), (1, 1, 1)):
        problem = cli.SevalueProblem(matrix, stats, Partition(parts), space)
        assert problem.operator is matrix
