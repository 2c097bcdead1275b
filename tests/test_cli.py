import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regfactor.cli import main
from regfactor.factor import TutteWitness
from regfactor.verifier import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_sylvester_summary(tmp_path, capsys):
    out = tmp_path / "syl.mgf"
    code, stdout, _ = run_cli(capsys, "generate", "extremal", "--r", "1", "--k", "1", "--size-t", "1", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary == {"n": 10, "m": 15, "regular": 3, "bridges": 3}
    assert out.read_text().startswith("mgf 10 15\n")


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.mgf"
    b = tmp_path / "b.mgf"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "generate", "random-regular", "--n", "10", "--d", "3", "--seed", "7", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_bsw_to_stdout(capsys):
    code, stdout, stderr = run_cli(capsys, "generate", "bsw", "--r", "2", "--t", "1")
    assert code == 0
    assert stdout.startswith("mgf 38 95\n")
    assert json.loads(stderr)["regular"] == 5


def test_generate_formats(tmp_path, capsys):
    out = tmp_path / "g.g6"
    code, _, _ = run_cli(
        capsys, "generate", "bsw", "--r", "2", "--t", "1", "--format", "graph6", "--out", str(out)
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, "check", "--input", str(out), "--k", "1")
    assert code == 0
    assert json.loads(stdout)["regular"] == 5

    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(capsys, "generate", "petersen", "--format", "dot", "--out", str(dot))
    assert code == 0
    assert dot.read_text().startswith("graph G {")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, summary, digest",
    [
        (
            ("extremal", "--r", "1", "--k", "1", "--size-t", "3", "--size-s", "1", "--blisters", "1", "--extra", "1", "--seed", "2"),
            {"n": 22, "m": 33, "regular": 3, "bridges": 3},
            "d065f87b004081330f952cd9978c72281ac7b83871a31f691204613d3481da49",
        ),
        (
            ("random-regular", "--n", "10", "--d", "3", "--seed", "7", "--connected"),
            {"n": 10, "m": 15, "regular": 3, "bridges": 1},
            "562f47feb2f97e087b0f4a5701cb743b2ef177a32f60aeb1ef847e8604850770",
        ),
        (
            ("cycle",),
            {"n": 5, "m": 5, "regular": 2, "bridges": 0},
            "250af20857ae96eda58af65e0cc83f4f4412a09ddf74b6a2265128098c0e4cc6",
        ),
        (
            ("complete", "--n", "4"),
            {"n": 4, "m": 6, "regular": 3, "bridges": 0},
            "b04a7a0142382578a75ded1851d6f695796711b731243a23204043f8f6617ff9",
        ),
        (
            ("bsw", "--r", "2", "--t", "1", "--format", "graph6"),
            {"n": 38, "m": 95, "regular": 5, "bridges": 0},
            "62b9362bd87cb1a8b68d1005f4a2d73fd7c6aeb54ec124b807b60871ed06beb3",
        ),
        (
            ("extremal", "--r", "1", "--k", "1", "--size-t", "1"),
            {"n": 10, "m": 15, "regular": 3, "bridges": 3},
            "8954b9715de47f5443d25787ce6be6b0b15165a92a992954c93f52d7e65e67f8",
        ),
        (
            ("extremal", "--r", "2", "--k", "1", "--size-t", "1"),
            {"n": 16, "m": 40, "regular": 5, "bridges": 5},
            "8a34d681cc9df5f451b3498adf2180898a50af4fb7fba09a40707f017443cf83",
        ),
        (
            ("extremal", "--r", "1", "--k", "1", "--size-t", "3", "--size-s", "1", "--blisters", "1"),
            {"n": 18, "m": 27, "regular": 3, "bridges": 3},
            "e4d6e5b4f43a8235b60e2ae3adea0484fbb8ff59cb3cfa5b3e2e56910f7bc8bb",
        ),
        (
            ("extremal", "--r", "4", "--k", "3", "--size-t", "2", "--size-s", "1"),
            {"n": 18, "m": 81, "regular": 9, "bridges": 3},
            "d0efc2888f5d49f59f77855d51d4d089cc5f794950e02b86b17d74494386fd61",
        ),
        (
            ("bsw", "--r", "2", "--t", "1"),
            {"n": 38, "m": 95, "regular": 5, "bridges": 0},
            "8e531333f8bade6809b003c9093176975259ba6edf8bfab9e4a6a3c93e3fe018",
        ),
        (
            ("petersen",),
            {"n": 10, "m": 15, "regular": 3, "bridges": 0},
            "3e123476f05599d68782db0844bac0ee196c0a6839f12590b1ce262cfde5af26",
        ),
    ],
    ids=[
        "extremal", "random-regular-connected", "named-cycle", "named-complete", "bsw-graph6",
        "sylvester-r1", "sylvester-r2", "extremal-blistered", "extremal-r4k3", "bsw-mgf", "named-petersen",
    ],
)
def test_generate_to_stdout_pinned(capsys, argv, summary, digest):
    code, stdout, stderr = run_cli(capsys, "generate", *argv)
    assert code == 0
    assert json.loads(stderr) == summary
    assert sha256(stdout) == digest


@pytest.mark.parametrize(
    "name, generate, check, digest",
    [
        # the first token picks the reader, whatever the file name's suffix says
        (
            "petersen.txt",
            ("petersen", "--format", "graph6"),
            (),
            "636e828a32eef25ba4fc07ba1ae964b85f0466c6a0bd6cba4aae0a0b02b994ee",
        ),
        (
            "k4.g6",
            ("complete", "--n", "4"),
            (),
            "197776f3d7e8e87af05de7b5c6946614a390f322e9b0917417d5c024d24e4b66",
        ),
        (
            "petersen.g6",
            ("petersen", "--format", "graph6"),
            ("--oracle",),
            "818fbc766d516b61c8efc8881cca7bd0c74dadb018013b4b77b77bc1652a76f9",
        ),
    ],
    ids=["graph6-explicit", "mgf-explicit", "graph6-auto-oracle"],
)
def test_check_format_pinned(tmp_path, capsys, name, generate, check, digest):
    path = tmp_path / name
    code, summary, _ = run_cli(capsys, "generate", *generate, "--out", str(path))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "check", "--input", str(path), "--k", "1", *check)
    assert code == 0
    report = json.loads(stdout)
    assert report.pop("input") == str(path)
    assert {key: report[key] for key in ("n", "m", "regular", "bridges")} == json.loads(summary)
    assert sha256(json.dumps(report)) == digest


def test_check_takes_no_format(tmp_path, capsys):
    # mgf and graph6 are told apart by the file's first token, so no flag picks the reader
    path = tmp_path / "petersen.g6"
    run_cli(capsys, "generate", "petersen", "--format", "graph6", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", str(path), "--k", "1", "--format", "graph6"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--format" in captured.err


def test_generate_graph6_refuses_multigraph(capsys):
    code, _, stderr = run_cli(capsys, "generate", "extremal", "--r", "1", "--k", "1", "--size-t", "1", "--format", "graph6")
    assert code == 2
    assert "simple" in stderr


@pytest.mark.parametrize("extra", [(), ("--connected",)])
def test_generate_negative_degree_exit_2(capsys, extra):
    code, stdout, stderr = run_cli(capsys, "generate", "random-regular", "--n", "4", "--d", "-1", "--seed", "0", *extra)
    assert code == 2
    assert stdout == ""
    assert "d >= 0" in stderr


@pytest.mark.parametrize("n, d", [("20000", "1"), ("2", "0")])
def test_generate_connected_impossible_exit_2(monkeypatch, capsys, n, d):
    # n*d/2 edges are fewer than the n - 1 that connect n vertices, so no sample is drawn
    def no_sample(n):
        raise AssertionError("a pairing sample was drawn")

    monkeypatch.setattr("regfactor.generators.Multigraph", no_sample)
    code, stdout, stderr = run_cli(capsys, "generate", "random-regular", "--n", n, "--d", d, "--seed", "0", "--connected")
    assert code == 2
    assert stdout == ""
    assert "fewer than n - 1 edges" in stderr


def test_check_k4(tmp_path, capsys):
    path = tmp_path / "k4.mgf"
    path.write_text("mgf 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, stdout, _ = run_cli(capsys, "check", "--input", str(path), "--k", "1", "--oracle")
    assert code == 0
    report = json.loads(stdout)
    assert report["factorFound"] is True
    assert report["oracleAgrees"] is True
    assert "witness" not in report


@pytest.mark.parametrize("k", ["0", "-1"])
def test_check_k_below_1_exit_2(tmp_path, capsys, k):
    # the factor degree is 2k, so the message must name --k and the value typed, not 2k
    path = tmp_path / "k4.mgf"
    path.write_text("mgf 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, stdout, stderr = run_cli(capsys, "check", "--input", str(path), "--k", k)
    assert code == 2
    assert stdout == ""
    assert f"--k must be >= 1, got {k}" in stderr


def test_generate_named_petersen_rejects_n(capsys):
    # petersen has no --n to misuse, so argparse refuses it; complete and cycle default to 5
    with pytest.raises(SystemExit) as exc:
        main(["generate", "petersen", "--n", "7"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --n 7" in captured.err
    for name in ("cycle", "complete"):
        code, _, stderr = run_cli(capsys, "generate", name)
        assert code == 0
        assert json.loads(stderr)["n"] == 5


@pytest.mark.parametrize(
    "argv",
    [("named", "--name", "petersen"), ("sylvester", "--r", "1", "--k", "1")],
    ids=["named", "sylvester"],
)
def test_generate_has_one_route_per_graph(capsys, argv):
    # each graph has its own subcommand; the one-hub graph is `extremal --size-t 1`
    with pytest.raises(SystemExit) as exc:
        main(["generate", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"invalid choice: '{argv[0]}'" in captured.err


def test_check_sylvester_witness(tmp_path, capsys):
    out = tmp_path / "syl.mgf"
    run_cli(capsys, "generate", "extremal", "--r", "1", "--k", "1", "--size-t", "1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "check", "--input", str(out), "--k", "1", "--oracle")
    assert code == 0
    report = json.loads(stdout)
    assert report["factorFound"] is False
    assert report["witness"] == {"S": [], "T": [0], "q": 3, "d": 3, "deficiency": 2}


def test_check_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.mgf"
    path.write_text("mgf 2 1\nnope\n")
    code, _, stderr = run_cli(capsys, "check", "--input", str(path), "--k", "1")
    assert code == 2
    assert "line 2" in stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("generate", "extremal", "--r", "0", "--k", "1", "--size-t", "1"), "r must be >= 1"),
        (
            ("generate", "extremal", "--r", "1", "--k", "1", "--size-t", "1", "--blisters", "-1"),
            "blister_count and extra_components must be >= 0",
        ),
        (
            # r = 1 and one S-vertex leave 3 S-T edges to blister: a parameter
            # check, not a rejection by each of the four build strategies
            ("generate", "extremal", "--r", "1", "--k", "1", "--size-t", "2", "--size-s", "1", "--blisters", "4"),
            "blister_count must be <= (2r+1)*size_s = 3, got 4",
        ),
        (("generate", "cycle", "--n", "2"), "cycle needs at least 3 vertices"),
        (("check", "--input", "bad.mgf", "--k", "1"), "endpoints must be integers"),
    ],
    ids=["extremal-r0", "extremal-negative-blisters", "extremal-blister-overflow", "named-cycle-n2", "check-bad-endpoint"],
)
def test_outside_input_error_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    (tmp_path / "bad.mgf").write_text("mgf 2 1\n0 a\n")
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.count(message) == 1


def test_check_refuses_mgf_beyond_graph6_size(tmp_path, monkeypatch, capsys):
    # a 16-byte header must not make the reader allocate an incidence list per claimed vertex
    def no_graph(n):
        raise AssertionError("a Multigraph was allocated")

    path = tmp_path / "huge.mgf"
    path.write_text("mgf 258048 0\n")
    monkeypatch.setattr("regfactor.io.Multigraph", no_graph)
    code, stdout, stderr = run_cli(capsys, "check", "--input", str(path), "--k", "1")
    assert code == 2
    assert stdout == ""
    assert "n must be at most 258047, got 258048" in stderr


def test_generate_refuses_mgf_beyond_graph6_size(tmp_path, capsys):
    # check would refuse the file, so generate writes none
    path = tmp_path / "huge.mgf"
    code, stdout, stderr = run_cli(capsys, "generate", "cycle", "--n", "258048", "--out", str(path))
    assert code == 2
    assert stdout == ""
    assert "at most 258047 vertices, got 258048" in stderr
    assert not path.exists()


def test_check_mgf_trailing_blank_lines(tmp_path, capsys):
    path = tmp_path / "k4.mgf"
    path.write_text("mgf 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n\n\n")
    code, stdout, _ = run_cli(capsys, "check", "--input", str(path), "--k", "1")
    assert code == 0
    assert json.loads(stdout)["m"] == 6


def test_check_oracle_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "big.mgf"
    run_cli(capsys, "generate", "bsw", "--r", "2", "--t", "1", "--out", str(out))
    code, _, stderr = run_cli(capsys, "check", "--input", str(out), "--k", "1", "--oracle")
    assert code == 2
    assert "cap" in stderr


def test_verify_main_exit_0(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "main", "--r", "2", "--k", "1", "--trials", "10", "--seed", "1"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 10
    assert all(json.loads(ln)["pass"] for ln in lines)


def test_verify_charzn_exit_0(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "charzn", "--r", "1", "--k", "1")
    assert code == 0
    reports = [json.loads(ln) for ln in stdout.strip().splitlines()]
    assert any("certificate" in rep for rep in reports)
    assert all(rep["pass"] for rep in reports)


def test_verify_bsw_exit_0(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "bsw", "--r", "2", "--t", "1", "--k", "2")
    assert code == 0
    rep = json.loads(stdout.strip())
    assert rep["factorFound"] is False and rep["pass"] is True


def test_verify_failure_maps_to_exit_1(capsys, monkeypatch):
    # exit-code plumbing: a failed report must yield exit 1
    failing = VerificationReport(
        instance="synthetic", r=1, k=1, p=0, hypothesis_met=True,
        factor_found=False, passed=False, millis=0.0,
    )
    monkeypatch.setattr("regfactor.cli.run_tasks", lambda tasks, jobs=1: [failing])
    code, stdout, _ = run_cli(capsys, "verify", "bsw", "--r", "2", "--t", "1", "--k", "1")
    assert code == 1
    assert json.loads(stdout.strip())["pass"] is False


def test_verify_main_failure_exit_1(capsys, monkeypatch):
    # a main report that fails end to end: no factor where the hypothesis holds
    witness = {"S": [], "T": [0], "q": 3, "d": 3, "deficiency": 2}
    monkeypatch.setattr("regfactor.verifier.find_factor", lambda g, ell: None)
    monkeypatch.setattr(
        "regfactor.verifier.exhaustive_tutte_oracle", lambda g, ell: TutteWitness((), (0,), 3, 3, 2)
    )
    code, stdout, _ = run_cli(capsys, "verify", "main", "--r", "1", "--k", "1", "--trials", "1", "--seed", "0")
    assert code == 1
    report = json.loads(stdout)
    assert report["hypothesisMet"] is True
    assert report["pass"] is False
    assert report["witness"] == witness


def test_verify_output_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, stdout, _ = run_cli(
            capsys, "verify", "main", "--r", "1", "--k", "1", "--trials", "5", "--seed", "4"
        )
        rows = [json.loads(ln) for ln in stdout.strip().splitlines()]
        for row in rows:
            row.pop("millis")
        outputs.append(rows)
    assert outputs[0] == outputs[1]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "extremal", "--r", "x", "--k", "1", "--size-t", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # the ids stay the ones these cases had when verify parity filled argv1 and argv3
        pytest.param(("main", "--r", "1", "--k", "1", "--trials", "-1"), id="argv0"),
        pytest.param(("main", "--r", "1", "--k", "1", "--trials", "0"), id="argv2"),
        pytest.param(("battery", "--trials", "0"), id="battery"),
    ],
)
def test_verify_negative_trials_exit_2(capsys, argv):
    # an empty sweep prints no report, so exiting 0 would claim a check that never ran
    code, stdout, stderr = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert stdout == ""
    assert "trials must be >= 1" in stderr


def test_verify_parity_is_no_mode(capsys):
    # verify's modes are the three claims; the parity audit is Lovász's lemma, not one of them
    with pytest.raises(SystemExit) as exc:
        main(["verify", "parity", "--trials", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'parity'" in captured.err


def test_verify_charzn_takes_no_seed(capsys):
    # the grid is checked at seed 0 only: a report names its cell, not the seed that built it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "charzn", "--r", "1", "--k", "1", "--seed", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_fewer_than_one_job_exit_2(capsys, jobs):
    code, stdout, stderr = run_cli(capsys, "verify", "main", "--r", "1", "--k", "1", "--trials", "2", "--jobs", jobs)
    assert code == 2
    assert stdout == ""
    assert "jobs must be >= 1" in stderr


def test_verify_main_rejects_bad_rk_before_sampling(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "main", "--r", "0", "--k", "1", "--trials", "2")
    assert code == 2
    assert stdout == ""
    assert "k must satisfy 1 <= k <= (2r+1)/3" in stderr


@pytest.mark.parametrize("r, t", [("0", "1"), ("2", "0")])
def test_verify_bsw_rejects_bad_rt(capsys, r, t):
    # (0, 1) builds no task at all, so unchecked it would print nothing and pass
    code, stdout, stderr = run_cli(capsys, "verify", "bsw", "--r", r, "--t", t)
    assert code == 2
    assert stdout == ""
    assert "need 1 <= t < r" in stderr


@pytest.mark.parametrize("k", ["4", "0"])
def test_verify_bsw_rejects_k_outside_1_to_r(capsys, k):
    # the 7-regular host has no factor of degree 8, so k = 4 would pass without checking anything
    code, stdout, stderr = run_cli(capsys, "verify", "bsw", "--r", "3", "--t", "1", "--k", k)
    assert code == 2
    assert stdout == ""
    assert "need 1 <= k <= r" in stderr


def test_python_m_regfactor_runs(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "regfactor", "verify", "bsw", "--r", "2", "--t", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(ln)["pass"] for ln in lines)
