import json

import numpy as np
import pytest

from sparseobs.cli import load_matrix, main, save_matrix


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _identity_csv(tmp_path, dim=4, name="eye.csv"):
    p = tmp_path / name
    save_matrix(np.eye(dim), p)
    return str(p)


def _linear_decay_system(tmp_path, dim=2):
    doc = {"dim": dim, "rhs": {"kind": "linear", "matrix": (-np.eye(dim)).tolist()}}
    return _write_json(tmp_path / "system.json", doc)


def _recovery_problem(tmp_path, matrix, observation, dim, eps=0.0, name="problem.json", rhs=None):
    doc = {
        "system": {"dim": dim, "rhs": rhs or {"kind": "zero"}},
        "measurement": {
            "matrix": matrix,
            "time": 1.0,
            "noise_radius": eps,
            "weights": [1.0] * dim,
        },
        "observation": observation,
        "sparsity": 1,
    }
    return _write_json(tmp_path / name, doc)


def _experiment_config(tmp_path, name="config.json", **overrides):
    doc = {
        "seed": 99,
        "trials": 3,
        "system": {"dim": 8, "rhs": {"kind": "zero"}},
        "matrix": {"n": 128, "m": 8},
        "sparsity": 1,
        "noise_radius": 0.0,
    }
    doc.update(overrides)
    return _write_json(tmp_path / name, doc)


def test_matrix_files_round_trip(tmp_path):
    A = np.array([[1.5, -2.25], [0.125, 3.0], [0.0, -1.0]])
    p = tmp_path / "mat.csv"
    save_matrix(A, p)
    np.testing.assert_array_equal(load_matrix(p), A)
    pj = tmp_path / "mat.json"
    _write_json(pj, A.tolist())
    np.testing.assert_array_equal(load_matrix(pj), A)


def test_rip_exact_subcommand(tmp_path, capsys):
    rc = main(["rip", "--matrix", _identity_csv(tmp_path), "--sparsity", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 0.0
    assert doc["sparsity"] == 2
    assert doc["method"] == "exact"
    assert doc["supports_examined"] == 6
    assert doc["supports_solved"] == 6


def test_rip_bounds_subcommand(tmp_path, capsys):
    rc = main(
        [
            "rip",
            "--matrix",
            _identity_csv(tmp_path),
            "--sparsity",
            "2",
            "--mode",
            "bounds",
            "--samples",
            "50",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower"]["delta"] == 0.0
    assert doc["upper"]["delta"] == 0.0
    assert doc["lower"]["supports_examined"] == 50
    assert doc["lower"]["supports_solved"] == 50
    assert doc["upper"]["supports_solved"] == 0


def test_rip_reads_json_matrices(tmp_path, capsys):
    pj = _write_json(tmp_path / "mat.json", np.eye(3).tolist())
    rc = main(["rip", "--matrix", pj, "--sparsity", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["delta"] == 0.0


def test_certify_exit_code_tracks_feasibility(tmp_path, capsys):
    system = _linear_decay_system(tmp_path)
    matrix = _identity_csv(tmp_path, dim=2)
    argv = ["certify", "--system", system, "--matrix", matrix, "--sparsity", "1", "--tau", "1.0"]
    rc = main(argv + ["--time", "0.1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["feasible"] is True
    assert doc["reasons"] == []
    assert doc["delta_2s"] == 0.0

    rc = main(argv + ["--time", "5.0"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["feasible"] is False
    assert "horizon-exceeded" in doc["reasons"]


def test_certify_rejects_mismatched_shapes(tmp_path, capsys):
    system = _linear_decay_system(tmp_path, dim=3)
    matrix = _identity_csv(tmp_path, dim=2)
    rc = main(
        [
            "certify",
            "--system",
            system,
            "--matrix",
            matrix,
            "--sparsity",
            "1",
            "--tau",
            "1.0",
            "--time",
            "0.1",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_recover_subcommand_writes_estimate(tmp_path, capsys):
    problem = _recovery_problem(tmp_path, np.eye(2).tolist(), [1.0, 0.0], dim=2)
    est_path = tmp_path / "estimate.csv"
    rc = main(["recover", "--problem", problem, "--estimate-csv", str(est_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["iterations"] == 1
    np.testing.assert_allclose(doc["estimate"], [1.0, 0.0], atol=1e-6)
    lines = est_path.read_text().splitlines()
    assert lines[0] == "x_1,x_2"
    np.testing.assert_allclose([float(v) for v in lines[1].split(",")], [1.0, 0.0], atol=1e-6)


def test_recover_streams_estimate_to_stdout(tmp_path, capsys):
    problem = _recovery_problem(tmp_path, np.eye(2).tolist(), [1.0, 0.0], dim=2)
    rc = main(["recover", "--problem", problem, "--estimate-csv", "-"])
    assert rc == 0
    assert "x_1,x_2" in capsys.readouterr().out


def test_oracle_subcommand(tmp_path, capsys):
    problem = _recovery_problem(tmp_path, np.eye(2).tolist(), [1.0, 0.0], dim=2)
    rc = main(["oracle", "--problem", problem])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    np.testing.assert_allclose(doc["estimate"], [1.0, 0.0], atol=1e-9)
    assert doc["iterations"] == 3


def test_oracle_budget_flag(tmp_path, capsys):
    problem = _recovery_problem(tmp_path, np.eye(2).tolist(), [1.0, 0.0], dim=2)
    rc = main(["oracle", "--problem", problem, "--budget", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_integrator_flags_are_exclusive_and_default_to_integration_config(tmp_path, capsys):
    # a linear flow, whose RK4 map depends on the step count
    rhs = {"kind": "linear", "matrix": [[-1.0, 0.5], [0.0, -2.0]]}
    problem = _recovery_problem(tmp_path, np.eye(2).tolist(), [0.5, 0.0], dim=2, rhs=rhs)
    for command in ("recover", "oracle"):
        with pytest.raises(SystemExit) as info:
            main([command, "--problem", problem, "--steps", "64", "--adaptive-tol", "1e-9"])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        outputs = []
        for flags in ([], ["--steps", "256"], ["--steps", "8"]):
            assert main([command, "--problem", problem, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]


def test_experiment_subcommand_writes_report(tmp_path, capsys):
    config = _experiment_config(tmp_path)
    out = tmp_path / "report.csv"
    rc = main(["experiment", "--config", config, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("trial,feasible,")
    assert "trials=3 feasible=3" in capsys.readouterr().out


def test_experiment_json_format(tmp_path, capsys):
    config = _experiment_config(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["experiment", "--config", config, "--out", str(out), "--format", "json"])
    assert rc == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 3
    assert all(doc["feasible"] for doc in docs)


def test_experiment_workers_flag_is_inert_on_output(tmp_path, capsys):
    config = _experiment_config(tmp_path)
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["experiment", "--config", config, "--out", str(out1)]) == 0
    assert main(["experiment", "--config", config, "--out", str(out2), "--workers", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_timings_flag(tmp_path, capsys):
    config = _experiment_config(tmp_path, trials=1)
    out = tmp_path / "timed.csv"
    rc = main(["experiment", "--config", config, "--out", str(out), "--timings"])
    assert rc == 0
    capsys.readouterr()
    last_cell = out.read_text().splitlines()[1].split(",")[-1]
    assert float(last_cell) > 0.0


def test_experiment_force_runs_infeasible_trials(tmp_path, capsys):
    config = _experiment_config(
        tmp_path,
        name="infeasible.json",
        trials=1,
        system={"dim": 12, "rhs": {"kind": "zero"}},
        matrix={"n": 6, "m": 12},
    )
    plain, forced = tmp_path / "plain.csv", tmp_path / "forced.csv"
    assert main(["experiment", "--config", config, "--out", str(plain)]) == 0
    assert main(["experiment", "--config", config, "--out", str(forced), "--force"]) == 0
    capsys.readouterr()
    plain_row = plain.read_text().splitlines()[1].split(",")
    forced_row = forced.read_text().splitlines()[1].split(",")
    error_col = plain.read_text().splitlines()[0].split(",").index("error_l2")
    assert plain_row[error_col] == ""
    assert forced_row[error_col] != ""


def test_errors_exit_with_code_two(tmp_path, capsys):
    rc = main(["rip", "--matrix", str(tmp_path / "missing.csv"), "--sparsity", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["experiment", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    rc = main(["recover", "--problem", str(binary)])
    assert rc == 2
    assert "not a text file" in capsys.readouterr().err

    problem = _recovery_problem(
        tmp_path, [[1.0], [1.0]], [1.0, -1.0], dim=1, name="infeasible_problem.json"
    )
    rc = main(["recover", "--problem", problem])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    ragged_csv = tmp_path / "ragged.csv"
    ragged_csv.write_text("1.0,2.0\n3.0\n")
    ragged_json = _write_json(tmp_path / "ragged.json", [[1.0, 2.0], [3.0]])
    text_json = _write_json(tmp_path / "text.json", [["1.0", "2.0"]])
    for path in (str(ragged_csv), ragged_json, text_json):
        rc = main(["rip", "--matrix", path, "--sparsity", "1"])
        assert rc == 2
        assert path in capsys.readouterr().err

    bad_fields = {
        "solver": {"solver": {"inner_max_iter": "abc"}},
        "integration": {"integration": {"step_count": "x"}},
        "matrix.m": {"matrix": {"n": 128, "m": "x"}},
    }
    for field, overrides in bad_fields.items():
        config = _experiment_config(tmp_path, name="bad_field.json", **overrides)
        rc = main(["experiment", "--config", config, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"in field '{field}'" in capsys.readouterr().err

    good_problem = _recovery_problem(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], dim=2)

    def problem_with(edit):
        doc = json.loads((tmp_path / "problem.json").read_text())
        edit(doc)
        return _write_json(tmp_path / "bad_problem.json", doc)

    bad_system = {"dim": 2, "rhs": {"kind": "linear", "matrix": [[1.0, "x"], [0.0, 1.0]]}}
    bad_problems = (
        lambda doc: doc.update(observation="abc"),
        lambda doc: doc["measurement"].update(matrix=[[1.0, 0.0], [1.0]]),
        lambda doc: doc.update(system=bad_system),
        lambda doc: doc["measurement"].update(time=None),
        lambda doc: doc.update(typo_noise=3),
        lambda doc: doc["measurement"].update(typo_noise=3),
        lambda doc: doc["measurement"].update(weights=[True, True]),
        lambda doc: doc["measurement"].update(matrix=[[1.0, 0.0], [0.0, True]]),
        lambda doc: doc.update(observation=[True, False]),
    )
    for edit in bad_problems:
        for command in ("recover", "oracle"):
            rc = main([command, "--problem", problem_with(edit)])
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error:") and err.count("\n") == 1, err
    for value in (5, None):
        solver = _write_json(tmp_path / "solver.json", value)
        rc = main(["recover", "--problem", good_problem, "--solver-config", solver])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and err.count("\n") == 1, err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()
