import json
import warnings

import numpy as np
import pytest

from enscomp import bounds, cli, extopt, linalg, reference, states
from enscomp.errors import EnsembleParseError, ValidationError


def write_ensemble(tmp_path, e, name="ens.json"):
    path = tmp_path / name
    cli.save_ensemble(e, str(path))
    return str(path)


def test_load_ensemble_roundtrip(tmp_path):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    e = cli.load_ensemble(path)
    assert len(e) == 2
    assert e.dim == 2
    assert abs(e.probs.sum() - 1.0) < 1e-12


def test_load_ensemble_bad_probability_sum(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "probs": [0.5, 0.4],
        "factor_dims": [2],
        "states": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="probability sum"):
        cli.load_ensemble(str(path))


def test_load_ensemble_names_bad_state(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "probs": [0.5, 0.5],
        "factor_dims": [2],
        "states": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],  # not Hermitian
        ],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="state 1"):
        cli.load_ensemble(str(path))


def test_load_ensemble_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(EnsembleParseError):
        cli.load_ensemble(str(path))
    with pytest.raises(EnsembleParseError):
        cli.load_ensemble(str(tmp_path / "missing.json"))


def test_analyze_values(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    assert cli.main(["analyze", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {(r[0], r[1]): r[2] for r in doc["rows"]}
    assert abs(rows[("ensemble_entropy", "")] - 2.0) < 1e-9
    assert abs(rows[("holevo_quantity", "")] - 1.0) < 1e-9
    assert rows[("state_support_dim", 0)] == 2


def test_analyze_csv_shape(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.biased_qubit())
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "quantity,index,value"
    assert any(l.startswith("# seed=") for l in lines[:header_idx])
    assert any(l.startswith("# tool=enscomp") for l in lines[:header_idx])


def test_analyze_prints_pure_entropies_as_zero(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    assert cli.main(["analyze", path]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "state_entropy,0,0" in rows  # |0>; |+> reads 3.2e-16, eigh rounding
    assert not any(row.endswith(",-0") for row in rows)


def test_minimize_builds_the_product_source_once(tmp_path, capsys, monkeypatch):
    # the minimizer checks the envelope of the one blocked source, once, and
    # the command prints that report
    builds, envelopes = [], []
    check, envelope_check = linalg.check_limit, bounds.envelope_check

    def recording(count, what, limit=None):
        if what == "elements of the product ensemble":
            builds.append(count)
        check(count, what, limit)

    def recorded_envelope(e, best):
        envelopes.append(envelope_check(e, best))
        return envelopes[-1]

    monkeypatch.setattr(linalg, "check_limit", recording)
    monkeypatch.setattr(bounds, "envelope_check", recorded_envelope)
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    assert cli.main(["minimize", path, "--n-block", "2", "--multistarts", "1",
                     "--max-iters", "5"]) == 0
    assert len(builds) == 1
    assert len(envelopes) == 1
    assert f"# bound {envelopes[0].name}:" in capsys.readouterr().out


def test_block_minimize_on_a_pure_source_is_silent(tmp_path, capsys):
    # d^(2n) = 65536 passes MAX_DIM, but the ancilla 2 asked for is far below
    # it: nothing is clamped, so nothing warns, and the zero entropies print as 0
    zero = states.Ensemble([1.0], (states.DensityMatrix(np.diag([1.0, 0.0]), (2,)),))
    path = write_ensemble(tmp_path, zero, "zero.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["minimize", path, "--n-block", "8", "--purifier-dim", "1",
                         "--multistarts", "1"]) == 0
    captured = capsys.readouterr()
    assert "(I_LH=0,S=0,best=0): lhs=0 " in captured.out
    assert captured.out.endswith("\n0,0,0,0,true,true\n")
    assert captured.err == ""


def test_minimize_and_simulate_ep_pipeline(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    out = tmp_path / "minimize.csv"
    code = cli.main([
        "minimize", path, "--ancilla-dim", "2", "--purifier-dim", "2",
        "--multistarts", "4", "--max-iters", "300", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    sidecar = tmp_path / "minimize.csv.assignment.json"
    assert sidecar.exists()
    best = json.loads(sidecar.read_text())["best_entropy"]
    assert abs(best - 1.0) < 1e-3

    code = cli.main([
        "simulate-ep", path, "--k", "3", "--eps", "0.05",
        "--assignment", str(sidecar),
        "--seed", "7", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert row[2] <= 1.2  # rate
    assert row[3] >= 0.95  # fidelity


def test_simulate_assignment_file_roundtrip(tmp_path):
    e = reference.orthogonal_pair()
    asn = extopt.trivial_assignment(e, 2, 2)
    payload = cli.assignment_to_payload(asn)
    back = cli.assignment_from_payload(payload)
    assert back.ancilla_dim == 2 and back.purifier_dim == 2
    for p, q in zip(asn.params, back.params):
        assert np.array_equal(p, q)


def test_simulate_js_byte_identical(tmp_path):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main([
            "simulate-js", path, "--n", "6", "--dim-cap", "14",
            "--sampling", "mc", "--samples", "60", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert (tmp_path / "a.csv.meta.json").exists()


def test_sweep_rows(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    code = cli.main([
        "sweep", path, "--protocol", "js", "--values", "2,4",
        "--eps", "0.1", "--seed", "1",
    ])
    assert code == 0
    lines = [
        l for l in capsys.readouterr().out.strip().splitlines()
        if not l.startswith("#")
    ]
    assert lines[0] == "n,channel_dim,rate,avg_fidelity,stderr,seed"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2"
    assert lines[2].split(",")[0] == "4"


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # usage error -> 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])
    assert exc.value.code == 1
    # parse error -> 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["analyze", str(bad)]) == 1
    # validation error -> 2
    payload = {
        "probs": [0.7, 0.2],
        "factor_dims": [2],
        "states": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(payload))
    assert cli.main(["analyze", str(bad2)]) == 2
    # a non-finite probability is a validation error that names probabilities
    payload["probs"] = [float("nan"), 1.0]
    bad2.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["analyze", str(bad2)]) == 2
    assert "probabilities" in capsys.readouterr().err
    # a tolerated rounding negative stores as 0, so Monte-Carlo draws work
    payload["probs"] = [-1e-16, 1.0]
    bad2.write_text(json.dumps(payload))
    assert cli.main(["simulate-js", str(bad2), "--n", "2", "--dim-cap", "2",
                     "--sampling", "mc", "--samples", "8"]) == 0
    # a block length below 1 is a validation error, with or without a minimizer run
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    for nb in ("0", "-1"):
        assert cli.main(["minimize", path, "--n-block", nb, "--multistarts", "1"]) == 2
        assert cli.main(["simulate-ep", path, "--k", "1", "--dim-cap", "2",
                         "--n-block", nb, "--multistarts", "1"]) == 2
        assert cli.main(["simulate-ep", path, "--k", "1", "--dim-cap", "2",
                         "--n-block", nb, "--trivial"]) == 2
    # optimizer arguments are checked once, in OptimizerConfig
    for bad_arg in (["--ancilla-dim", "-1"], ["--purifier-dim", "0"],
                    ["--multistarts", "0"], ["--max-iters", "-1"], ["--seed", "-1"]):
        capsys.readouterr()
        assert cli.main(["minimize", path, "--multistarts", "1"] + bad_arg) == 2
        assert bad_arg[0][2:].replace("-", "_") in capsys.readouterr().err
    # resource guard -> 4
    assert cli.main(["simulate-js", path, "--n", "9", "--eps", "0.1"]) == 4
    # a Monte-Carlo draw array past the element budget is refused before drawing
    assert cli.main(["simulate-js", path, "--n", "2", "--dim-cap", "2", "--sampling", "mc",
                     "--samples", "1000000000000000"]) == 4
    # ancilla 64 on C^16: the minimizer's start vector alone would be 128 GiB,
    # and the trivial assignment's parameters 64 GiB per state
    d16 = states.Ensemble([0.5, 0.5], (states.DensityMatrix(np.eye(16) / 16, (16,)),
                                       states.DensityMatrix(np.diag(np.arange(1.0, 17.0)) / 136,
                                                            (16,))))
    path16 = write_ensemble(tmp_path, d16, "d16.json")
    capsys.readouterr()
    assert cli.main(["minimize", path16, "--ancilla-dim", "64", "--multistarts", "1"]) == 4
    assert cli.main(["simulate-ep", path16, "--trivial", "--ancilla-dim", "64", "--k", "1"]) == 4
    err = capsys.readouterr().err
    assert "minimizer working set" in err and "trivial assignment" in err
    # bound violation -> 3 (forced through a monkeypatched report)
    violated = bounds.BoundReport("forced", lhs=1.0, rhs=0.0, satisfied=False, slack=-1.0)
    monkeypatch.setattr(cli, "_simulate_reports", lambda e, res: [violated])
    assert cli.main(["simulate-js", path, "--n", "2", "--eps", "0.1"]) == 3
    capsys.readouterr()


def test_high_fidelity_run_emits_satisfied_holevo_report(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    code = cli.main([
        "simulate-js", path, "--n", "6", "--eps", "0.002",
        "--sampling", "exact", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0][3] >= 0.99
    assert len(doc["bounds"]) == 1
    assert doc["bounds"][0]["satisfied"] is True


def test_load_ensemble_names_ragged_row(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    ragged = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
    path.write_text(json.dumps({"probs": [1.0], "factor_dims": [2], "states": [ragged]}))
    with pytest.raises(EnsembleParseError, match="state 0: row 1 has 1 entries, expected 2"):
        cli.load_ensemble(str(path))
    assert cli.main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "row 1 has 1 entries" in err and "inhomogeneous" not in err


GOOD_STATES = [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
]


@pytest.mark.parametrize(
    "payload",
    [
        5,
        {"probs": "abc", "factor_dims": [2], "states": GOOD_STATES},
        {"probs": [0.5, 0.5], "factor_dims": ["x"], "states": GOOD_STATES},
        {"probs": [0.5, 0.5], "factor_dims": 2, "states": GOOD_STATES},
        {"probs": [0.5, 0.5], "factor_dims": [2.7], "states": GOOD_STATES},
        {"probs": [0.5, 0.5], "factor_dims": [2], "states": 5},
    ],
    ids=["top-level-number", "probs-string", "dims-string-item", "dims-number",
         "dims-fraction", "states-number"],
)
def test_malformed_ensemble_is_a_parse_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(EnsembleParseError):
        cli.load_ensemble(str(path))
    assert cli.main(["analyze", str(path)]) == 1
    assert "enscomp: parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("system_dim", "x"), ("ancilla_dim", 2.5), ("params", [["a"] * 32, [0.0] * 32])],
    ids=["system-dim-string", "ancilla-dim-fraction", "params-non-numeric"],
)
def test_malformed_assignment_is_a_parse_error(tmp_path, capsys, field, value):
    e = reference.orthogonal_pair()
    payload = cli.assignment_to_payload(extopt.trivial_assignment(e, 2, 2))
    payload[field] = value
    asn = tmp_path / "asn.json"
    asn.write_text(json.dumps(payload))
    with pytest.raises(EnsembleParseError):
        cli.load_assignment(str(asn))
    path = write_ensemble(tmp_path, e)
    code = cli.main(["simulate-ep", path, "--k", "1", "--eps", "0.1",
                     "--assignment", str(asn)])
    assert code == 1
    assert "enscomp: parse error" in capsys.readouterr().err


def test_invalid_json_names_line_and_column(tmp_path, capsys):
    # an ensemble file and an assignment file report broken JSON alike
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "system_dim": 2,\n  "ancilla_dim": \n}\n')
    for load in (cli.load_ensemble, cli.load_assignment):
        with pytest.raises(EnsembleParseError, match="invalid JSON at line 4 column 1"):
            load(str(bad))
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    assert cli.main(["simulate-ep", path, "--k", "1", "--eps", "0.1",
                     "--assignment", str(bad)]) == 1
    assert "line 4 column 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["minimize"], ["simulate-ep", "--k", "1", "--eps", "0.1"],
    ["sweep", "--protocol", "ep", "--values", "1", "--eps", "0.1"],
])
def test_pure_extensions_excludes_purifier_dim(tmp_path, capsys, command):
    # --pure-extensions means purifier dim 1, so naming another is a usage error
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    with pytest.raises(SystemExit) as exc:
        cli.main([command[0], path, *command[1:], "--pure-extensions", "--purifier-dim", "3"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate-ep", "--k", "1", "--eps", "0.1"],
    ["sweep", "--protocol", "ep", "--values", "1", "--eps", "0.1"],
])
def test_assignment_excludes_trivial(tmp_path, capsys, command):
    # an assignment file and the trivial assignment name two assignments
    path = write_ensemble(tmp_path, reference.orthogonal_pair())
    asn = tmp_path / "assignment.json"
    asn.write_text(json.dumps(cli.assignment_to_payload(
        extopt.trivial_assignment(reference.orthogonal_pair(), 2, 2))))
    with pytest.raises(SystemExit) as exc:
        cli.main([command[0], path, *command[1:], "--assignment", str(asn), "--trivial"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_sweep_bad_values_is_a_usage_error(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", path, "--protocol", "js", "--values", "2,a", "--eps", "0.1"])
    assert exc.value.code == 1
    assert "--values" in capsys.readouterr().err


def test_simulate_zero_samples_is_a_validation_error(tmp_path, capsys):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    code = cli.main(["simulate-js", path, "--n", "4", "--eps", "0.1",
                     "--sampling", "mc", "--samples", "0"])
    assert code == 2
    assert "sample count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate-js", "--n", "2", "--eps", "0.1", "--sampling", "mc", "--samples", "8"],
    ["simulate-ep", "--k", "1", "--eps", "0.1", "--trivial"],
], ids=["simulate-js-mc", "simulate-ep-trivial"])
def test_negative_seed_is_a_validation_error(tmp_path, capsys, argv):
    # a Monte-Carlo run draws with the seed; simulate-ep checks its optimizer
    # flags, the seed among them, even with --trivial
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    assert cli.main([argv[0], path, *argv[1:], "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def _data_rows(text):
    return [l for l in text.strip().splitlines() if not l.startswith("#")][1:]


@pytest.mark.parametrize(
    "proto, single_cmd, value_flag, flags",
    [
        ("js", "simulate-js", "--n", ["--sampling", "mc", "--samples", "40"]),
        ("ep", "simulate-ep", "--k",
         ["--trivial", "--ancilla-dim", "2", "--purifier-dim", "1"]),
    ],
    ids=["js", "ep-trivial"],
)
def test_sweep_rows_match_single_runs(tmp_path, capsys, proto, single_cmd, value_flag, flags):
    path = write_ensemble(tmp_path, reference.zero_plus_pair())
    flags = [*flags, "--eps", "0.1", "--seed", "5"]
    assert cli.main(["sweep", path, "--protocol", proto, "--values", "2,3", *flags]) == 0
    swept = _data_rows(capsys.readouterr().out)
    single = []
    for v in ("2", "3"):
        assert cli.main([single_cmd, path, value_flag, v, *flags]) == 0
        single += _data_rows(capsys.readouterr().out)
    assert len(swept) == 2
    assert swept == single
