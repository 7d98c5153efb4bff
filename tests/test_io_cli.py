"""Serialization round trips and command-line entry points."""
import json
import warnings

import numpy as np
import pytest

from qcap import io as qio
from qcap.capacity import Slope
from qcap.channels import channel_from_name
from qcap.cli import main
from qcap.errors import ValidationError
from qcap.linalg import binary_entropy
from qcap.information import CQEnsemble, coherent_information
from qcap.sampling import random_channel, random_state, seed_rng
from qcap.spaces import TensorSpace
from qcap.states import DensityMatrix, purify


def bell_state() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(TensorSpace.of(("A", 2), ("B", 2)), np.outer(v, v.conj()))


def write_state(path, state: DensityMatrix) -> str:
    qio.save_text(str(path), qio.dumps_canonical(qio.state_to_json(state)))
    return str(path)


def classical_bit_ensemble() -> CQEnsemble:
    return CQEnsemble(dim_a=2, dim_r=1, probs=np.array([0.5, 0.5]),
                      vectors=np.eye(2, dtype=complex))


def test_dumps_canonical_format():
    text = qio.dumps_canonical({"b": 1, "a": [1.5, None]})
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert text == qio.dumps_canonical(json.loads(text))


def test_state_round_trip_is_exact(tmp_path):
    state = random_state([("A", 2), ("B", 3)], seed_rng(3, "io-state"))
    path = tmp_path / "state.json"
    write_state(path, state)
    back = qio.state_from_json(qio.load_json(str(path)))
    assert back.space == state.space
    assert np.array_equal(back.matrix, state.matrix)


def test_channel_round_trip_is_exact(tmp_path):
    channel = random_channel(2, 3, 3, seed_rng(4, "io-chan"))
    path = tmp_path / "chan.json"
    qio.save_text(str(path), qio.dumps_canonical(qio.channel_to_json(channel)))
    back = qio.channel_from_json(qio.load_json(str(path)))
    assert back.dim_in == 2 and back.dim_out == 3
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, channel.kraus))


def test_ensemble_round_trip_is_exact(tmp_path):
    rng = seed_rng(5, "io-ens")
    raw = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    ens = CQEnsemble(dim_a=2, dim_r=2, probs=np.array([0.2, 0.3, 0.5]),
                     vectors=raw)
    path = tmp_path / "ens.json"
    qio.save_text(str(path), qio.dumps_canonical(qio.ensemble_to_json(ens)))
    back = qio.ensemble_from_json(qio.load_json(str(path)))
    assert back.dim_a == 2 and back.dim_r == 2
    assert np.array_equal(back.probs, ens.probs)
    assert np.array_equal(back.vectors, ens.vectors)


def test_state_schema_errors():
    good = qio.state_to_json(bell_state())
    with pytest.raises(ValidationError):
        qio.state_from_json({"matrix": good["matrix"]})
    with pytest.raises(ValidationError):
        qio.state_from_json({"dims": good["dims"]})
    with pytest.raises(ValidationError):
        qio.state_from_json({"dims": [["A", 2, 2]], "matrix": good["matrix"]})
    with pytest.raises(ValidationError):
        qio.state_from_json({"dims": good["dims"], "matrix": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        qio.state_from_json([1, 2, 3])


def test_channel_schema_errors():
    good = qio.channel_to_json(channel_from_name("identity(2)"))
    with pytest.raises(ValidationError):
        qio.channel_from_json({"dim_out": 2, "kraus": good["kraus"]})
    with pytest.raises(ValidationError):
        qio.channel_from_json({"dim_in": 2, "dim_out": 2, "kraus": []})
    for dim in (2.7, "x", None, True):
        with pytest.raises(ValidationError):
            qio.channel_from_json({"dim_in": dim, "dim_out": 2, "kraus": good["kraus"]})
    with pytest.raises(ValidationError):
        qio.channel_from_json({"dim_in": 2, "dim_out": 2, "kraus": [[[[1, 0], [0, 0]]]]})


def test_ensemble_schema_errors():
    with pytest.raises(ValidationError):
        qio.ensemble_from_json({"dim_A": 2, "dim_R": 1, "entries": []})
    bad_len = {"dim_A": 2, "dim_R": 2,
               "entries": [{"p": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}]}
    with pytest.raises(ValidationError):
        qio.ensemble_from_json(bad_len)
    with pytest.raises(ValidationError):
        qio.ensemble_from_json({"dim_A": 2, "dim_R": 1,
                                "entries": [{"vector": [[1.0, 0.0], [0.0, 0.0]]}]})
    vec = [[1.0, 0.0], [0.0, 0.0]]
    for bad in ({"dim_A": 2.5, "dim_R": 1, "entries": [{"p": 1.0, "vector": vec}]},
                {"dim_A": 2, "dim_R": 1, "entries": [{"p": "1", "vector": vec}]},
                {"dim_A": 2, "dim_R": 1, "entries": [{"p": float("nan"), "vector": vec}]},
                {"dim_A": 2, "dim_R": 1, "entries": [{"p": 1.0, "vector": [[1.0, 0.0], [0.0]]}]},
                {"dim_A": 2, "dim_R": 1, "entries": [{"p": 1.0, "vector": [[1.0, "0"], [0, 0]]}]}):
        with pytest.raises(ValidationError):
            qio.ensemble_from_json(bad)


def test_resolve_channel_name_or_path(tmp_path):
    named = qio.resolve_channel("dephasing(0.25)")
    path = tmp_path / "chan.json"
    qio.save_text(str(path), qio.dumps_canonical(qio.channel_to_json(named)))
    loaded = qio.resolve_channel(str(path))
    assert all(np.array_equal(a, b) for a, b in zip(named.kraus, loaded.kraus))
    with pytest.raises(ValidationError):
        qio.resolve_channel("no_such_channel(0.1)")
    with pytest.raises(ValidationError):
        qio.resolve_channel(str(tmp_path / "missing.json"))


def test_load_json_errors(tmp_path):
    with pytest.raises(ValidationError):
        qio.load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        qio.load_json(str(bad))


def test_slope_json_kinds():
    assert qio.slope_to_json(Slope(value=0.5)) == {"kind": "finite", "value": 0.5}
    assert qio.slope_to_json(Slope(value=float("inf"))) == {"kind": "infinite"}
    assert qio.slope_to_json(Slope(value=0.0, degenerate=True)) == \
        {"kind": "degenerate"}


def test_cli_rejects_bad_invocations():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--channel", "identity(2)", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_cli_info_state(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    assert main(["info", "--state", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entropy"] == pytest.approx(0.0, abs=1e-10)
    assert payload["subsystem_entropies"]["A"] == pytest.approx(1.0, abs=1e-10)
    assert payload["subsystem_entropies"]["B"] == pytest.approx(1.0, abs=1e-10)


GOOD_MATRIX = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


@pytest.mark.parametrize("dims, matrix", [
    ([["A", 2.7]], GOOD_MATRIX),
    ([["A", "two"]], GOOD_MATRIX),
    ([["A", 2]], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
    ([["A", 2]], [[[0.5, 0.0], [0.0, "x"]], [[0.0, 0.0], [0.5, 0.0]]]),
    ([["A", 2]], [[[0.5, 0.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [0.5, 0.0]]]),
])
def test_cli_info_rejects_malformed_state(tmp_path, capsys, dims, matrix):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": dims, "matrix": matrix}), encoding="utf-8")
    assert main(["info", "--state", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_info_state_with_many_subsystems(tmp_path, capsys):
    # 14 subsystems need 28 tensor axes; a Bell pair sits on the outer two
    dims = [("A0", 2)] + [(f"A{i}", 1) for i in range(1, 13)] + [("A13", 2)]
    state = DensityMatrix(TensorSpace.of(*dims), bell_state().matrix)
    assert main(["info", "--state", write_state(tmp_path / "wide.json", state)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subsystem_entropies"]["A0"] == pytest.approx(1.0, abs=1e-10)
    assert payload["subsystem_entropies"]["A13"] == pytest.approx(1.0, abs=1e-10)
    assert payload["subsystem_entropies"]["A5"] == pytest.approx(0.0, abs=1e-10)


def test_cli_info_state_with_channel(tmp_path, capsys):
    qubit = DensityMatrix(TensorSpace.single("A", 2), np.eye(2) / 2)
    path = write_state(tmp_path / "qubit.json", qubit)
    assert main(["info", "--state", path, "--channel", "dephasing(0.1)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coherent_information"] == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-9)


def test_cli_info_channel_on_subsystem(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    assert main(["info", "--state", path, "--channel", "dephasing(0.5)",
                 "--target", "A"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coherent_information"] == pytest.approx(0.0, abs=1e-9)


def test_cli_info_channel_on_middle_subsystem(tmp_path, capsys):
    state = random_state(TensorSpace.of(("A", 2), ("B", 2), ("C", 3)),
                         seed_rng(5, "cli-target"))
    path = write_state(tmp_path / "abc.json", state)
    assert main(["info", "--state", path, "--channel", "dephasing(0.2)",
                 "--target", "B"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = coherent_information(purify(state, ref_label="E"),
                                    channel_from_name("dephasing(0.2)"), target="B")
    assert payload["coherent_information"] == pytest.approx(expected, abs=1e-10)
    assert main(["info", "--state", path, "--channel", "dephasing(0.2)",
                 "--target", "D"]) == 2


def test_state_json_with_numpy_dimensions():
    state = DensityMatrix(TensorSpace.of(("A", np.int64(2))), np.eye(2) / 2)
    payload = json.loads(qio.dumps_canonical(qio.state_to_json(state)))
    assert payload["dims"] == [["A", 2]]


def test_cli_info_ensemble(tmp_path, capsys):
    path = tmp_path / "ens.json"
    qio.save_text(str(path), qio.dumps_canonical(
        qio.ensemble_to_json(classical_bit_ensemble())))
    assert main(["info", "--ensemble", str(path), "--channel", "identity(2)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["i_g"] == pytest.approx(1.0, abs=1e-10)
    assert payload["r_c"] == pytest.approx(1.0, abs=1e-10)
    assert payload["r_q"] == pytest.approx(0.0, abs=1e-10)
    assert payload["holevo"] == pytest.approx(1.0, abs=1e-10)


def test_cli_info_argument_errors(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    assert main(["info"]) == 2
    assert main(["info", "--state", path, "--ensemble", path]) == 2
    assert main(["info", "--ensemble", path]) == 2
    assert main(["info", "--state", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_kid_output_file(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    out = tmp_path / "kid.json"
    assert main(["kid", "--state", path, "--system", "A",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    payload = json.loads(text)
    (block,) = payload["blocks"]
    assert block["dim_q"] == 2 and block["dim_n"] == 1
    assert block["prob"] == pytest.approx(1.0, abs=1e-10)
    assert payload["entropy_quantum_given_classical"] == pytest.approx(1.0, abs=1e-9)
    assert payload["reconstruction_error"] <= 1e-8
    assert main(["kid", "--state", path, "--system", "A"]) == 0
    assert capsys.readouterr().out == text


def test_cli_kid_bad_system_label(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    assert main(["kid", "--state", path, "--system", "Z"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["curve", "--channel", "identity(2)", "--points", "2", "--restarts", "0", "--iters", "1"],
    ["kid", "--system", "A"],
    ["verify", "converse", "--eps-grid", "0", "--restarts", "0"]], ids=["curve", "kid", "verify"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    if command[0] == "kid":
        command = command + ["--state", write_state(tmp_path / "bell.json", bell_state())]
    assert main(command + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in err


def test_cli_curve_json_and_csv(tmp_path, capsys):
    argv = ["curve", "--channel", "identity(2)", "--points", "5",
            "--restarts", "1", "--iters", "10", "--seed", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["level_l"] == 1
    assert payload["c_c_endpoint"] == pytest.approx(1.0, abs=1e-3)
    assert payload["c_q_endpoint"] == pytest.approx(1.0, abs=1e-3)
    assert all(p["r_q"] >= 0.0 and p["r_c"] >= 0.0 for p in payload["points"])
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    assert main(argv + ["--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    lines = csv_text.strip().split("\n")
    assert lines[0] == "r_q,r_c,weight_t,synthetic"
    assert len(lines) == len(payload["points"]) + 1
    cells = lines[1].split(",")
    assert len(cells) == 4
    float(cells[0]), float(cells[1])


def test_cli_curve_rejects_single_point_grid(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main(["curve", "--channel", "identity(2)", "--points", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 2 points" in err
    assert "RuntimeWarning" not in err


def test_cli_capacity(tmp_path, capsys):
    path = write_state(tmp_path / "bell.json", bell_state())
    assert main(["capacity", "--state", path, "--channel", "identity(2)",
                 "--restarts", "0", "--iters", "4", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_g"] == pytest.approx(1.0, abs=0.02)
    assert payload["slope"]["kind"] in ("finite", "infinite")
    assert payload["entropy_joint"] == pytest.approx(1.0, abs=1e-9)
    assert payload["copies_per_use"] == pytest.approx(payload["c_g"], abs=1e-9)


def test_cli_verify_core(capsys):
    assert main(["verify", "core", "--instances", "5", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"fuchs_van_de_graaf", "fannes_audenaert", "data_processing",
                     "reduction_identities", "almost_product"}
    assert all(c["passed"] for c in payload["checks"])


def test_cli_verify_typicality(capsys):
    assert main(["verify", "typicality", "--samples", "500"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"dimension_bound", "mass_trend", "empirical_fraction"}


def test_cli_verify_converse(capsys):
    assert main(["verify", "converse", "--eps-grid", "0,0.2",
                 "--restarts", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"grid_monotone_Y", "witness_feasible_Y", "zero_eps_anchor_Y",
            "grid_monotone_W", "witness_feasible_W", "zero_eps_anchor_W"} == names


def test_cli_verify_output_file(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "typicality", "--samples", "200",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["suite"] == "typicality"


def test_cli_verify_converse_rejects_bad_arguments(capsys):
    assert main(["verify", "converse", "--eps-grid", ""]) == 2
    assert main(["verify", "converse", "--restarts", "-1"]) == 2
    err = capsys.readouterr().err
    assert "epsilon grid is empty" in err and "restarts" in err
