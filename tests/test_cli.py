"""Command-line behavior: exit codes, file artifacts, determinism."""

import json
import math

import numpy as np
import pytest

from corechain.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NAN_COUPLINGS = '{"n_sites": 3, "omegas": [NaN, NaN], "lambdas": [1, 1, 1]}'
INF_FIELDS = '{"n_sites": 3, "omegas": [1, 1], "lambdas": [Infinity, 1, Infinity]}'


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["verify", "--profile"], NAN_COUPLINGS, "non-finite couplings at j=[1, 2]"),
        (["robustness", "--profile"], NAN_COUPLINGS, "non-finite couplings at j=[1, 2]"),
        (
            ["evolve", "--basis", "100", "--t", "1.0", "--profile"],
            INF_FIELDS,
            "non-finite fields at j=[1, 3]",
        ),
        (["design", "--spectrum"], '{"energies": [0, NaN, 2, 3]}', "non-finite energies at k=[2]"),
    ],
    ids=["verify", "robustness", "evolve", "design"],
)
def test_nonfinite_input_exits_one(capsys, tmp_path, argv, text, named):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert named in err


class TestDesign:
    def test_christandl(self, capsys, tmp_path):
        out_file = tmp_path / "profile.json"
        code, out, err = run(capsys, "design", "--christandl", "5", "--out", str(out_file))
        assert code == 0
        assert "certificate: valid" in out
        assert "phi_n=0" in out
        data = json.loads(out_file.read_text())
        assert data["schema"] == "1"
        assert data["n_sites"] == 5

    def test_spectrum_round_trip(self, capsys, tmp_path):
        spec_file = tmp_path / "lin3.json"
        spec_file.write_text('{"energies": [0.0, 1.0, 2.0]}')
        out_file = tmp_path / "designed.json"
        code, out, _ = run(
            capsys,
            "design", "--spectrum", str(spec_file),
            "--tau", "3.14159265358979", "--out", str(out_file),
        )
        assert code == 0
        assert "certificate: valid" in out
        data = json.loads(out_file.read_text())
        assert np.allclose(data["omegas"], [math.sqrt(2) / 2] * 2, atol=1e-8)
        assert np.allclose(data["lambdas"], [1.0] * 3, atol=1e-8)

    def test_no_flags_usage_error(self, capsys):
        code, _, err = run(capsys, "design")
        assert code == 2
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_conflicting_flags_usage_error(self, capsys, tmp_path):
        spec_file = tmp_path / "s.json"
        spec_file.write_text('{"energies": [0.0, 1.0]}')
        code, _, err = run(capsys, "design", "--christandl", "3", "--spectrum", str(spec_file))
        assert code == 2

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "design", "--christandl", "7", "--out", str(a))
        run(capsys, "design", "--christandl", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_valid_chain(self, capsys, tmp_path):
        profile_file = tmp_path / "p.json"
        run(capsys, "design", "--christandl", "4", "--out", str(profile_file))
        code, out, _ = run(capsys, "verify", "--profile", str(profile_file), "--tau", str(math.pi))
        assert code == 0
        assert "certificate: valid" in out

    def test_invalid_tau_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--christandl", "4", "--tau", "1.0")
        assert code == 1
        assert "certificate: invalid" in out

    def test_certificate_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, _, _ = run(capsys, "verify", "--christandl", "3", "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["valid"] is True
        assert abs(data["phi_n"]) <= 1e-12


class TestEvolve:
    def test_transfer(self, capsys, tmp_path):
        out_file = tmp_path / "state.json"
        code, _, _ = run(
            capsys,
            "evolve", "--christandl", "3", "--basis", "100",
            "--t", str(math.pi), "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        amps = [complex(re, im) for re, im in data["amplitudes"]]
        assert abs(amps[0b001]) == pytest.approx(1.0, abs=1e-9)

    def test_missing_input_usage(self, capsys):
        code, _, err = run(capsys, "evolve", "--christandl", "3", "--t", "1.0")
        assert code == 2


class TestGate:
    def test_z_program_json(self, capsys, tmp_path):
        out_file = tmp_path / "z.json"
        code, _, _ = run(
            capsys, "gate", "--christandl", "3", "--kind", "z", "--x", "2", "--out", str(out_file)
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        ops = [i["op"] for i in data["instructions"]]
        assert ops == ["evolve", "swap", "evolve"]
        assert data["instructions"][1]["core_site"] == 2  # mirror of x = 2 for N = 3

    def test_z_run_prints_amplitudes(self, capsys):
        code, out, _ = run(
            capsys, "gate", "--christandl", "2", "--kind", "z", "--x", "1",
            "--input", "110", "--run",
        )
        assert code == 0
        assert "|011>" in out

    def test_cat_fidelity_line(self, capsys):
        code, out, _ = run(capsys, "gate", "--christandl", "4", "--kind", "cat")
        assert code == 0
        assert "cat fidelity: 1.0000000000" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--profile", "{uniform}", "--kind", "cat"],
            ["--christandl", "3", "--kind", "z", "--tau", "1.0", "--run"],
            ["--christandl", "4", "--kind", "w", "--tau", "2.0", "--run", "--out", "{out}"],
        ],
    )
    def test_refuses_uncertified_chain(self, capsys, tmp_path, argv):
        uniform = tmp_path / "uniform.json"
        uniform.write_text('{"n_sites": 4, "omegas": [1, 1, 1], "lambdas": [0, 0, 0, 0]}')
        out_file = tmp_path / "program.json"
        args = [a.format(uniform=uniform, out=out_file) for a in argv]
        code, out, err = run(capsys, "gate", *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out_file.exists()

    def test_w_program_on_even_chain(self, capsys, tmp_path):
        # the pi-phase chain exercises the correction path end to end
        out_file = tmp_path / "w.json"
        code, _, _ = run(
            capsys,
            "gate", "--christandl", "4", "--kind", "w", "--x", "1",
            "--phase", "0.785398163397448", "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        ops = [i["op"] for i in data["instructions"]]
        assert ops.count("evolve") == 4
        assert ops.count("swap") == 2


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_check_passes(self, capsys, n):
        code, out, _ = run(capsys, "qft", "--n", str(n), "--check")
        assert code == 0
        assert "max |Δ| vs DFT:" in out

    def test_check_with_finisher(self, capsys):
        code, _, _ = run(capsys, "qft", "--n", "3", "--check", "--bit-reversal")
        assert code == 0

    def test_oversized_check_exits_one(self, capsys):
        code, _, err = run(capsys, "qft", "--n", "11", "--check")
        assert code == 1
        assert err.strip().startswith("error:")

    def test_oversized_layout_exits_one(self, capsys):
        code, _, err = run(capsys, "qft", "--n", "16")
        assert code == 1
        assert err.strip().startswith("error:")


class TestHamsim:
    @pytest.mark.parametrize("mask,variant", [("zz", "ancilla"), ("zziz", "ancilla"), ("zz", "direct"), ("xyz", "direct")])
    def test_check_passes(self, capsys, mask, variant):
        code, out, _ = run(
            capsys, "hamsim", "--mask", mask, "--dt", "0.3", "--variant", variant, "--check"
        )
        assert code == 0
        assert "max |Δ| vs exp(-i P dt):" in out

    def test_direct_partial_mask_errors(self, capsys):
        code, _, err = run(
            capsys, "hamsim", "--mask", "zi", "--dt", "0.3", "--variant", "direct"
        )
        assert code == 1
        assert err.strip().startswith("error:")


class TestCost:
    def test_qft_sweep_csv(self, capsys, tmp_path):
        out_file = tmp_path / "qft_cost.csv"
        code, _, _ = run(capsys, "cost", "--qft", "--n-range", "2..12", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("n,core_free_evolutions")
        assert len(lines) == 12  # header + 11 sizes
        rows = [line.split(",") for line in lines[1:]]
        core = [int(r[4]) for r in rows]
        switched = [int(r[5]) for r in rows]
        ns = [int(r[0]) for r in rows]
        # linear core growth, quadratic switched growth
        assert all(c == 6 * (n - 1) for n, c in zip(ns, core))
        assert all(s == n * (n - 1) for n, s in zip(ns, switched))

    def test_concat_table(self, capsys):
        code, out, _ = run(capsys, "cost", "--concat", "--levels", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",") == ["0", "1", "6", "6"]
        assert lines[3].split(",") == ["2", "49", "6", "294"]

    def test_program_census(self, capsys, tmp_path):
        prog_file = tmp_path / "z.json"
        run(capsys, "gate", "--christandl", "3", "--kind", "z", "--out", str(prog_file))
        code, out, _ = run(capsys, "cost", "--program", str(prog_file))
        assert code == 0
        data = json.loads(out)
        assert data["free_evolutions"] == 2 and data["swaps"] == 1

    def test_program_nan_duration(self, capsys, tmp_path):
        prog_file = tmp_path / "nan.json"
        prog_file.write_text(
            '{"layout": {"core_sites": 2}, "instructions": [{"op": "evolve", "duration": NaN}]}'
        )
        code, out, err = run(capsys, "cost", "--program", str(prog_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_program_swap_out_of_range(self, capsys, tmp_path):
        prog_file = tmp_path / "swap.json"
        prog_file.write_text(
            '{"layout": {"core_sites": 2}, "instructions": [{"op": "swap", "core_site": 1, "partner": 9}]}'
        )
        code, _, err = run(capsys, "cost", "--program", str(prog_file))
        assert code == 1
        assert err.startswith("error: instruction 0")

    def test_needs_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "cost")
        assert code == 2

    def test_csv_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "cost", "--qft", "--n-range", "2..8", "--out", str(a))
        run(capsys, "cost", "--qft", "--n-range", "2..8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRobustness:
    def test_order_two_report(self, capsys, tmp_path):
        out_file = tmp_path / "rob.json"
        csv_file = tmp_path / "rob.csv"
        code, out, _ = run(
            capsys,
            "robustness", "--n", "4", "--dts", "1e-1,1e-2,1e-3",
            "--out", str(out_file), "--csv", str(csv_file),
        )
        assert code == 0
        assert "fitted_order: " in out
        order = float(out.split("fitted_order:")[1])
        assert 1.9 <= order <= 2.1
        data = json.loads(out_file.read_text())
        assert data["schema"] == "1"
        assert len(data["errors"]) == 3
        assert csv_file.read_text().splitlines()[0] == "delta_t,error"

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "robustness", "--n", "4", "--seed", "3", "--out", str(a))
        run(capsys, "robustness", "--n", "4", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_couplings_exit_one(self, capsys, tmp_path):
        negated = tmp_path / "negated.json"
        negated.write_text(
            '{"n_sites": 4, "omegas": [-0.8660254037844386, -1.0, -0.8660254037844386],'
            ' "lambdas": [2.5, 2.5, 2.5, 2.5]}'
        )
        code, out, err = run(capsys, "robustness", "--profile", str(negated))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_vacuum_weight_insufficient(self, capsys):
        code, _, err = run(
            capsys, "robustness", "--n", "4", "--weight", "0", "--dts", "1e-1,1e-2,1e-3"
        )
        assert code == 1
        assert err.strip().startswith("error:")
