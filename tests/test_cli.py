"""Command-line behavior: exit codes, file artifacts, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corechain import (
    HADAMARD,
    FreeEvolve,
    GateProgram,
    Layout,
    Local,
    PauliString,
    StateVector,
    Swap,
    ancilla_pauli_program,
    christandl_profile,
    direct_pauli_program,
    execute,
    program_unitary,
    qft_program,
    serialize,
    zero_phase_profile,
)
from corechain.chain import MAX_CHAIN_SITES
from corechain import cli, gates
from corechain.cli import main

import oracles


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


@pytest.mark.parametrize(
    "argv, named",
    [
        ("verify --christandl 4 --tau inf", "tau must be positive and finite, got inf"),
        ("design --christandl 4 --tau inf", "tau must be positive and finite, got inf"),
        ("robustness --n 4 --tau inf", "tau must be positive and finite, got inf"),
        ("robustness --n 4 --dts 0.1,nan,0.001", "delta_t samples must be positive, finite"),
        ("verify --christandl 4 --tau 1e308", "tau=1e+308 overflows the mode phases"),
    ],
    ids=["verify-tau", "design-tau", "robustness-tau", "robustness-dts", "verify-tau-overflow"],
)
def test_nonfinite_argument_exits_one(capsys, argv, named):
    code, out, err = run(capsys, *argv.split())
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

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_cat_control_site(self, capsys, x):
        code, out, _ = run(capsys, "gate", "--christandl", "4", "--kind", "cat", "--x", str(x))
        assert code == 0
        assert out == "cat fidelity: 1.000000000000\n"

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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--christandl", "3", "--tau", "-1"], "tau must be positive and finite, got -1.0"),
            (["--christandl", "3", "--tau", "nan"], "tau must be positive and finite, got nan"),
            (["--profile", "{skewed}"], "mirror-symmetry residuals"),
        ],
        ids=["negative-tau", "nan-tau", "skewed-profile"],
    )
    def test_z_program_checks_tau_and_chain(self, capsys, tmp_path, argv, named):
        # without --run nothing is simulated, but the program still names the chain's period
        skewed = tmp_path / "skewed.json"
        skewed.write_text('{"n_sites": 3, "omegas": [1, 2], "lambdas": [0, 0, 0]}')
        out_file = tmp_path / "z.json"
        args = [a.format(skewed=skewed) for a in argv]
        code, out, err = run(capsys, "gate", *args, "--kind", "z", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert named in err
        assert not out_file.exists()

    def test_z_program_off_period_is_written(self, capsys, tmp_path):
        # an uncertified tau is refused only when the program is simulated
        out_file = tmp_path / "z.json"
        code, _, _ = run(
            capsys, "gate", "--christandl", "3", "--kind", "z", "--tau", "1.0", "--out", str(out_file)
        )
        assert code == 0
        assert json.loads(out_file.read_text())["instructions"][0]["duration"] == 1.0

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


@pytest.mark.parametrize("n", range(1, 11))
def test_dft_reference_is_exact_to_round_off(n):
    dft = cli._dft_matrix(n)
    assert np.max(np.abs(dft @ dft.conj().T - np.eye(1 << n))) <= 1e-15
    # row 1 holds the root of each jk mod 2^n, and every other entry is that root
    jk = np.outer(np.arange(1 << n), np.arange(1 << n)) % (1 << n)
    assert np.array_equal(dft, dft[1][jk])


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

    def test_qft_sweep_rows_are_closed_form(self, capsys):
        code, out, _ = run(capsys, "cost", "--qft", "--n-range", "1..3000")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3001
        n = 3000
        counts = [n, 4 * (n - 1), 2 * (n - 1), n + (n - 1) * (3 * n + 2) // 2, 6 * (n - 1), n * (n - 1)]
        times = [math.pi * 4 * (n - 1), 2 * n * (math.pi / (2.0 * (n / 4.0)))]
        last = lines[-1].split(",")
        assert last[:6] == [str(v) for v in counts]
        assert [float(v) for v in last[6:]] == times  # the 17-digit cells read back exactly

    def test_csv_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "cost", "--qft", "--n-range", "2..8", "--out", str(a))
        run(capsys, "cost", "--qft", "--n-range", "2..8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    # 4 pi (n - 1) passes the largest float between 1.4e307 and 1.5e307, and n itself
    # converts to no float past 1.8e308; the refusal comes before the CSV header
    @pytest.mark.parametrize("n", [15 * 10**306, 10**309], ids=["1.5e307", "1e309"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_qft_sweep_refuses_times_that_overflow(self, capsys, tmp_path, n, to_file):
        out_file = tmp_path / "qft.csv"
        argv = ["cost", "--qft", "--n-range", f"{n}..{n}"] + (["--out", str(out_file)] if to_file else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and not out_file.exists()
        assert err.startswith("error: the core time") and err.count("\n") == 1

    def test_qft_sweep_keeps_every_finite_row(self, capsys):
        code, out, _ = run(capsys, "cost", "--qft", "--n-range", f"{14 * 10**306}..{14 * 10**306}")
        assert code == 0
        assert [float(v) for v in out.splitlines()[1].split(",")[6:]] == [
            math.pi * 4 * (14 * 10**306 - 1), 2 * 14 * 10**306 * (math.pi / (2.0 * (14 * 10**306 / 4.0)))
        ]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_qft_sweep_streams_its_rows(self, tmp_path):
        # the child reports its own peak RSS (VmHWM, which starts afresh at exec, unlike
        # ru_maxrss); holding 200,000 rows and their joined text (16 MB of CSV) took about
        # 160 MB, against about 30 MB for 2,000 rows
        script = (
            "import pathlib, sys; from corechain.cli import main; code = main(sys.argv[1:]); "
            "status = pathlib.Path('/proc/self/status').read_text(); "
            "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr); sys.exit(code)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(serialize.__file__).resolve().parents[1])}

        def peak_mb(last, *out):
            child = subprocess.run(
                [sys.executable, "-c", script, "cost", "--qft", "--n-range", f"1..{last}", *out],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120, check=True,
            )
            return int(child.stderr) / 1024  # kB

        floor = peak_mb(2_000)
        assert peak_mb(200_000) <= floor + 16
        # the file writer streams too; 50,000 rows held took about 30 MB over the floor
        assert peak_mb(50_000, "--out", str(tmp_path / "qft.csv")) <= floor + 16


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


# ---------------------------------------------------------------------------
# the dense checks read only the columns they compare, through the gates block runner


@pytest.mark.parametrize("bit_reversal", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_qft_data_block_matches_full_unitary(n, bit_reversal):
    program = qft_program(n, include_bit_reversal=bit_reversal)
    profile = zero_phase_profile(n) if n >= 2 else None
    positions = [program.layout.core_position(s) for s in range(1, n + 1)]
    expected = oracles.data_block(program_unitary(program, profile), program.layout, positions)
    assert np.array_equal(gates.program_block(program, profile, positions[0], n), expected)


@pytest.mark.parametrize(
    "build, mask",
    [
        (ancilla_pauli_program, "z"),
        (ancilla_pauli_program, "zxiy"),
        (ancilla_pauli_program, "yiizxz"),
        (direct_pauli_program, "x"),
        (direct_pauli_program, "xyz"),
        (direct_pauli_program, "zzyxzy"),
    ],
)
def test_hamsim_data_block_matches_full_unitary(build, mask):
    program = build(PauliString.from_string(mask), 0.3)
    profile = zero_phase_profile(program.layout.core_sites)
    positions = [program.layout.core_position(s + 1) for s in range(1, len(mask) + 1)]
    expected = oracles.data_block(program_unitary(program, profile), program.layout, positions)
    assert np.array_equal(gates.program_block(program, profile, positions[0], len(mask)), expected)


# chain sites, ancilla and store: the whole register, a leading, a middle and a trailing block
@pytest.mark.parametrize("first, count", [(0, 5), (0, 3), (1, 3), (2, 3), (4, 1)])
def test_block_matches_one_column_runs(first, count):
    layout = Layout(3, ancilla_count=1, store_sites=1)
    profile = christandl_profile(3)
    program = GateProgram(
        (
            Local(0, HADAMARD),
            FreeEvolve(math.pi),
            Swap(3, layout.store_position(0)),
            Local(4, HADAMARD),
            FreeEvolve(0.7),
            Swap(1, layout.ancilla_position(0)),
            FreeEvolve(math.pi),
        ),
        layout,
    )
    # the one-column plan, column by column, against the wide batch of the block runner
    columns = [
        execute(program, profile, StateVector(layout, column)).amplitudes
        for column in np.eye(layout.dim, dtype=complex)
    ]
    expected = oracles.data_block(np.column_stack(columns), layout, range(first, first + count))
    assert np.max(np.abs(gates.program_block(program, profile, first, count) - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# the boundary: malformed files and argument probes end in one error line

VALID = {
    "profile": serialize.profile_to_dict(christandl_profile(3)),
    "spectrum": {"energies": [0.0, 1.0, 2.0]},
    "state": serialize.state_to_dict(StateVector.basis(Layout(3), "100")),
    "program": serialize.program_to_dict(
        GateProgram((FreeEvolve(math.pi), Swap(1, 3), Local(0, HADAMARD)), Layout(3, 1))
    ),
}
READERS = {  # commands that read one file of each kind, which goes last
    "profile": [
        ["verify", "--profile"],
        ["evolve", "--basis", "100", "--t", "1.0", "--profile"],
        ["gate", "--kind", "z", "--run", "--profile"],
        ["robustness", "--profile"],
    ],
    "spectrum": [["design", "--spectrum"]],
    "state": [["evolve", "--christandl", "3", "--t", "1.0", "--state"]],
    "program": [["cost", "--program"]],
}
JUNK = [None, True, "x", 2.5, -1, 0, 10**400, math.nan, [], {}, [1, "a"], [[1]]]


def _paths(obj, path=()):
    """Every key path into a parsed JSON document, the root included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def malformed_file(draw):
    """(argv prefix, file bytes): a valid record with one key dropped or one value replaced."""
    kind = draw(st.sampled_from(sorted(VALID)))
    argv = draw(st.sampled_from(READERS[kind]))
    data = copy.deepcopy(VALID[kind])
    path = draw(st.sampled_from(list(_paths(data))))
    text = json.dumps(draw(st.sampled_from(JUNK)))
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(JUNK))
        text = json.dumps(data)
    how = draw(st.sampled_from(["edit", "truncate", "bytes"]))
    if how == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return argv, b"\xff" + text.encode() if how == "bytes" else text.encode()


def probe_argv():
    """Argument probes that name a wrong value, mode or range."""
    real = st.sampled_from(["inf", "-inf", "nan", "-1", "0", "2.5", "1e308"])
    bits = st.text("01x2", min_size=0, max_size=5)
    return st.one_of(
        real.map(lambda tau: ["cost", "--program", "{program}", "--tau", tau]),
        st.tuples(st.sampled_from(["--qft", "--concat"]), real).map(
            lambda mode_tau: ["cost", mode_tau[0], "--n-range", "2..3", "--tau", mode_tau[1]]
        ),
        st.tuples(st.integers(-3, 13), st.integers(-3, 13)).map(
            lambda ab: ["cost", "--qft", "--n-range", f"{ab[0]}..{ab[1]}"]
        ),
        # past level 5087 a count has more digits than `str` renders by default
        (st.integers(-3, 5) | st.integers(5088, 10**18)).map(lambda k: ["cost", "--concat", "--levels", str(k)]),
        bits.map(lambda b: ["evolve", "--christandl", "3", "--t", "1.0", "--basis", b]),
        bits.map(lambda b: ["gate", "--christandl", "2", "--run", "--input", b]),
        st.tuples(st.sampled_from(["z", "w"]), real).map(
            lambda kind_tau: ["gate", "--christandl", "3", "--kind", kind_tau[0], "--tau", kind_tau[1]]
        ),
        # oversized chains are refused before anything N x N is allocated
        st.tuples(st.sampled_from(["design", "verify"]), st.integers(MAX_CHAIN_SITES + 1, 10**15)).map(
            lambda command_n: [command_n[0], "--christandl", str(command_n[1])]
        ),
        # --check runs the program on every data column, so only up to 4 sites
        st.tuples(st.integers(-3, 18), st.booleans()).map(
            lambda n_check: ["qft", "--n", str(n_check[0])] + ["--check"] * (n_check[1] and n_check[0] <= 4)
        ),
        st.tuples(
            st.text("xyziq", max_size=6), real, st.sampled_from(["ancilla", "direct", "both"]), st.booleans()
        ).map(
            lambda h: ["hamsim", "--mask", h[0], "--dt", h[1], "--variant", h[2]]
            + ["--check"] * (h[3] and len(h[0]) <= 4)
        ),
        # one robustness argument at a time, the others at their defaults
        st.one_of(
            st.sampled_from(["1e-1,1e-2,1e-3", "1e-1,x", ",", "", "nan,1e-2,1e-3", "1,2,3", "1e-1,1e-2"]).map(
                lambda dts: ["--dts", dts]
            ),
            st.integers(-3, 3).map(lambda seed: ["--seed", str(seed)]),
            st.integers(-2, 6).map(lambda weight: ["--weight", str(weight)]),
            real.map(lambda tau: ["--tau", tau]),
        ).map(lambda option: ["robustness", "--christandl", "4", *option]),
        real.map(lambda t: ["evolve", "--christandl", "3", "--basis", "100", "--t", t]),
        st.tuples(st.sampled_from(["z", "w", "cat"]), st.integers(-1, 5), real).map(
            lambda g: ["gate", "--christandl", "3", "--run", "--kind", g[0], "--x", str(g[1]), "--phase", g[2]]
        ),
    )


def _transcript(argv):
    """Exit code, stdout and stderr of one in-process run; any other exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.one_of(malformed_file(), probe_argv().map(lambda argv: (argv, None))))
def test_boundary_fails_with_one_error_line(case):
    argv, content = case
    with tempfile.TemporaryDirectory() as tmp:
        program = Path(tmp) / "program.json"
        program.write_text(json.dumps(VALID["program"]))
        argv = [a.format(program=program) for a in argv]
        if content is not None:
            path = Path(tmp) / "input.json"
            path.write_bytes(content)
            argv = [*argv, str(path)]
        code, out, err = _transcript(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("to_file", [False, True])
def test_concat_refuses_a_level_past_the_digit_limit(tmp_path, to_file):
    # at a limit of 640 digits, the lowest Python allows, 6 * 7^756 has 640 digits and 6 * 7^757 has 641
    csv = tmp_path / "concat.csv"
    argv = ["cost", "--concat", *(["--out", str(csv)] if to_file else []), "--levels"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        refused = _transcript([*argv, "757"])
        assert not csv.exists()
        code, out, err = _transcript([*argv, "756"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused == (1, "", "error: --levels 757 needs over 640 digits; the largest level that renders is 756\n")
    assert code == 0 and err == ""
    lines = (csv.read_text() if to_file else out).splitlines()
    assert len(lines) == 758 and lines[-1].startswith("756,")


ONE_SITE = '{"n_sites": 1, "omegas": [], "lambdas": [0.0]}'
EVOLVE_STATE = ["evolve", "--christandl", "2", "--t", "1.0", "--state"]


def state_with(first):
    """A two-site state file whose first amplitude is `first` and the others [0, 0]."""
    return json.dumps({"layout": {"core_sites": 2}, "amplitudes": [first, [0, 0], [0, 0], [0, 0]]})


@pytest.mark.parametrize(
    "argv, content, code, named",
    [
        (["verify", "--profile"], '{"n_sites": 3, "lambdas": [1, 1, 1]}', 1, "missing key 'omegas'"),
        (
            ["cost", "--program"],
            '{"layout": {"core_sites": 2, "ancilla_count": 1},'
            ' "instructions": [{"op": "swap", "core_site": 1}]}',
            1,
            "missing key 'partner'",
        ),
        (
            ["verify", "--profile"],
            '{"n_sites": 2.5, "omegas": [1], "lambdas": [0, 0]}',
            1,
            "n_sites must be an integer, got 2.5",
        ),
        (["verify", "--profile"], ONE_SITE, 1, "need at least 2 sites"),
        (["evolve", "--basis", "1", "--t", "1.0", "--profile"], ONE_SITE, 1, "need at least 2 sites"),
        (["verify", "--profile"], "[1, 2]", 1, "expected a JSON object, got list"),
        (["evolve", "--christandl", "2", "--t", "1.0", "--basis", "10x"], None, 1, "need 2 bits in {0,1}"),
        (["cost", "--program", "{program}", "--tau", "inf"], None, 1, "tau must be positive and finite"),
        (["cost", "--program", "{program}", "--tau", "0"], None, 1, "tau must be positive and finite"),
        (["cost", "--qft", "--n-range", "2..3", "--tau", "inf"], None, 2, "--tau applies to cost --program only"),
        (["cost", "--concat", "--tau", "1.0"], None, 2, "--tau applies to cost --program only"),
        (["cost", "--qft", "--n-range", "5..2"], None, 2, "1 <= A <= B"),
        (["cost", "--qft", "--n-range", "0..3"], None, 2, "1 <= A <= B"),
        (["cost", "--qft", "--n-range", "5"], None, 2, "expected A..B"),
        (["cost", "--qft"], None, 2, "needs --n-range"),
        (["cost", "--concat", "--levels", "-1"], None, 2, "--levels must be nonnegative, got -1"),
        (["design", "--christandl", "100000"], None, 1, "100000 sites exceeds the chain cap of 1024"),
        (["verify", "--christandl", "1025"], None, 1, "1025 sites exceeds the chain cap of 1024"),
        (
            ["design", "--spectrum"],
            json.dumps({"energies": list(range(MAX_CHAIN_SITES + 1))}),
            1,
            "1025 sites exceeds the chain cap of 1024",
        ),
        (
            ["verify", "--profile"],
            json.dumps({"n_sites": 2000, "omegas": [1.0] * 1999, "lambdas": [0.0] * 2000}),
            1,
            "2000 sites exceeds the chain cap of 1024",
        ),
        (EVOLVE_STATE, state_with([1, 0, 0]), 1, "malformed state: expected [re, im] pairs"),
        (EVOLVE_STATE, state_with([1]), 1, "malformed state: expected [re, im] pairs"),
        (EVOLVE_STATE, state_with(["1", 0]), 1, "malformed state: expected numeric [re, im] pairs"),
        (
            ["cost", "--program"],
            json.dumps(
                {
                    "layout": {"core_sites": 2},
                    "instructions": [{"op": "local", "qubit": 0, "matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]}],
                }
            ),
            1,
            "malformed instruction: expected [re, im] pairs",
        ),
        (["robustness", "--christandl", "4", "--dts", "1e-1,x"], None, 1, "--dts must be comma-separated numbers"),
        (["robustness", "--christandl", "4", "--seed", "-1"], None, 1, "--seed must be nonnegative, got -1"),
        (["gate", "--christandl", "4", "--kind", "cat", "--x", "9"], None, 1, "control site 9 outside 1..4"),
        (["gate", "--christandl", "3", "--kind", "z", "--x", "9"], None, 1, "control site 9 outside 1..3"),
        (["gate", "--christandl", "3", "--kind", "w", "--x", "9"], None, 1, "control site 9 outside 1..3"),
        (
            ["cost", "--tau", "1e308", "--program"],
            json.dumps(serialize.program_to_dict(GateProgram((FreeEvolve(math.pi),) * 2, Layout(2)))),
            1,
            "core time tau * free evolutions must be finite, got 1e+308 * 2",
        ),
        (
            ["design", "--spectrum"],
            '{"energies": [0, 1e300, 1.5e308]}',
            1,
            "spectrum 0 .. 1.5e+308 overflows the inverse-design recurrence",
        ),
        (
            ["design", "--spectrum"],
            '{"energies": [-1e200, 0, 1e200]}',
            1,
            "spectrum -1e+200 .. 1e+200 overflows the inverse-design recurrence",
        ),
        (["verify"], None, 2, "need exactly one of --christandl or --profile"),
        (["verify", "--christandl", "3", "--profile"], ONE_SITE, 2, "need exactly one of --christandl or --profile"),
        (["hamsim", "--mask", "zzzzzzz", "--dt", "0.1", "--check"], None, 1, "--check capped at 6 data sites, got 7"),
    ],
)
def test_boundary_names_the_problem(tmp_path, argv, content, code, named):
    program = tmp_path / "program.json"
    program.write_text(json.dumps(VALID["program"]))
    argv = [a.format(program=program) for a in argv]
    if content is not None:
        (tmp_path / "input.json").write_text(content)
        argv.append(str(tmp_path / "input.json"))
    actual, out, err = _transcript(argv)
    assert actual == code
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert named in err
