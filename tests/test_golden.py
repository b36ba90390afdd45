"""Golden-file CLI tests: exit code, stdout, stderr and every written file, byte for byte.

Each case runs `corechain` with its outputs in a fresh directory and compares
the transcript with `tests/golden/<case>.json`.  Inputs live in
`tests/golden/inputs/`; the reconstructed chains there have non-uniform
fields, so a change in the order the Hamiltonian diagonal is summed shows
up in the 17-digit artifacts.  After an intended change of output,
regenerate every transcript with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from corechain.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
PI = "3.141592653589793"

CASES = {
    "design_christandl5": ["design", "--christandl", "5"],
    "design_christandl6_out": ["design", "--christandl", "6", "--out", "{out}/profile.json"],
    "design_spectrum5": ["design", "--spectrum", "{in}/spectrum5.json"],
    "design_spectrum6_out": [
        "design", "--spectrum", "{in}/spectrum6.json", "--tau", PI, "--out", "{out}/profile.json",
    ],
    "design_usage": ["design"],
    "verify_christandl4_out": ["verify", "--christandl", "4", "--out", "{out}/cert.json"],
    "verify_christandl4_tau1_out": [
        "verify", "--christandl", "4", "--tau", "1.0", "--out", "{out}/cert.json",
    ],
    "verify_recon5_out": ["verify", "--profile", "{in}/recon5.json", "--out", "{out}/cert.json"],
    "verify_recon6_out": ["verify", "--profile", "{in}/recon6.json", "--out", "{out}/cert.json"],
    "evolve_recon5": ["evolve", "--profile", "{in}/recon5.json", "--basis", "10110", "--t", "1.234"],
    "evolve_recon6_out": [
        "evolve", "--profile", "{in}/recon6.json", "--basis", "110010",
        "--t", PI, "--out", "{out}/state.json",
    ],
    "evolve_christandl3_out": [
        "evolve", "--christandl", "3", "--basis", "100", "--t", PI, "--out", "{out}/state.json",
    ],
    "gate_z_christandl4_run_out": [
        "gate", "--christandl", "4", "--kind", "z", "--x", "2",
        "--input", "11010", "--run", "--out", "{out}/z.json",
    ],
    "gate_z_recon5_run_out": [
        "gate", "--profile", "{in}/recon5.json", "--kind", "z", "--x", "3",
        "--input", "101100", "--run", "--out", "{out}/z.json",
    ],
    "gate_w_christandl4_run_out": [
        "gate", "--christandl", "4", "--kind", "w", "--x", "1",
        "--phase", "0.785398163397448", "--input", "10110", "--run", "--out", "{out}/w.json",
    ],
    "gate_w_recon5_run_out": [
        "gate", "--profile", "{in}/recon5.json", "--kind", "w", "--x", "2",
        "--phase", "1.1", "--input", "110100", "--run", "--out", "{out}/w.json",
    ],
    "gate_cat_christandl4_x3": ["gate", "--christandl", "4", "--kind", "cat", "--x", "3"],
    **{
        f"qft_n{n}{'_br' if br else ''}_check_out": [
            "qft", "--n", str(n), "--check", *(["--bit-reversal"] if br else []),
            "--out", "{out}/qft.json",
        ]
        for n in range(1, 9)
        for br in (False, True)
    },
    "qft_n11_check": ["qft", "--n", "11", "--check"],
    "hamsim_ancilla_check_out": [
        "hamsim", "--mask", "zxiy", "--dt", "0.3", "--check", "--out", "{out}/hamsim.json",
    ],
    "hamsim_direct_check_out": [
        "hamsim", "--mask", "xyz", "--dt", "0.7", "--variant", "direct",
        "--check", "--out", "{out}/hamsim.json",
    ],
    "cost_program_w4": ["cost", "--program", "{in}/program_w4.json"],
    "cost_program_qft3_out": [
        "cost", "--program", "{in}/program_qft3.json", "--tau", "2.5", "--out", "{out}/cost.json",
    ],
    "cost_qft": ["cost", "--qft", "--n-range", "1..12"],
    "cost_qft_out": ["cost", "--qft", "--n-range", "2..12", "--out", "{out}/qft_cost.csv"],
    "cost_concat": ["cost", "--concat", "--levels", "3"],
    "cost_concat_out": ["cost", "--concat", "--levels", "4", "--out", "{out}/concat.csv"],
    "cost_usage": ["cost"],
    "robustness_christandl4_out_csv": [
        "robustness", "--n", "4", "--out", "{out}/rob.json", "--csv", "{out}/rob.csv",
    ],
    "robustness_recon5_out_csv": [
        "robustness", "--profile", "{in}/recon5.json", "--seed", "2",
        "--dts", "1e-1,3e-2,1e-2,1e-3", "--out", "{out}/rob.json", "--csv", "{out}/rob.csv",
    ],
    "robustness_recon6_weight3_out_csv": [
        "robustness", "--profile", "{in}/recon6.json", "--weight", "3", "--seed", "5",
        "--out", "{out}/rob.json", "--csv", "{out}/rob.csv",
    ],
}


def transcript(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the written files of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [a.format(out=tmp, **{"in": INPUTS}) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        files = {
            path.name: path.read_bytes().decode("utf-8") for path in sorted(Path(tmp).iterdir())
        }
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    actual = transcript(CASES[case])
    assert actual["exit_code"] == expected["exit_code"]
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]
    assert sorted(actual["files"]) == sorted(expected["files"])
    for name, text in expected["files"].items():
        assert actual["files"][name] == text, name


def regenerate() -> None:
    for case, argv in sorted(CASES.items()):
        text = json.dumps(transcript(argv), indent=1, sort_keys=True)
        (GOLDEN / f"{case}.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
