"""Lowered programs: kernel choice per FreeEvolve, Local fusion, and random programs vs dense oracles."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corechain import (
    CouplingProfile,
    FreeEvolve,
    GateProgram,
    Layout,
    Local,
    StateVector,
    Swap,
    christandl_profile,
    evolve,
    execute,
    phase_gate,
    program_unitary,
    random_state,
    zero_phase_profile,
)
from corechain import gates
from corechain.serialize import profile_from_dict

import oracles

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
RECON5 = profile_from_dict(json.loads((INPUTS / "recon5.json").read_text()))
RECON6 = profile_from_dict(json.loads((INPUTS / "recon6.json").read_text()))
OFF_PERIOD = 1.3


def negated(profile):
    return CouplingProfile(profile.n_sites, tuple(-w for w in profile.omegas), profile.lambdas)


def kernels(program, profile):
    return [step.func.__name__ for step in gates._plan(program, profile)]


@pytest.mark.parametrize(
    "profile, duration, kernel",
    [
        pytest.param(zero_phase_profile(4), math.pi, "_mirror_raw", id="zero_phase4-pi"),
        pytest.param(christandl_profile(4), math.pi, "_mirror_raw", id="christandl4-pi"),
        pytest.param(RECON5, math.pi, "_mirror_raw", id="recon5-pi"),
        pytest.param(zero_phase_profile(4), OFF_PERIOD, "_evolve_raw", id="zero_phase4-off"),
        pytest.param(zero_phase_profile(4), 2 * math.pi, "_evolve_raw", id="zero_phase4-2pi"),
        pytest.param(zero_phase_profile(4), -math.pi, "_evolve_raw", id="zero_phase4-minus_pi"),
        pytest.param(negated(zero_phase_profile(4)), math.pi, "_evolve_raw", id="negated4-pi"),
        pytest.param(negated(zero_phase_profile(6)), math.pi, "_evolve_raw", id="negated6-pi"),
        pytest.param(negated(christandl_profile(5)), math.pi, "_evolve_raw", id="negated5-pi"),
    ],
)
def test_free_evolve_matches_evolve(profile, duration, kernel):
    layout = Layout(profile.n_sites, ancilla_count=1)
    program = GateProgram((FreeEvolve(duration),), layout)
    assert kernels(program, profile) == [kernel]
    state = random_state(layout, seed=7)
    np.testing.assert_allclose(
        execute(program, profile, state).amplitudes,
        evolve(profile, state, duration).amplitudes,
        atol=1e-12,
    )


def test_locals_fuse_per_qubit_between_other_instructions():
    layout = Layout(3, ancilla_count=1)
    h = oracles.H
    program = GateProgram(
        (
            Local(0, h),
            Local(1, phase_gate(0.3)),
            Local(0, phase_gate(0.5)),
            Local(1, h),
            FreeEvolve(math.pi),
            Local(2, h),
            Swap(1, 3),
            Local(2, h),
            Local(2, phase_gate(0.2)),
        ),
        layout,
    )
    assert kernels(program, zero_phase_profile(3)) == [
        "_local_raw", "_local_raw", "_mirror_raw", "_local_raw", "_swap_raw", "_local_raw",
    ]
    assert program.local_count == 7  # fusion lives in the plan only


# ---------------------------------------------------------------------------
# random programs against the Kronecker / expm references

CHAINS = {"recon5": RECON5}
for n in range(2, 6):
    CHAINS[f"zero_phase{n}"] = zero_phase_profile(n)
    CHAINS[f"christandl{n}"] = christandl_profile(n)
    CHAINS[f"negated{n}"] = negated(zero_phase_profile(n))

angles = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def unitaries(draw):
    a, b, c, d = (draw(angles) for _ in range(4))
    if draw(st.booleans()):
        return np.diag([np.exp(1j * a), np.exp(1j * b)])
    ry = np.array([[math.cos(c / 2), -math.sin(c / 2)], [math.sin(c / 2), math.cos(c / 2)]])
    return np.exp(1j * d) * np.diag(np.exp([-0.5j * a, 0.5j * a])) @ ry @ np.diag(np.exp([-0.5j * b, 0.5j * b]))


@st.composite
def programs(draw, n):
    ancilla = draw(st.integers(0, 1))
    store = draw(st.integers(0, min(2, 7 - n - ancilla)))
    layout = Layout(n, ancilla, store)
    total = layout.total_qubits
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        choice = draw(st.sampled_from(["local", "local", "swap", "evolve"]))
        if choice == "local":
            ops.append(Local(draw(st.integers(0, total - 1)), draw(unitaries())))
        elif choice == "swap":
            site = draw(st.integers(1, n))
            partners = [p for p in range(total) if p != site - 1]
            ops.append(Swap(site, draw(st.sampled_from(partners))))
        else:
            ops.append(FreeEvolve(draw(st.sampled_from([math.pi, math.pi, OFF_PERIOD]))))
    return GateProgram(tuple(ops), layout)


def dense_program(program, profile):
    layout = program.layout
    total = layout.total_qubits
    rest = np.eye(layout.dim >> layout.core_sites)
    u = np.eye(layout.dim, dtype=complex)
    for op in program.instructions:
        if isinstance(op, FreeEvolve):
            step = np.kron(oracles.dense_propagator(profile, op.duration), rest)
        elif isinstance(op, Swap):
            step = oracles.swap_matrix(layout.core_position(op.core_site), op.partner, total)
        else:
            step = oracles.op_at(op.matrix, op.qubit + 1, total)
        u = step @ u
    return u


@pytest.mark.parametrize("name", CHAINS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_programs_match_dense_oracle(name, data, seed):
    profile = CHAINS[name]
    program = data.draw(programs(profile.n_sites))
    reference = dense_program(program, profile)
    full = program_unitary(program, profile)
    assert np.max(np.abs(full - reference)) <= 1e-9

    state = random_state(program.layout, seed=seed)
    out = execute(program, profile, state).amplitudes
    assert np.max(np.abs(out - reference @ state.amplitudes)) <= 1e-9

    columns = [
        execute(program, profile, StateVector(program.layout, column)).amplitudes
        for column in np.eye(program.layout.dim, dtype=complex)
    ]
    assert np.max(np.abs(full - np.column_stack(columns))) <= 1e-12


def test_off_period_program_unitary_on_eight_qubits():
    layout = Layout(6, ancilla_count=1, store_sites=1)
    program = GateProgram(
        (
            Local(0, oracles.H),
            Local(6, oracles.H),
            Local(3, phase_gate(0.4)),
            FreeEvolve(OFF_PERIOD),
            Swap(2, 7),
            Local(1, oracles.H),
            FreeEvolve(0.77),
            Swap(6, 6),
            FreeEvolve(math.pi + 0.1),
        ),
        layout,
    )
    assert kernels(program, RECON6).count("_evolve_raw") == 3
    reference = dense_program(program, RECON6)
    assert np.max(np.abs(program_unitary(program, RECON6) - reference)) <= 1e-12
