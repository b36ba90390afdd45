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
    InvalidLayoutError,
    Layout,
    Local,
    StateVector,
    Swap,
    christandl_profile,
    controlled_z_program,
    evolve,
    execute,
    phase_gate,
    program_unitary,
    qft_program,
    random_state,
    zero_phase_profile,
)
from corechain import dynamics, gates
from corechain.serialize import profile_from_dict

import oracles

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
RECON5 = profile_from_dict(json.loads((INPUTS / "recon5.json").read_text()))
RECON6 = profile_from_dict(json.loads((INPUTS / "recon6.json").read_text()))
OFF_PERIOD = 1.3


def negated(profile):
    return CouplingProfile(profile.n_sites, tuple(-w for w in profile.omegas), profile.lambdas)


def kernels(program, profile, one_column=True):
    return [step.func.__name__ for step in gates._plan(program, profile, one_column, frozenset())]


# a closed-form mirror is a phase multiply and a relabel, so a lone one ends on the transpose
MIRROR = ["phase", "order"]
NETWORK = ["evolve"]


@pytest.mark.parametrize(
    "profile, duration, kernel",
    [
        pytest.param(zero_phase_profile(4), math.pi, MIRROR, id="zero_phase4-pi"),
        pytest.param(christandl_profile(4), math.pi, MIRROR, id="christandl4-pi"),
        pytest.param(RECON5, math.pi, MIRROR, id="recon5-pi"),
        pytest.param(zero_phase_profile(4), OFF_PERIOD, NETWORK, id="zero_phase4-off"),
        pytest.param(zero_phase_profile(4), 2 * math.pi, NETWORK, id="zero_phase4-2pi"),
        pytest.param(zero_phase_profile(4), -math.pi, NETWORK, id="zero_phase4-minus_pi"),
        pytest.param(negated(zero_phase_profile(4)), math.pi, NETWORK, id="negated4-pi"),
        pytest.param(negated(zero_phase_profile(6)), math.pi, NETWORK, id="negated6-pi"),
        pytest.param(negated(christandl_profile(5)), math.pi, NETWORK, id="negated5-pi"),
    ],
)
def test_free_evolve_matches_evolve(profile, duration, kernel):
    layout = Layout(profile.n_sites, ancilla_count=1)
    program = GateProgram((FreeEvolve(duration),), layout)
    assert kernels(program, profile) == kernels(program, profile, one_column=False) == kernel
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
    profile = zero_phase_profile(3)
    # the swap only relabels, but still ends a run; the mirror's reversal moves qubit 2 to axis 0
    assert kernels(program, profile, one_column=False) == [
        "local_run", "phase", "local_run", "local_run", "order",
    ]
    wide = gates._plan(program, profile, False, frozenset())
    runs = [[axis for axis, _ in step.keywords["run"]] for step in wide if "run" in step.keywords]
    assert runs == [[0, 1], [0], [0]]  # one step per run, one 2x2 per qubit in first-seen order
    assert kernels(program, profile) == [
        "rotating_local_run", "phase", "rotating_local_run", "rotating_local_run", "order",
    ]
    one_column = gates._plan(program, profile, True, frozenset())
    passes = [[axis for axis, _ in step.keywords["passes"]] for step in one_column if "passes" in step.keywords]
    # ascending axes: each run rotates the axes left by its last axis + 1, so qubit 2
    # sits on axis 2 after the first run and the mirror, and on axis 3 after its own run
    assert passes == [[0, 1], [2], [3]]
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
        choice = draw(st.sampled_from(["local", "local", "run", "swap", "evolve", "reversal", "relabelled"]))
        if choice == "local":
            ops.append(Local(draw(st.integers(0, total - 1)), draw(unitaries())))
        elif choice == "run":  # Locals on consecutive qubits, often through the last one
            first = draw(st.integers(0, total - 1))
            last = draw(st.sampled_from([total - 1, draw(st.integers(first, total - 1))]))
            ops += [Local(q, draw(unitaries())) for q in range(first, last + 1)]
        elif choice == "swap":  # to a store slot half the time, when there is one
            site = draw(st.integers(1, n))
            partners = [p for p in range(total) if p != site - 1]
            if store and draw(st.booleans()):
                partners = [layout.store_position(k) for k in range(store)]
            ops.append(Swap(site, draw(st.sampled_from(partners))))
        elif choice == "reversal":  # the QFT's bit-reversal finisher, through a spare qubit if any
            for site in range(1, n // 2 + 1):
                mirror = layout.mirror_site(site)
                if total > n:
                    ops += [Swap(site, total - 1), Swap(mirror, total - 1), Swap(site, total - 1)]
                else:
                    ops.append(Swap(site, mirror - 1))
        elif choice == "relabelled":  # the Givens network between relabelling steps
            site = draw(st.integers(1, n))
            partners = [p for p in range(total) if p != site - 1]
            ops += [FreeEvolve(math.pi), Swap(site, draw(st.sampled_from(partners))), FreeEvolve(OFF_PERIOD)]
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

    # three columns take the in-place passes, like program_unitary, but on a narrow batch
    batch = np.random.default_rng(seed).standard_normal((program.layout.dim, 3)).astype(complex)
    assert np.max(np.abs(gates._run(program, profile, batch.copy(), frozenset()) - reference @ batch)) <= 1e-9

    columns = [
        execute(program, profile, StateVector(program.layout, column)).amplitudes
        for column in np.eye(program.layout.dim, dtype=complex)
    ]
    assert np.max(np.abs(full - np.column_stack(columns))) <= 1e-12


def test_lowering_a_network_duration_looks_the_eigensystem_up_once():
    profile = CouplingProfile(4, (0.3, 0.7, 0.3), (0.1, 0.2, 0.2, 0.1))  # a chain no other test builds
    program = GateProgram((FreeEvolve(OFF_PERIOD), Local(0, oracles.H), FreeEvolve(OFF_PERIOD)), Layout(4, 1))
    before = dynamics._block_eigensystems.cache_info()
    assert kernels(program, profile).count("evolve") == 2
    after = dynamics._block_eigensystems.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)


def test_fresh_programs_on_one_chain_certify_it_once(monkeypatch):
    gates._plan.cache_clear()
    gates._mirror_table.cache_clear()
    calls, certify = [], gates.mirror_certificate
    monkeypatch.setattr(gates, "mirror_certificate", lambda *key: calls.append(key) or certify(*key))
    profile = zero_phase_profile(5)
    for program in (qft_program(5), controlled_z_program(2, Layout(5, 1)), qft_program(5)):
        for one_column in (True, False):
            assert "phase" in kernels(program, profile, one_column)
    assert calls == [(profile, math.pi)]


def test_a_mismatched_profile_is_refused_on_every_lowering():
    program = qft_program(4)
    for _ in range(2):
        with pytest.raises(InvalidLayoutError, match="profile does not match the program layout"):
            kernels(program, zero_phase_profile(5))


def test_the_kept_phase_table_is_read_only():
    phases, eigensystem = gates._mirror_table(zero_phase_profile(4), math.pi, 4)
    assert eigensystem is None and not phases.flags.writeable
    assert gates._mirror_table(zero_phase_profile(4), math.pi, 4)[0] is phases


@pytest.mark.parametrize("name", CHAINS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_qubits_in_zero_leave_the_result_bit_for_bit(name, data, seed):
    profile = CHAINS[name]
    program = data.draw(programs(profile.n_sites))
    total = program.layout.total_qubits
    zeros = data.draw(st.sets(st.integers(0, total - 1), max_size=total))
    amps = random_state(program.layout, seed=seed).amplitudes.reshape([2] * total).copy()
    for q in zeros:
        amps[(slice(None),) * q + (1,)] = 0
    state = StateVector(program.layout, amps.reshape(-1) / np.linalg.norm(amps))
    out = execute(program, profile, state).amplitudes
    assert np.max(np.abs(out - dense_program(program, profile) @ state.amplitudes)) <= 1e-9
    # the same plan arithmetic as with every qubit present, up to the sign of an exact zero
    assert np.array_equal(out, gates._run(program, profile, state.amplitudes[:, None].copy(), frozenset())[:, 0])


def test_qft12_with_the_ancilla_in_zero_runs_on_half_the_amplitudes(monkeypatch):
    program, profile = qft_program(12), zero_phase_profile(12)
    amps = np.zeros(program.layout.dim, dtype=complex)
    amps[::2] = random_state(Layout(12), seed=5).amplitudes  # the ancilla, last, in |0>
    state = StateVector(program.layout, amps)
    rows, plan = [], gates._plan

    def recorded(step):
        def run(arr):
            rows.append((step.func.__name__, arr.shape[0]))
            return step(arr)
        return run

    monkeypatch.setattr(gates, "_plan", lambda *key: tuple(map(recorded, plan(*key))))
    out = execute(program, profile, state).amplitudes
    assert rows[-1] == ("order", 1 << 12)  # the end of the plan, back to 2^13 rows
    assert sorted(set(rows[:-1])) == [("phase", 1 << 12), ("rotating_local_run", 1 << 12)]
    assert len(rows) == 68
    assert np.array_equal(out, gates._run(program, profile, amps[:, None].copy(), frozenset())[:, 0])


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
    assert kernels(program, RECON6).count("evolve") == 3
    reference = dense_program(program, RECON6)
    assert np.max(np.abs(program_unitary(program, RECON6) - reference)) <= 1e-12
