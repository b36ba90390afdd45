"""Gate composites: controlled-Z bursts, reflections, general targets, cat states."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corechain import (
    FreeEvolve,
    GateProgram,
    HADAMARD,
    InsufficientDataError,
    InvalidCertificateError,
    InvalidInstructionError,
    InvalidLayoutError,
    InvalidProfileError,
    InvalidStateError,
    Layout,
    Local,
    NonFiniteTimeError,
    NonUnitaryError,
    PAULI_X,
    PauliString,
    PAULI_Z,
    ReconstructionInfeasibleError,
    Spectrum,
    StateVector,
    Swap,
    TargetSpec,
    TrotterPlan,
    UnsupportedConfigurationError,
    abc_decompose,
    ancilla_pauli_program,
    apply_local,
    cat_state_program,
    christandl_profile,
    controlled_reflection_program,
    controlled_unitary_program,
    controlled_z_program,
    direct_pauli_program,
    evolution_overlaps,
    evolve,
    execute,
    fidelity_up_to_global_phase,
    mirror_certificate,
    mirror_map,
    phase_correction,
    phase_gate,
    program_unitary,
    qft_core_census,
    qft_program,
    random_state,
    reconstruct_profile,
    reflection_conjugator,
    robustness_fit,
    steane_concat_cost,
    swap_qubits,
    zero_phase_profile,
)

from corechain import gates

import oracles

ZZ = PauliString.from_string("zz")
STATE4 = StateVector.basis(Layout(4), "1000")


def run_z(profile, n, x, bits, phi_n=0.0):
    layout = Layout(n, ancilla_count=1)
    program = controlled_z_program(x, layout)
    if phi_n:
        program = GateProgram(
            program.instructions + phase_correction(phi_n, x, layout), layout
        )
    return execute(program, profile, StateVector.basis(layout, bits))


class TestProgramValidation:
    @pytest.mark.parametrize(
        "bad", [Swap(1, 9), Swap(1, 0), Swap(0, 3), Swap(5, 4), Local(5, PAULI_Z), Local(-1, PAULI_Z)]
    )
    def test_bad_index_names_instruction(self, bad):
        layout = Layout(4, ancilla_count=1)
        with pytest.raises(InvalidInstructionError, match="instruction 1"):
            GateProgram((FreeEvolve(math.pi), bad), layout)
        assert issubclass(InvalidInstructionError, ValueError)

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: GateProgram((Local(1.5, HADAMARD),), Layout(2, 1)), InvalidInstructionError),
            (lambda: GateProgram((Local(1.0, HADAMARD),), Layout(2, 1)), InvalidInstructionError),
            (lambda: GateProgram((Swap(1.0, 2),), Layout(2, 1)), InvalidInstructionError),
            (lambda: GateProgram((Swap(1, 2.0),), Layout(2, 1)), InvalidInstructionError),
            (lambda: Layout(2.5), InvalidLayoutError),
            (lambda: Layout(2, ancilla_count=1.0), InvalidLayoutError),
            (lambda: Layout(2, store_sites="1"), InvalidLayoutError),
            (lambda: apply_local(StateVector.zero(Layout(2)), 0.0, np.eye(2)), InvalidInstructionError),
            (lambda: swap_qubits(StateVector.zero(Layout(2)), 0.0, 1), InvalidInstructionError),
            (lambda: swap_qubits(StateVector.zero(Layout(2)), 0, 1.0), InvalidInstructionError),
        ],
        ids=[
            "local-1.5", "local-1.0", "swap-site-1.0", "swap-partner-2.0", "layout-2.5", "ancillas-1.0",
            "stores-str", "apply-local-0.0", "swap-qubits-0.0", "swap-qubits-1.0",
        ],
    )
    def test_non_integer_position_or_count_is_named(self, build, error):
        with pytest.raises(error):
            build()

    def test_numpy_integers_stay_accepted(self):
        layout = Layout(np.int64(2), np.int32(1))
        program = GateProgram((Local(np.int64(0), HADAMARD), Swap(np.int64(1), np.int8(2))), layout)
        state = execute(program, zero_phase_profile(2), StateVector.zero(Layout(2, 1)))
        assert abs(state.amplitudes[0b001] - 1 / math.sqrt(2)) <= 1e-15
        moved = swap_qubits(apply_local(StateVector.zero(Layout(2)), np.int64(0), PAULI_X), np.int64(0), 1)
        assert moved.amplitudes[0b01] == 1
        wide = Layout(3, 1, 2)
        assert (wide.core_position(np.int64(2)), wide.ancilla_position(np.int32(0)), wide.store_position(np.int8(1))) == (1, 3, 5)
        assert list(TargetSpec(np.int64(1), {np.int64(2): PAULI_X}).targets) == [2]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Layout(3, 1).core_position(1.5),
            lambda: Layout(3, 1).core_position(2.0),
            lambda: Layout(3, 1).ancilla_position(0.0),
            lambda: Layout(3, 0, 2).store_position(1.0),
            lambda: TargetSpec(1, {2.5: PAULI_X}),
            lambda: TargetSpec(1, {3: PAULI_X, 2.0: PAULI_Z}),
            lambda: controlled_z_program(1.5, Layout(3, 1)),
        ],
        ids=["core-1.5", "core-2.0", "ancilla-0.0", "store-1.0", "target-2.5", "target-2.0", "control-1.5"],
    )
    def test_non_integer_site_or_slot_is_refused(self, build):
        with pytest.raises(InvalidInstructionError):
            build()

    @pytest.mark.parametrize("matrix", [[["a", 1], [1, 0]], [[1, 0], [0]], [[1, {}], [0, 1]], [[10**400, 0], [0, 1]]])
    def test_unreadable_matrix_is_named(self, matrix):
        with pytest.raises(NonUnitaryError, match="expected a 2x2 complex matrix"):
            Local(0, matrix)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_nonfinite_duration(self, duration):
        with pytest.raises(NonFiniteTimeError):
            FreeEvolve(duration)

    def test_nonunitary_local_and_target_are_named(self):
        with pytest.raises(NonUnitaryError):
            Local(0, np.diag([1.0, 2.0]))
        with pytest.raises(NonUnitaryError):
            TargetSpec(1, {2: np.ones((3, 3))})

    def test_instructions_keep_a_read_only_copy(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        local, spec = Local(0, m), TargetSpec(1, {2: m})
        apply_local(StateVector.zero(Layout(1)), 0, m)
        qft_program(4)
        assert m.flags.writeable and HADAMARD.flags.writeable
        for kept in (local.matrix, spec.targets[2]):
            assert kept is not m and not kept.flags.writeable
        m[...] = np.eye(2)
        assert local.matrix[0, 0] == 0 and spec.targets[2][0, 0] == 0

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: StateVector.basis(Layout(2), "10x"), InvalidStateError, "need 2 bits in {0,1}"),
            (lambda: Layout(0), InvalidLayoutError, "layout counts must be nonnegative"),
            (lambda: Layout(2, ancilla_count=-1), InvalidLayoutError, "layout counts must be nonnegative"),
            (lambda: Layout(2).core_position(3), InvalidInstructionError, "site 3 outside 1..2"),
            (lambda: Layout(2, 1).ancilla_position(1), InvalidInstructionError, "ancilla 1 outside 0..0"),
            (lambda: Layout(2).store_position(0), InvalidInstructionError, "store slot 0 outside 0..-1"),
            (
                lambda: controlled_z_program(4, Layout(3, 1)),
                InvalidInstructionError,
                "control site 4 outside 1..3",
            ),
            (
                lambda: controlled_z_program(1, Layout(3)),
                UnsupportedConfigurationError,
                "the controlled-Z composite needs an ancilla in the store",
            ),
            (
                lambda: qft_program(3, Layout(3)),
                UnsupportedConfigurationError,
                "the QFT program needs an ancilla",
            ),
            (
                lambda: controlled_unitary_program(TargetSpec(1, {1: PAULI_X}), Layout(2, 1)),
                InvalidInstructionError,
                "the control site carries no target",
            ),
            (
                lambda: controlled_reflection_program(1, {1: (0.0, 0.0)}, Layout(2, 1)),
                InvalidInstructionError,
                "the control site carries no target",
            ),
            (lambda: apply_local(StateVector.zero(Layout(2)), 2, PAULI_X), InvalidInstructionError, "qubit 2 outside 0..1"),
            (lambda: swap_qubits(StateVector.zero(Layout(2)), 1, 1), InvalidInstructionError, "two distinct qubits"),
            (lambda: swap_qubits(StateVector.zero(Layout(2)), 0, 2), InvalidInstructionError, "qubits 0, 2 outside 0..1"),
            (
                lambda: execute(GateProgram((), Layout(2)), zero_phase_profile(2), StateVector.zero(Layout(3))),
                InvalidLayoutError,
                "state layout does not match the program layout",
            ),
            (
                lambda: program_unitary(GateProgram((FreeEvolve(math.pi),), Layout(2)), zero_phase_profile(3)),
                InvalidLayoutError,
                "profile does not match the program layout",
            ),
            (
                lambda: evolve(zero_phase_profile(3), StateVector.zero(Layout(2)), 1.0),
                InvalidLayoutError,
                "profile has 3 sites but layout has 2",
            ),
            (
                lambda: evolution_overlaps(
                    zero_phase_profile(2), StateVector.zero(Layout(2)), StateVector.zero(Layout(2, 1)), [1.0]
                ),
                InvalidLayoutError,
                "states live on different layouts",
            ),
            (
                lambda: fidelity_up_to_global_phase(StateVector.zero(Layout(2)), StateVector.zero(Layout(3))),
                InvalidLayoutError,
                "states live on different layouts",
            ),
            (lambda: random_state(Layout(2), core_weight=3), InvalidStateError, "no core states of weight 3"),
            (lambda: cat_state_program(1), UnsupportedConfigurationError, "need at least 2 sites, got 1"),
            (lambda: PauliString(("z", "q")), InvalidInstructionError, "axes must be drawn from"),
            (lambda: PauliString.from_string("ii"), InvalidInstructionError, "needs at least one involved site"),
            (lambda: ancilla_pauli_program(ZZ, math.inf), NonFiniteTimeError, "dt must be finite, got inf"),
            (lambda: direct_pauli_program(ZZ, math.nan), NonFiniteTimeError, "dt must be finite, got nan"),
            (lambda: TrotterPlan((), 0.1, 1), UnsupportedConfigurationError, "a plan needs at least one term"),
            (
                lambda: TrotterPlan(((ZZ, 1.0), (PauliString.from_string("z"), 1.0)), 0.1, 1),
                UnsupportedConfigurationError,
                "all terms must act on the same number of data sites",
            ),
            (lambda: TrotterPlan(((ZZ, 1.0),), 0.0, 1), UnsupportedConfigurationError, "dt must be positive, got 0.0"),
            (lambda: TrotterPlan(((ZZ, 1.0),), 0.1, 0), UnsupportedConfigurationError, "steps must be at least 1, got 0"),
            (lambda: TrotterPlan(((ZZ, 1.0),), math.inf, 1), NonFiniteTimeError, "dt must be finite, got inf"),
            (
                lambda: TrotterPlan(((ZZ, 1.0), (ZZ, math.inf)), 0.1, 1),
                NonFiniteTimeError,
                "term 1 coefficient times dt must be finite, got inf * 0.1",
            ),
            (
                lambda: TrotterPlan(((ZZ, math.nan),), 0.1, 1),
                NonFiniteTimeError,
                "term 0 coefficient times dt must be finite, got nan * 0.1",
            ),
            (
                lambda: TrotterPlan(((ZZ, 1e200),), np.float64(1e200), 1),
                NonFiniteTimeError,
                "term 0 coefficient times dt must be finite, got 1e+200 * 1e+200",
            ),
            (lambda: qft_program(0), InvalidLayoutError, "need at least 1 site, got 0"),
            (lambda: qft_program(3, Layout(2, 1)), InvalidLayoutError, "layout has 2 core sites, expected 3"),
            (
                lambda: mirror_map(StateVector.zero(Layout(2, 1)), math.inf),
                NonFiniteTimeError,
                "phi_n and its weight phases must be finite, got inf",
            ),
            (
                lambda: mirror_map(StateVector.zero(Layout(2)), math.nan),
                NonFiniteTimeError,
                "phi_n and its weight phases must be finite, got nan",
            ),
            (
                lambda: mirror_map(StateVector.zero(Layout(2)), 1e308),  # 2 phi_n overflows
                NonFiniteTimeError,
                "phi_n and its weight phases must be finite, got 1e+308",
            ),
            (lambda: phase_gate(math.inf), NonUnitaryError, "phase angle phi must be finite, got inf"),
            (lambda: phase_gate(math.nan), NonUnitaryError, "phase angle phi must be finite, got nan"),
            (
                lambda: reflection_conjugator(math.inf, 0.0),
                NonUnitaryError,
                "reflection angles theta and phi must be finite, got inf, 0.0",
            ),
            (
                lambda: reflection_conjugator(math.nan, 0.0),
                NonUnitaryError,
                "reflection angles theta and phi must be finite, got nan, 0.0",
            ),
            (
                lambda: reflection_conjugator(0.3, -math.inf),
                NonUnitaryError,
                "reflection angles theta and phi must be finite, got 0.3, -inf",
            ),
            (lambda: christandl_profile(1), InvalidProfileError, "need at least 2 sites, got 1"),
            (
                lambda: reconstruct_profile(Spectrum((0.0,))),
                ReconstructionInfeasibleError,
                "need at least 2 energies, got 1",
            ),
            (lambda: qft_core_census(0), InvalidLayoutError, "need at least 1 qubit, got 0"),
            (
                lambda: robustness_fit(christandl_profile(4), STATE4, math.pi, 0.0, [1e-1, 1e-2]),
                InsufficientDataError,
                "need at least 3 delta_t samples",
            ),
            (
                lambda: robustness_fit(christandl_profile(4), STATE4, math.pi, 0.0, [0.5, 0.05, 0.005]),
                InsufficientDataError,
                "delta_t samples must be positive, finite and at most 1e-1, got 0.5",
            ),
            (
                lambda: robustness_fit(christandl_profile(4), STATE4, math.pi, 0.0, [1e-1, 9e-2, 8e-2]),
                InsufficientDataError,
                "delta_t samples must span at least a decade",
            ),
            (lambda: steane_concat_cost(-1), UnsupportedConfigurationError, "levels must be nonnegative, got -1"),
        ],
        ids=[
            "basis-bits", "no-core-site", "negative-ancillas", "core-position", "ancilla-position",
            "store-position", "control-range", "composite-ancilla", "qft-ancilla", "unitary-control-target",
            "reflection-control-target", "local-qubit-range", "swap-same-qubit", "swap-qubit-range",
            "execute-layout", "plan-profile", "evolve-profile", "overlap-layouts", "fidelity-layouts",
            "empty-weight", "cat-sites", "pauli-axes", "pauli-identity", "ancilla-pauli-dt",
            "direct-pauli-dt", "trotter-terms", "trotter-sizes", "trotter-dt", "trotter-steps",
            "trotter-dt-inf", "trotter-coefficient-inf", "trotter-coefficient-nan", "trotter-phase-overflow",
            "qft-sites",
            "qft-layout", "mirror-phase-inf", "mirror-phase-nan", "mirror-phase-overflow",
            "phase-gate-inf", "phase-gate-nan", "reflection-theta-inf", "reflection-theta-nan",
            "reflection-phi-inf", "christandl-sites", "reconstruct-energies",
            "census-sites", "robustness-samples", "robustness-range", "robustness-decade", "concat-levels",
        ],
    )
    def test_plain_value_errors_are_named(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()
        assert issubclass(error, ValueError)


class TestControlledZ:
    def test_two_sites_both_up(self):
        # n = 2, s_x = 1 on the zero-phase pair: sign (-1)^(s_x (n-1)) = -1
        out = run_z(zero_phase_profile(2), 2, 1, "110")
        assert out.amplitudes[0b011] == pytest.approx(-1.0, abs=1e-10)

    def test_control_down_no_phase(self):
        out = run_z(zero_phase_profile(2), 2, 1, "010")
        assert out.amplitudes[0b010] == pytest.approx(1.0, abs=1e-10)

    def test_three_sites_all_up(self):
        # n = 3, s_x = 1, x = 2: (-1)^2 = +1, control lands on the ancilla
        out = run_z(zero_phase_profile(3), 3, 2, "1110")
        assert out.amplitudes[0b1011] == pytest.approx(1.0, abs=1e-10)

    def test_census(self):
        program = controlled_z_program(1, Layout(4, ancilla_count=1))
        assert program.free_evolution_count == 2
        assert program.swap_count == 1

    def test_needs_ancilla(self):
        with pytest.raises(ValueError):
            controlled_z_program(1, Layout(3))

    def test_final_locations(self):
        layout = Layout(3, ancilla_count=1)
        program = controlled_z_program(2, layout)
        locations = program.location_map()
        assert locations[2] == layout.ancilla_position(0)
        assert locations[1] == layout.core_position(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_phases_zero_phase_chain(self, n):
        """Bare composite phases are exactly (-1)^(s_x (n-1)) on a phi = 0 chain."""
        profile = zero_phase_profile(n)
        for x in range(1, n + 1):
            for s in range(1 << n):
                bits = format(s, f"0{n}b") + "0"
                out = run_z(profile, n, x, bits)
                s_x = (s >> (n - x)) & 1
                weight = bin(s).count("1")
                target_bits = list(format(s, f"0{n}b"))
                target_bits[x - 1] = "0"
                index = int("".join(target_bits) + str(s_x), 2)
                expected = (-1.0) ** (s_x * (weight - 1))
                assert abs(out.amplitudes[index] - expected) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_phases_pi_chain_bare(self, n):
        """Without corrections the pi-phase chain shows e^{-(2n - s_x) i phi}."""
        profile = oracles.mirror_phase_profile(n, phase_pi=True)
        assert abs(abs(mirror_certificate(profile, math.pi).phi_n) - math.pi) < 1e-9
        for x in range(1, n + 1):
            for s in range(1 << n):
                bits = format(s, f"0{n}b") + "0"
                out = run_z(profile, n, x, bits)
                s_x = (s >> (n - x)) & 1
                weight = bin(s).count("1")
                target_bits = list(format(s, f"0{n}b"))
                target_bits[x - 1] = "0"
                index = int("".join(target_bits) + str(s_x), 2)
                expected = np.exp(-1j * (2 * weight - s_x) * math.pi) * (-1.0) ** (
                    s_x * (weight - 1)
                )
                assert abs(out.amplitudes[index] - expected) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_phases_pi_chain_corrected(self, n):
        profile = oracles.mirror_phase_profile(n, phase_pi=True)
        for x in range(1, n + 1):
            for s in range(1 << n):
                bits = format(s, f"0{n}b") + "0"
                out = run_z(profile, n, x, bits, phi_n=math.pi)
                s_x = (s >> (n - x)) & 1
                weight = bin(s).count("1")
                target_bits = list(format(s, f"0{n}b"))
                target_bits[x - 1] = "0"
                index = int("".join(target_bits) + str(s_x), 2)
                expected = (-1.0) ** (s_x * (weight - 1))
                assert abs(out.amplitudes[index] - expected) <= 1e-8


class TestPhaseCorrection:
    def test_zero_phase_empty(self):
        assert phase_correction(0.0, 1, Layout(3, ancilla_count=1)) == ()

    def test_corrected_two_site_example(self):
        # pi-phase pair, control up: bare phase -1 is cancelled
        profile = oracles.mirror_phase_profile(2, phase_pi=True)
        out = run_z(profile, 2, 1, "100", phi_n=math.pi)
        assert out.amplitudes[0b001] == pytest.approx(1.0, abs=1e-10)

    def test_gates_all_diagonal(self):
        gates = phase_correction(0.5, 2, Layout(3, ancilla_count=1))
        for gate in gates:
            assert abs(gate.matrix[0, 1]) == 0.0
            assert abs(gate.matrix[1, 0]) == 0.0


class TestReflectionConjugator:
    def test_theta_half_pi_gives_z(self):
        a = reflection_conjugator(math.pi / 2, 0.0)
        assert np.max(np.abs(a @ PAULI_Z @ a.conj().T - PAULI_Z)) <= 1e-12

    def test_x_case(self):
        a = reflection_conjugator(0.0, 0.0)
        assert np.max(np.abs(a @ PAULI_Z @ a.conj().T - PAULI_X)) <= 1e-12

    def test_random_reflections(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta, phi = rng.uniform(-math.pi, math.pi, 2)
            v = np.array(
                [
                    [math.sin(theta), np.exp(1j * phi) * math.cos(theta)],
                    [np.exp(-1j * phi) * math.cos(theta), -math.sin(theta)],
                ]
            )
            a = reflection_conjugator(theta, phi)
            assert np.max(np.abs(a @ a.conj().T - np.eye(2))) <= 1e-10
            assert np.max(np.abs(a @ PAULI_Z @ a.conj().T - v)) <= 1e-10


class TestAbcDecompose:
    def test_identity(self):
        a, b, c, alpha = abc_decompose(np.eye(2))
        assert alpha == pytest.approx(0.0)
        for gate in (a, b, c):
            assert_allclose(gate, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "w", [PAULI_Z, PAULI_X, HADAMARD, phase_gate(math.pi / 4)], ids=["Z", "X", "H", "R45"]
    )
    def test_named_gates(self, w):
        a, b, c, alpha = abc_decompose(w)
        assert np.max(np.abs(a @ b @ c - np.eye(2))) <= 1e-10
        rebuilt = np.exp(1j * alpha) * a @ PAULI_Z @ b @ PAULI_Z @ c
        assert np.max(np.abs(rebuilt - w)) <= 1e-10
        # the factors are the builders' shared split: read-only, and the same arrays on every call
        assert not any(gate.flags.writeable for gate in (a, b, c))
        assert all(again is gate for again, gate in zip(abc_decompose(w.copy()), (a, b, c)))

    def test_haar_identities(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            w = oracles.haar_unitary(rng)
            a, b, c, alpha = abc_decompose(w)
            assert np.max(np.abs(a @ b @ c - np.eye(2))) <= 1e-10
            rebuilt = np.exp(1j * alpha) * a @ PAULI_Z @ b @ PAULI_Z @ c
            assert np.max(np.abs(rebuilt - w)) <= 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            abc_decompose(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestControlledUnitary:
    def test_identity_targets(self):
        layout = Layout(3, ancilla_count=1)
        program = controlled_unitary_program(
            TargetSpec(1, {2: np.eye(2), 3: np.eye(2)}), layout
        )
        u = program_unitary(program, zero_phase_profile(3))
        assert np.max(np.abs(u - np.eye(16))) <= 1e-8

    def test_flip_targets_basis_action(self):
        layout = Layout(3, ancilla_count=1)
        profile = zero_phase_profile(3)
        program = controlled_unitary_program(TargetSpec(1, {2: PAULI_X, 3: PAULI_X}), layout)
        on = execute(program, profile, StateVector.basis(layout, "1000"))
        assert abs(on.amplitudes[0b1110]) == pytest.approx(1.0, abs=1e-8)
        off = execute(program, profile, StateVector.basis(layout, "0000"))
        assert abs(off.amplitudes[0b0000]) == pytest.approx(1.0, abs=1e-8)

    def test_cost_census_any_size(self):
        for n in range(2, 9):
            layout = Layout(n, ancilla_count=1)
            program = controlled_unitary_program(
                TargetSpec(1, {n: PAULI_X}), layout
            )
            assert program.free_evolution_count == 4
            assert program.swap_count == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_targets_match_direct_product(self, n):
        rng = np.random.default_rng(n * 7 + 1)
        profile = zero_phase_profile(n)
        layout = Layout(n, ancilla_count=1)
        dim = 1 << n
        for _ in range(4):
            x = int(rng.integers(1, n + 1))
            targets = {j: oracles.haar_unitary(rng) for j in range(1, n + 1) if j != x}
            program = controlled_unitary_program(TargetSpec(x, targets), layout)
            full = program_unitary(program, profile)
            block = oracles.data_block(full, layout, list(range(n)))
            direct = oracles.controlled_product(n, x, targets)
            aligned = oracles.align_global_phase(block, direct)
            assert np.max(np.abs(aligned - direct)) <= 1e-8

    def test_ancilla_restored(self):
        n = 4
        rng = np.random.default_rng(40)
        layout = Layout(n, ancilla_count=1)
        targets = {j: oracles.haar_unitary(rng) for j in (2, 3, 4)}
        program = controlled_unitary_program(TargetSpec(1, targets), layout)
        full = program_unitary(program, zero_phase_profile(n))
        anc = layout.ancilla_position(0)
        for s in range(1 << n):
            column = full[:, s << 1]  # input has ancilla 0
            leak = sum(
                abs(column[i]) ** 2 for i in range(1 << (n + 1)) if (i >> 0) & 1
            )
            assert leak <= 1e-10

    def test_pi_phase_chain_with_corrections(self):
        n = 4
        rng = np.random.default_rng(44)
        profile = oracles.mirror_phase_profile(n, phase_pi=True)
        layout = Layout(n, ancilla_count=1)
        targets = {j: oracles.haar_unitary(rng) for j in (1, 3)}
        program = controlled_unitary_program(TargetSpec(2, targets), layout, phi_n=math.pi)
        full = program_unitary(program, profile)
        block = oracles.data_block(full, layout, list(range(n)))
        direct = oracles.controlled_product(n, 2, targets)
        aligned = oracles.align_global_phase(block, direct)
        assert np.max(np.abs(aligned - direct)) <= 1e-8

    def test_rejects_control_in_targets(self):
        with pytest.raises(ValueError):
            controlled_unitary_program(
                TargetSpec(1, {1: PAULI_X}), Layout(2, ancilla_count=1)
            )


class TestControlledReflection:
    def test_basis_action(self):
        """One composite conjugated by locals applies the reflections when control is up."""
        n = 3
        profile = zero_phase_profile(n)
        layout = Layout(n, ancilla_count=1)
        rng = np.random.default_rng(11)
        angles = {j: (float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3))) for j in (2, 3)}
        program = controlled_reflection_program(1, angles, layout)
        assert program.free_evolution_count == 2

        reflections = {
            j: np.array(
                [
                    [math.sin(t), np.exp(1j * p) * math.cos(t)],
                    [np.exp(-1j * p) * math.cos(t), -math.sin(t)],
                ]
            )
            for j, (t, p) in angles.items()
        }
        relocate = program.location_map()
        for s in range(1 << n):
            state = execute(
                program, profile, StateVector.basis(layout, format(s, f"0{n}b") + "0")
            )
            # oracle: controlled product, then move the control to the ancilla
            direct = oracles.controlled_product(n, 1, reflections)
            base = np.zeros(1 << n, dtype=complex)
            base[s] = 1.0
            logical = direct @ base
            expected = np.zeros(layout.dim, dtype=complex)
            for idx in range(1 << n):
                if abs(logical[idx]) < 1e-14:
                    continue
                bits = [(idx >> (n - 1 - b)) & 1 for b in range(n)]
                phys = [0] * layout.total_qubits
                for site in range(1, n + 1):
                    phys[relocate[site]] = bits[site - 1]
                expected[int("".join(map(str, phys)), 2)] = logical[idx]
            overlap = abs(np.vdot(expected, state.amplitudes))
            assert overlap >= 1.0 - 1e-8

    def test_one_conjugator_per_angle_pair(self, monkeypatch):
        calls = []

        def counted(theta, phi, _original=gates.reflection_conjugator):
            calls.append((theta, phi))
            return _original(theta, phi)

        monkeypatch.setattr(gates, "reflection_conjugator", counted)
        layout = Layout(12, ancilla_count=1)
        cat = controlled_reflection_program(1, {site: (0.0, 0.0) for site in range(2, 13)}, layout)
        assert calls == [(0.0, 0.0)] and cat.local_count == 22  # one eigh for the 11 X targets, not 11
        calls.clear()
        mixed = {2: (0.3, 0.1), 3: [0.0, 0.0], 4: (0.3, 0.1), 5: (0.0, 0.0)}  # a list pair stays accepted
        program = controlled_reflection_program(1, mixed, Layout(5, 1))
        assert calls == [(0.3, 0.1), (0.0, 0.0)]
        matrices = {op.label: op.matrix for op in program.instructions if isinstance(op, Local)}
        assert matrices["A2"] is matrices["A4"] and matrices["A3"] is matrices["A5"]


def cat_fidelity(program, final):
    layout = program.layout
    ideal = np.zeros(layout.dim, dtype=complex)
    ideal[0] = 1 / math.sqrt(2)
    up_bits = [0] + [1] * (layout.core_sites - 1) + [1]  # site 1 emptied, control on the ancilla
    ideal[int("".join(map(str, up_bits)), 2)] = 1 / math.sqrt(2)
    return fidelity_up_to_global_phase(StateVector(layout, ideal), final)


class TestCatState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fidelity(self, n):
        assert cat_fidelity(*cat_state_program(n)) >= 1.0 - 1e-8

    @pytest.mark.parametrize("tau", [1.0, 2 * math.pi])
    def test_period_with_no_mirror_is_refused(self, tau):
        # the zero-phase chain's evolution over tau is the mirror only at odd multiples of pi
        with pytest.raises(InvalidCertificateError, match=f"no closed-form mirror at tau={tau}"):
            cat_state_program(4, tau=tau)

    def test_three_periods_give_the_cat(self):
        assert cat_fidelity(*cat_state_program(4, tau=3 * math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_control_down_does_nothing(self):
        program, _ = cat_state_program(3)
        out = execute(program, zero_phase_profile(3), StateVector.zero(program.layout))
        assert abs(out.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)
