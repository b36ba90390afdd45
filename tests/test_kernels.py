"""The array kernels against the passes, gathers and phase tables they replace, bit for bit."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corechain import (
    FreeEvolve,
    GateProgram,
    HADAMARD,
    Layout,
    Local,
    PAULI_Y,
    apply_local,
    evolve,
    execute,
    mirror_map,
    random_state,
    zero_phase_profile,
)
from corechain import _kernels

import oracles


def _dense_or_diagonal(rng, k):
    if k % 2:
        return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return np.linalg.qr(z)[0]


# one column, an odd count, and a wide power of two (no transposed qubits there)
KERNEL_SHAPES = [(m, cols) for m in range(2, 17) for cols in (1, 3, 1 << max(1, 17 - m))]


def _passes_in_order(arr, run):
    """One `local_pass` per entry of `run`, in order, on a copy never transposed: the kernels' reference."""
    expected = arr.copy()
    scratch = np.empty((4, arr.size // 2), dtype=arr.dtype)
    for qubit, u in run:
        _kernels.local_pass(expected, qubit, u, scratch)
    return expected


class TestKernels:
    """The run and mirror kernels against the passes and gathers they replace, bit for bit."""

    @pytest.mark.parametrize("m, cols", KERNEL_SHAPES, ids=[f"M{m}-cols{c}" for m, c in KERNEL_SHAPES])
    def test_run_equals_one_pass_per_qubit(self, m, cols):
        rng = np.random.default_rng([m, cols])
        arr = rng.standard_normal((1 << m, cols)) + 1j * rng.standard_normal((1 << m, cols))
        arr.flags.writeable = False  # the kernel gets copies; the references read this
        # every position in a shuffled order, ending on the last qubit (the store, or
        # the ancilla), and an ascending run that wraps to qubit 0 as the QFT's do
        orders = ([*map(int, rng.permutation(m - 1)), m - 1], [*range(1, m), 0])
        for order in orders:
            run = tuple((q, _dense_or_diagonal(rng, k)) for k, q in enumerate(order))
            assert np.array_equal(_kernels.local_run(arr.copy(), run), _passes_in_order(arr, run))
        for qubit, u in run:  # one-entry runs, as apply_local makes them
            single = _kernels.local_run(arr.copy(), ((qubit, u),))
            assert np.array_equal(single, _passes_in_order(arr, ((qubit, u),)))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_rotating_run_equals_passes_by_ascending_axis(self, m):
        rng = np.random.default_rng(m)
        arr = rng.standard_normal((1 << m, 1)) + 1j * rng.standard_normal((1 << m, 1))
        arr.flags.writeable = False
        # every axis; a run that skips the leading axis and leaves gaps; one on the last axis
        for axes in (range(m), sorted(rng.choice(range(1, m), (m + 1) // 2, replace=False)), [m - 1]):
            run = tuple((int(axis), _dense_or_diagonal(rng, k)) for k, axis in enumerate(axes))
            shift = run[-1][0] + 1  # the kernel leaves old axis a on axis (a - shift) mod m
            expected = _passes_in_order(arr, run).reshape([2] * m)
            expected = expected.transpose(*((a + shift) % m for a in range(m))).reshape(arr.shape)
            assert np.array_equal(_kernels.rotating_local_run(arr.copy(), run), expected)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mirror_phases_equal_the_formula_per_core_index(self, n):
        # the table is made once per weight; each core index of weight w gets the phase of w
        for phi in (0.0, 1e-9, 0.37, -2.5, math.pi, -math.pi):
            expected = []
            for s in range(1 << n):
                w = bin(s).count("1")
                expected.append(cmath.exp(-1j * w * phi) * (-1.0) ** ((w - w % 2) // 2))
            assert _kernels.mirror_phases(n, phi).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("m, cols", [(2, 1), (5, 1), (9, 1), (9, 3), (9, 64), (13, 1)])
    def test_phase_over_chain_axes_equals_phase_by_core_index(self, m, cols):
        rng = np.random.default_rng([m, cols])
        arr = rng.standard_normal((1 << m, cols)) + 1j * rng.standard_normal((1 << m, cols))
        for n in {1, m - 1, m} - {0}:
            phases = _kernels.mirror_phases(n, 0.37)
            for chain in (range(n), range(m - n, m), sorted(rng.choice(m, n, replace=False))):
                # the same array with the chain's axes first, where the table indexes the core
                rest = [a for a in range(m) if a not in chain]
                gathered = arr.reshape([2] * m + [cols]).transpose(*chain, *rest, m).reshape(1 << n, -1)
                shape, table = _kernels.phase_blocks(phases, list(chain))
                out = _kernels.phase(arr.copy(), shape, table)
                out = out.reshape([2] * m + [cols]).transpose(*chain, *rest, m).reshape(1 << n, -1)
                assert np.array_equal(out, gathered * phases[:, None])

    def test_run_writes_into_its_argument(self):
        arr = np.zeros((1 << 10, 1), dtype=np.complex128)
        arr[0] = 1.0
        out = _kernels.local_run(arr, tuple((q, HADAMARD) for q in range(10)))
        assert np.shares_memory(out, arr)
        assert_allclose(np.abs(out[:, 0]), np.full(1 << 10, 2**-5))

    def test_public_operations_leave_the_state_alone(self):
        layout = Layout(4, ancilla_count=1)
        profile = zero_phase_profile(4)
        state = random_state(layout, seed=3)
        # writeable, so a missing boundary copy would overwrite the state instead of raising
        state.amplitudes.flags.writeable = True
        saved = state.amplitudes.copy()
        hadamards = GateProgram(tuple(Local(q, HADAMARD) for q in range(5)), layout)
        execute(hadamards, profile, state)  # the plan starts with a run of Locals
        execute(GateProgram((FreeEvolve(0.7),), layout), profile, state)  # and with the network
        evolve(profile, state, 0.7)
        for qubit in (1, 4):  # a chain site and the ancilla
            apply_local(state, qubit, PAULI_Y)
        assert np.array_equal(state.amplitudes, saved)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("ancillas, stores", [(0, 0), (1, 0), (0, 1), (1, 3)])
    def test_mirror_map_equals_gather_and_phase(self, n, ancillas, stores):
        state = random_state(Layout(n, ancillas, stores), seed=[n, ancillas, stores])
        expected = oracles.mirror_gather(state.amplitudes, n, _kernels.mirror_phases(n, 0.37))
        assert np.array_equal(mirror_map(state, 0.37).amplitudes, expected)


# blocks of one contiguous slab (two slabs per row at qubit 0), and blocks of several
# strided rows, which the pass copies into contiguous scratch first
@pytest.mark.parametrize(
    "m, cols, qubit", [(16, 1, 0), (16, 1, 1), (16, 1, 3), (12, 64, 5), (9, 512, 8), (5, 3, 4)]
)
def test_pass_equals_whole_row_products(m, cols, qubit):
    rng = np.random.default_rng([m, cols, qubit])
    arr = rng.standard_normal((1 << m, cols)) + 1j * rng.standard_normal((1 << m, cols))
    u = _dense_or_diagonal(rng, 0)
    top, bottom = arr.reshape(1 << qubit, 2, -1).transpose(1, 0, 2)
    expected = np.stack((top * u[0, 0] + u[0, 1] * bottom, top * u[1, 0] + u[1, 1] * bottom), axis=1)
    assert np.array_equal(_kernels.local_run(arr, ((qubit, u),)), expected.reshape(arr.shape))
