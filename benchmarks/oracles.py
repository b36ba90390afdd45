"""Reference results built from numpy alone, independent of corechain's code paths.

Amplitude order matches corechain: qubit 1 is the most significant bit of the
index.  Every comparison is made up to a global phase, as the CLI's own
checks are, at the CLI's check tolerance.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-8


def aligned_deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    """max |actual - e^{ia} expected| with the global phase a fitted by the overlap."""
    overlap = np.vdot(expected, actual)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(actual - phase * expected)))


def bit_reversed(n_bits: int) -> np.ndarray:
    """Index k -> k with its n_bits binary digits reversed."""
    index = np.arange(1 << n_bits)
    out = np.zeros_like(index)
    for b in range(n_bits):
        out |= ((index >> b) & 1) << (n_bits - 1 - b)
    return out


def qft(psi: np.ndarray, n: int, bit_reversal: bool) -> np.ndarray:
    """DFT with kernel e^{+2 pi i jk / 2^n} / 2^(n/2); without the finisher the
    output index is bit-reversed."""
    y = np.fft.ifft(psi, norm="ortho")
    if bit_reversal:
        return y
    out = np.empty_like(y)
    out[bit_reversed(n)] = y
    return out


def controlled_product(psi: np.ndarray, n: int, control: int, targets: dict) -> np.ndarray:
    """|0><0|_control (x) I + |1><1|_control (x) prod_j W_j on n qubits (1-based sites)."""
    tensor = psi.reshape([2] * n).copy()
    up = tuple(1 if axis == control - 1 else slice(None) for axis in range(n))
    sub = tensor[up]
    for site, w in targets.items():
        axis = site - 1 - (site > control)
        sub = np.moveaxis(np.tensordot(w, sub, axes=([1], [axis])), 0, axis)
    tensor[up] = sub
    return tensor.reshape(-1)


def apply_pauli(psi: np.ndarray, axes: str) -> np.ndarray:
    """P psi for a Pauli string, as an index permutation (x, y) times a phase (y, z)."""
    n = len(axes)
    index = np.arange(1 << n)
    flip = 0
    phase = np.ones(1 << n, dtype=np.complex128)
    for j, axis in enumerate(axes):
        shift = n - 1 - j
        sign = 1 - 2 * ((index >> shift) & 1)  # +1 on |0>, -1 on |1>
        if axis in "xy":
            flip |= 1 << shift
        if axis == "y":  # Y|0> = i|1>, Y|1> = -i|0>
            phase *= 1j * sign
        elif axis == "z":
            phase *= sign
    out = np.empty_like(psi)
    out[index ^ flip] = phase * psi
    return out


def trotter(psi: np.ndarray, terms, dt: float, steps: int) -> np.ndarray:
    """Product of closed-form factors cos(c dt) I - i sin(c dt) P, first term first."""
    for _ in range(steps):
        for axes, coeff in terms:
            psi = np.cos(coeff * dt) * psi - 1j * np.sin(coeff * dt) * apply_pauli(psi, axes)
    return psi


def jacobi_eigenvalues(omegas, lambdas) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal matrix with `lambdas` on the
    diagonal and `omegas` beside it."""
    matrix = np.diag(lambdas) + np.diag(omegas, 1) + np.diag(omegas, -1)
    return np.linalg.eigvalsh(matrix)
