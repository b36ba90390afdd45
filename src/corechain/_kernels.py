"""The array kernels that state operations and lowered gate programs run on.

Every program reduces to four kinds of step, and each kernel is named for
its kind: `phase` (a certified mirror's weight phases), `evolve` (the
Givens network of any other free evolution), `local_run` and
`rotating_local_run` (a run of single-qubit unitaries), and `order` (one
transposing copy that materialises a qubit order).

The array contract
------------------
A kernel takes the amplitudes as a C-contiguous (2^M, columns) array, may
write into it, and returns the result; `gates.execute`, `dynamics.evolve`,
`mirror_map` and `apply_local` copy a StateVector's read-only amplitudes
first.  Viewed as a tensor with M axes of 2 and one of columns, axis 0
the most significant, the array holds qubit q on axis q in natural order
(:mod:`corechain.dynamics` orders the register).  It need not: a plan
(:func:`corechain.gates._plan`) carries the order, the axis that holds each
qubit, so a swap and the site reversal of a mirror step move no amplitude.
Nor need it hold every qubit: a qubit known to be |0> has no axis, and the
array has half the rows for each such qubit, until a Local inserts the axis
or the plan materialises.

- `phase` multiplies by the weight phases of a certified mirror step in one
  ufunc call, a 2^k table broadcast over the k axes that hold chain sites;
  an absent site adds 0 to the weight, so the table is the first 2^k
  entries of the chain's 2^N one.
- `local_run` applies a run of single-qubit unitaries as in-place two-row
  passes on the axes it is given, block by block; a block whose rows are
  strided is copied into contiguous scratch rows for its products.
- `rotating_local_run` applies a run on one column by ascending axis.
  Each pass reads the leading axis's two contiguous halves and writes them
  interleaved into a second buffer, so the next axis leads; the axes come
  out rotated, and the plan records the rotation instead of undoing it.
- `order` materialises an order with one transposing copy into the |0>
  slice of a zeroed array: before the Givens network of `evolve`, at the
  end of a plan, where a Local inserts the axes of absent qubits, and as
  the site reversal of `mirror_map`.

No kernel calls BLAS, so a wide batch of columns never meets a
multi-threaded product.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

# amplitudes per block of a local pass, so its four scratch rows stay at 256 KB each
PASS_BLOCK = 1 << 14


def core_bits(n_sites: int) -> np.ndarray:
    """Row s holds the bits of core index s, site 1 first, for the mode-energy sums `core_bits(n) @ energies`."""
    return (np.arange(1 << n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def core_weights(n_sites: int) -> np.ndarray:
    """The weight of each core index, its count of set bits, as uint8."""
    return np.bitwise_count(np.arange(1 << n_sites))


def mirror_phases(n_sites: int, phi_n: float) -> np.ndarray:
    """exp(-i n phi_n) (-1)^((n-m)/2), m = n mod 2, for each core index of weight n, made once per weight."""
    w = np.arange(n_sites + 1)
    return (np.exp(-1j * w * phi_n) * (-1.0) ** (w >> 1))[core_weights(n_sites)]


def rotate(arr: np.ndarray, n_core: int, rotations, back: bool = False) -> None:
    """The Givens network, in place on a C-contiguous complex array; `back` undoes it.

    Each rotation is one 2x2 real product on the (|01>, |10>) rows of sites
    (p, p+1), on the float64 view; |00> and |11> (determinant one) stay.
    """
    flat = arr.reshape(1 << n_core, -1).view(np.float64)
    for p, g in reversed(rotations) if back else rotations:
        pair = flat.reshape(1 << p, 4, -1)[:, 1:3]
        pair[...] = (g.T if back else g) @ pair


def evolve(eigensystem, t: float, arr: np.ndarray) -> np.ndarray:
    """exp(-i H t) from a `dynamics._block_eigensystems` entry, in place: into the mode basis, phase, and back."""
    energies, rotations = eigensystem
    n_core = len(energies)
    core = np.reshape(arr, (1 << n_core, -1), copy=False)
    rotate(core, n_core, rotations)
    core *= np.exp(-1j * float(t) * (core_bits(n_core) @ energies))[:, None]
    rotate(core, n_core, rotations, back=True)
    return arr


def local_pass(arr: np.ndarray, qubit: int, u: np.ndarray, scratch: np.ndarray) -> None:
    """Two-row pass of a 2x2 unitary on the (2^qubit, 2, rest) view, written into `arr`.

    A diagonal unitary scales the rows.  Otherwise `scratch` holds four rows
    of min(size / 2, PASS_BLOCK) amplitudes, so a pass, block by block, needs
    no array-sized temporary: the new bottom row, one product, and, for a
    block whose rows are strided, contiguous copies of its top and bottom
    rows, which the products then run on before the new rows are copied
    back.  Each amplitude meets the same ufunc calls either way.
    """
    view = np.reshape(arr, (1 << qubit, 2, -1), copy=False)
    if u[0, 1] == 0 and u[1, 0] == 0:
        view *= np.diagonal(u)[:, None]
        return
    lead, _, rest = view.shape
    width, height = min(rest, PASS_BLOCK), max(1, PASS_BLOCK // rest)
    for i in range(0, lead, height):
        for j in range(0, rest, width):
            top = view[i : i + height, 0, j : j + width]
            bottom = view[i : i + height, 1, j : j + width]
            new_bottom, product, upper, lower = (row[: top.size].reshape(top.shape) for row in scratch)
            if top.flags.c_contiguous:
                upper, lower = top, bottom
            else:  # several strided rows: a ufunc runs about twice as fast on contiguous copies
                upper[...], lower[...] = top, bottom
            np.multiply(upper, u[1, 0], out=new_bottom)
            np.multiply(u[1, 1], lower, out=product)
            new_bottom += product
            upper *= u[0, 0]
            np.multiply(u[0, 1], lower, out=product)
            upper += product
            if upper is not top:
                top[...] = upper
            bottom[...] = new_bottom


def local_run(arr: np.ndarray, run: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """A run of 2x2 unitaries on distinct qubits, applied in order as in-place two-row passes."""
    scratch = np.empty((4, min(arr.size // 2, PASS_BLOCK)), dtype=arr.dtype)
    for qubit, u in run:
        local_pass(arr, qubit, u, scratch)
    return arr


def rotating_local_run(arr: np.ndarray, passes: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """A run of 2x2 unitaries on one column, by ascending axis, rotating the axes as it goes.

    Each pass reads the leading axis's two contiguous halves and writes the
    new rows interleaved into the other of two buffers (`arr` and one new
    array), so that axis becomes the last and the next one leads.  Axes the
    run skips are rotated past with one transposing copy per gap.  The
    result holds old axis a on axis (a - shift) mod M, where shift is the
    last pass's axis + 1; its values are bit for bit those of one
    `local_pass` per entry of `passes`, in that order.
    """
    half = arr.size // 2
    src, dst = arr.reshape(-1), np.empty(arr.size, dtype=arr.dtype)
    first, product = np.empty((2, half), dtype=arr.dtype)
    lead = 0
    for axis, u in passes:
        if axis > lead:
            dst.reshape(-1, 1 << (axis - lead))[...] = src.reshape(1 << (axis - lead), -1).T
            src, dst = dst, src
        top, bottom = src.reshape(2, half)
        pairs = dst.reshape(half, 2).T
        if u[0, 1] == 0 and u[1, 0] == 0:
            np.multiply(top, u[0, 0], out=pairs[0])
            np.multiply(bottom, u[1, 1], out=pairs[1])
        else:
            for row, out in enumerate(pairs):
                np.multiply(top, u[row, 0], out=first)
                np.multiply(u[row, 1], bottom, out=product)
                np.add(first, product, out=out)
        src, dst, lead = dst, src, axis + 1
    return src.reshape(arr.shape)


def phase_blocks(phases: np.ndarray, chain_axes: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The array's block shape and `phases` viewed to broadcast over it, for `phase`.

    Runs of consecutive axes that hold chain sites, or that do not, each
    merge into one block, and the axes after the last chain axis into the
    columns.  The table's bits go to the chain axes in ascending order,
    which is exact because the phase depends only on the weight.
    """
    held = set(chain_axes)
    arr_shape, table_shape = [], []
    for is_chain, block in groupby(range(max(held) + 1), key=held.__contains__):
        size = 1 << len(list(block))
        arr_shape.append(size)
        table_shape.append(size if is_chain else 1)
    return (*arr_shape, -1), phases.reshape(*table_shape, 1)


def phase(arr: np.ndarray, shape: tuple[int, ...], phases: np.ndarray) -> np.ndarray:
    """Multiply in place by `phases` broadcast over the `shape` view of `arr`: one ufunc call."""
    view = arr.reshape(shape)
    view *= phases
    return arr


def order(arr: np.ndarray, order: Sequence[int | None]) -> np.ndarray:
    """The amplitudes with qubit q on axis q, read from axis order[q]: one transposing copy.

    Axes after the ordered ones stay where they are.  A qubit whose order is
    None has no axis in `arr` and is |0>: the copy fills the |0> slice of an
    array that is otherwise zero and has 2^(number of None) times the rows.
    """
    axes = [axis for axis in order if axis is not None]
    out = np.zeros((1 << len(order), arr.size >> len(axes)), dtype=arr.dtype)
    held = out.reshape([2] * len(order) + [-1])[tuple(0 if axis is None else slice(None) for axis in order)]
    held[...] = arr.reshape([2] * len(axes) + [-1]).transpose(*axes, len(axes))
    return out.reshape(-1, arr.shape[-1])
