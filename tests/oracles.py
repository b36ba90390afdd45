"""Independent reference constructions used to check the package.

Everything here is built the brute-force way (Kronecker products, dense
matrix exponentials) so that tests never exercise the code path they are
checking.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import scipy.linalg

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
NUMBER = np.diag([0.0, 1.0]).astype(complex)
PAULI = {"x": X, "y": Y, "z": Z, "i": I2}


def kron_all(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def op_at(op, site, n):
    """Embed a 1-site operator at 1-based site (site 1 = most significant bit)."""
    ops = [I2] * n
    ops[site - 1] = op
    return kron_all(ops)


def dense_hamiltonian(profile):
    """Sum of XY hopping and number terms, built purely from Kronecker products."""
    n = profile.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n):
        ops = [I2] * n
        ops[j - 1], ops[j] = X, X
        h += 0.5 * profile.omegas[j - 1] * kron_all(ops)
        ops = [I2] * n
        ops[j - 1], ops[j] = Y, Y
        h += 0.5 * profile.omegas[j - 1] * kron_all(ops)
    for j in range(1, n + 1):
        h += profile.lambdas[j - 1] * op_at(NUMBER, j, n)
    return h


def dense_propagator(profile, t):
    return scipy.linalg.expm(-1j * t * dense_hamiltonian(profile))


def swap_matrix(a, b, n_qubits):
    """Permutation exchanging global qubit positions a and b (position 0 = most significant)."""
    dim = 1 << n_qubits
    perm = np.zeros((dim, dim))
    for k in range(dim):
        bits = list(format(k, f"0{n_qubits}b"))
        bits[a], bits[b] = bits[b], bits[a]
        perm[int("".join(bits), 2), k] = 1.0
    return perm


def dft_matrix(n_qubits):
    dim = 1 << n_qubits
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * math.pi * jk / dim) / math.sqrt(dim)


def bit_reversed(index, n_qubits):
    return int(format(index, f"0{n_qubits}b")[::-1], 2)


def site_reversal(n_sites):
    """Core index of the site-reversed image of each core index, one index at a time."""
    return np.array([bit_reversed(s, n_sites) for s in range(1 << n_sites)])


def mirror_gather(amplitudes, n_sites, phases):
    """Mirror image of a register: core index s reads core index site_reversal[s], times phases[s]."""
    core = np.asarray(amplitudes).reshape(1 << n_sites, -1)
    return (core[site_reversal(n_sites)] * phases[:, None]).reshape(-1)


def bit_reversal_matrix(n_qubits):
    dim = 1 << n_qubits
    perm = np.zeros((dim, dim))
    for k in range(dim):
        perm[bit_reversed(k, n_qubits), k] = 1.0
    return perm


def controlled_product(n, control, targets):
    """|0_x><0_x| (x) I + |1_x><1_x| (x) prod_j W_j over n 1-based sites."""
    on = np.array([[1.0]], dtype=complex)
    off = np.array([[1.0]], dtype=complex)
    for j in range(1, n + 1):
        if j == control:
            on = np.kron(on, np.diag([0.0, 1.0]))
            off = np.kron(off, np.diag([1.0, 0.0]))
        else:
            on = np.kron(on, targets.get(j, I2))
            off = np.kron(off, I2)
    return off + on


def pauli_string_matrix(mask_text):
    return kron_all([PAULI[a] for a in mask_text])


def haar_unitary(rng, dim=2):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def align_global_phase(actual, reference):
    """Rotate `actual` so its largest-|reference| entry matches phase."""
    actual = np.asarray(actual)
    reference = np.asarray(reference)
    flat = np.argmax(np.abs(reference))
    pivot = actual.reshape(-1)[flat]
    if abs(pivot) < 1e-12:
        return actual
    ref = reference.reshape(-1)[flat]
    return actual * (ref / abs(ref)) * (abs(pivot) / pivot)


def data_block(full, layout, data_positions):
    """Sub-unitary on the given global positions with all other qubits in |0>."""
    total = layout.total_qubits
    k = len(data_positions)
    indices = []
    for assignment in range(1 << k):
        index = 0
        for b, position in enumerate(data_positions):
            bit = (assignment >> (k - 1 - b)) & 1
            index |= bit << (total - 1 - position)
        indices.append(index)
    return full[np.ix_(indices, indices)]


def mirror_phase_profile(n, phase_pi):
    """Linear-spectrum chain with mirror phase 0 (phase_pi=False) or pi (True).

    The mirror phase of the linear chain is (top energy) * pi mod 2 pi, so a
    uniform field offset toggles it.
    """
    from corechain import CouplingProfile, christandl_profile

    base = christandl_profile(n)
    want_odd_top = bool(phase_pi)
    top_is_odd = (n - 1) % 2 == 1
    if top_is_odd != want_odd_top:
        base = CouplingProfile(n, base.omegas, tuple(v + 1.0 for v in base.lambdas))
    return base


def switched_qft_schedule(n: int) -> tuple[int, int, int]:
    """Enumerate the switched QFT schedule: (swap events, phase events, depth).

    Brick pattern: alternating layers of disjoint adjacent transpositions
    walk every lighter-indexed qubit rightward past every heavier one, so
    each of the C(n,2) control/target pairs meets exactly once; its
    controlled phase is applied at the meeting (one extra on-interval) and
    the crossing swap is one more.  Depth counts layers, phases included.
    """
    order = list(range(n))
    swap_events = 0
    phase_events = 0
    depth = 0
    moved = True
    while moved:
        moved = False
        for start in (0, 1):
            layer_used = False
            for p in range(start, n - 1, 2):
                if order[p] < order[p + 1]:
                    phase_events += 1  # controlled phase between the meeting pair
                    order[p], order[p + 1] = order[p + 1], order[p]
                    swap_events += 1
                    layer_used = True
                    moved = True
            if layer_used:
                depth += 2  # phase layer followed by swap layer
    return swap_events, phase_events, depth


def json_text(obj, indent: int = 0) -> str:
    """The program writer's JSON, rendered value by value and nothing shared: the reference for `dumps`.

    A list goes on one line when no entry spans lines and the entries total
    fewer than 72 characters; floats are "%.17g", so -0.0 is "-0".
    """
    scalars = {
        float: "%.17g".__mod__,
        int: str,
        bool: lambda b: "true" if b else "false",
        str: encode_basestring_ascii,
        type(None): lambda _: "null",
    }
    scalar = scalars.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [json_text(v, indent + 2) for v in obj]
        line = ", ".join(rendered)
        if len(line) - 2 * (len(rendered) - 1) < 72 and "\n" not in line:
            return "[" + line + "]"
        inner = " " * (indent + 2)
        return "[\n" + ",\n".join([inner + r for r in rendered]) + "\n" + " " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = " " * (indent + 2)
        items = [f"{inner}{encode_basestring_ascii(str(k))}: " + json_text(v, indent + 2) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    return json.dumps(obj)
