"""The public API, pinned: every exported name and the signature of each callable.

A change here is a change of the package's contract.  Classes show their
constructor, exceptions their base class (and constructor, when they define
one), modules "module" and constants their type.
"""

import ast
import inspect
from pathlib import Path

import corechain

SURFACE = {
    "CERTIFICATE_TOL": "float",
    "ConcatCost": (
        "(levels: 'int', targets_per_gate: 'int', controlled_gate_count: 'int', "
        "switched_elementary_ops: 'int') -> None"
    ),
    "CostReport": (
        "(free_evolutions: 'int', swaps: 'int', local_ops: 'int', switch_events: 'int' = 0, "
        "core_time: 'float' = 0.0, switched_time: 'float' = 0.0) -> None"
    ),
    "CouplingProfile": (
        "(n_sites: 'int', omegas: 'tuple[float, ...]', lambdas: 'tuple[float, ...]') -> None"
    ),
    "FreeEvolve": "(duration: 'float') -> None",
    "GateProgram": (
        "(instructions: 'tuple[Instruction, ...]', layout: 'Layout', "
        "final_locations: 'tuple[tuple[int, int], ...]' = (), note: 'str' = '') -> None"
    ),
    "HADAMARD": "ndarray",
    "IDENTITY_2": "ndarray",
    "IllConditionedError": "ValueError(message: str, index: int)",
    "InsufficientDataError": "ValueError",
    "InvalidCertificateError": "ValueError",
    "InvalidInstructionError": "ValueError",
    "InvalidLayoutError": "ValueError",
    "InvalidProfileError": "ValueError",
    "InvalidStateError": "ValueError",
    "JacobiMatrix": "(diagonal: 'tuple[float, ...]', off_diagonal: 'tuple[float, ...]') -> None",
    "Layout": "(core_sites: 'int', ancilla_count: 'int' = 0, store_sites: 'int' = 0) -> None",
    "Local": "(qubit: 'int', matrix: 'np.ndarray', label: 'str' = '') -> None",
    "MIRROR_TOL": "float",
    "MirrorCertificate": "(tau: 'float', phi_n: 'float', max_deviation: 'float') -> None",
    "NonFiniteTimeError": "ValueError",
    "NonUnitaryError": "ValueError",
    "PAULI_X": "ndarray",
    "PAULI_Y": "ndarray",
    "PAULI_Z": "ndarray",
    "PauliString": "(axes: 'tuple[str, ...]') -> None",
    "ProfileDiagnostics": (
        "(length_ok: 'bool', mirror_residual_omega: 'float', "
        "mirror_residual_lambda: 'float', nonpositive_omegas: 'tuple[int, ...]', "
        "nonfinite_omegas: 'tuple[int, ...]' = (), nonfinite_lambdas: 'tuple[int, "
        "...]' = ()) -> None"
    ),
    "Propagator": "(t: 'float', matrix: 'np.ndarray') -> None",
    "ReconstructionInfeasibleError": "ValueError",
    "RobustnessReport": (
        "(delta_ts: 'tuple[float, ...]', errors: 'tuple[float, ...]', "
        "fitted_order: 'float') -> None"
    ),
    "SizeLimitError": "ValueError",
    "Spectrum": "(energies: 'tuple[float, ...]') -> None",
    "StateVector": "(layout: 'Layout', amplitudes: 'np.ndarray') -> None",
    "Swap": "(core_site: 'int', partner: 'int') -> None",
    "TargetSpec": "(control: 'int', targets: 'Mapping[int, np.ndarray]' = <factory>) -> None",
    "TransferTimeReport": "(total_time: 'float', lower_bound: 'float') -> None",
    "TrotterPlan": (
        "(terms: 'tuple[tuple[PauliString, float], ...]', dt: 'float', steps: 'int') -> None"
    ),
    "UnsupportedConfigurationError": "ValueError",
    "abc_decompose": "(w: 'np.ndarray') -> 'tuple[np.ndarray, np.ndarray, np.ndarray, float]'",
    "analysis": "module",
    "ancilla_pauli_program": (
        "(mask: 'PauliString', dt: 'float', tau: 'float' = 3.141592653589793, "
        "phi_n: 'float' = 0.0) -> 'GateProgram'"
    ),
    "applications": "module",
    "apply_local": "(state: 'StateVector', qubit: 'int', u: 'np.ndarray') -> 'StateVector'",
    "axis_frame": (
        "(mask: 'PauliString', layout: 'Layout', "
        "first_data_site: 'int' = 2) -> 'tuple[tuple[Local, ...], tuple[Local, ...]]'"
    ),
    "cat_state_program": (
        "(n_sites: 'int', tau: 'float' = 3.141592653589793) -> 'tuple[GateProgram, "
        "StateVector]'"
    ),
    "chain": "module",
    "christandl_profile": "(n_sites: 'int') -> 'CouplingProfile'",
    "controlled_reflection_program": (
        "(control: 'int', reflections: 'Mapping[int, tuple[float, float]]', "
        "layout: 'Layout', tau: 'float' = 3.141592653589793, "
        "phi_n: 'float' = 0.0) -> 'GateProgram'"
    ),
    "controlled_unitary_program": (
        "(spec: 'TargetSpec', layout: 'Layout', tau: 'float' = 3.141592653589793, "
        "phi_n: 'float' = 0.0) -> 'GateProgram'"
    ),
    "controlled_z_program": (
        "(control: 'int', layout: 'Layout', "
        "tau: 'float' = 3.141592653589793) -> 'GateProgram'"
    ),
    "cost_of_program": "(program: 'GateProgram', tau: 'float') -> 'CostReport'",
    "direct_pauli_program": (
        "(mask: 'PauliString', dt: 'float', "
        "tau: 'float' = 3.141592653589793) -> 'GateProgram'"
    ),
    "dynamics": "module",
    "errors": "module",
    "evolution_overlaps": (
        "(profile: 'CouplingProfile', bra: 'StateVector', ket: 'StateVector', "
        "times: 'Sequence[float]') -> 'np.ndarray'"
    ),
    "evolve": "(profile: 'CouplingProfile', state: 'StateVector', t: 'float') -> 'StateVector'",
    "execute": (
        "(program: 'GateProgram', profile: 'CouplingProfile', "
        "state: 'StateVector') -> 'StateVector'"
    ),
    "fidelity_up_to_global_phase": "(a: 'StateVector', b: 'StateVector') -> 'float'",
    "full_propagator": "(profile: 'CouplingProfile', t: 'float') -> 'Propagator'",
    "gates": "module",
    "mirror_certificate": "(profile: 'CouplingProfile', tau: 'float') -> 'MirrorCertificate'",
    "mirror_map": "(state: 'StateVector', phi_n: 'float') -> 'StateVector'",
    "phase_correction": (
        "(phi_n: 'float', control: 'int', layout: 'Layout', "
        "control_position: 'int | None' = None) -> 'tuple[Local, ...]'"
    ),
    "phase_gate": "(phi: 'float') -> 'np.ndarray'",
    "program_unitary": "(program: 'GateProgram', profile: 'CouplingProfile') -> 'np.ndarray'",
    "qft_core_census": "(n: 'int') -> 'CostReport'",
    "qft_program": (
        "(n: 'int', layout: 'Layout | None' = None, tau: 'float' = 3.141592653589793, "
        "phi_n: 'float' = 0.0, include_bit_reversal: 'bool' = False) -> 'GateProgram'"
    ),
    "quadratic_fit_residual": "(ns, events) -> 'tuple[float, float]'",
    "random_state": (
        "(layout: 'Layout', seed=None, core_weight: 'int | None' = None) -> 'StateVector'"
    ),
    "reconstruct_profile": "(spectrum: 'Spectrum') -> 'CouplingProfile'",
    "reflection_conjugator": "(theta: 'float', phi: 'float') -> 'np.ndarray'",
    "robustness_fit": (
        "(profile: 'CouplingProfile', state: 'StateVector', tau: 'float', phi_n: 'float', "
        "delta_ts) -> 'RobustnessReport'"
    ),
    "single_excitation_matrix": "(profile: 'CouplingProfile') -> 'JacobiMatrix'",
    "steane_concat_cost": "(levels: 'int') -> 'ConcatCost'",
    "swap_qubits": "(state: 'StateVector', a: 'int', b: 'int') -> 'StateVector'",
    "switched_qft_cost": "(n: 'int') -> 'CostReport'",
    "switched_transfer_time": "(profile: 'CouplingProfile') -> 'TransferTimeReport'",
    "timing_error": (
        "(profile: 'CouplingProfile', state: 'StateVector', tau: 'float', phi_n: 'float', "
        "delta_t: 'float') -> 'float'"
    ),
    "trotter_program": "(plan: 'TrotterPlan', tau: 'float' = 3.141592653589793) -> 'GateProgram'",
    "validate_profile": "(profile: 'CouplingProfile') -> 'ProfileDiagnostics'",
    "zero_phase_profile": "(n_sites: 'int') -> 'CouplingProfile'",
}


def describe(obj) -> str:
    if inspect.ismodule(obj):
        return "module"
    if isinstance(obj, type) and issubclass(obj, BaseException):
        own_init = "__init__" in vars(obj)
        return obj.__bases__[0].__name__ + (str(inspect.signature(obj)) if own_init else "")
    if callable(obj):
        return str(inspect.signature(obj))
    return type(obj).__name__


def test_public_names_and_signatures_are_fixed():
    assert sorted(corechain.__all__) == sorted(SURFACE)
    for name, expected in SURFACE.items():
        assert describe(getattr(corechain, name)) == expected, name


# The private names one module may read from another: the boundary checks that
# every entry point shares, and the controlled-gate body the applications extend.
# Everything else a module needs from another has a plain name there.
PRIVATE_READS = {
    ("dynamics", "_check_unitary"),
    ("dynamics", "_are_integers"),
    ("dynamics", "_check_evolution"),
    ("gates", "_controlled"),
}
SOURCE = Path(corechain.__file__).resolve().parent


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each `_`-prefixed name the file reads from a corechain module.

    It reads one through `from .m import _x` (or `from corechain.m import _x`)
    and through `m._x`, where `m` is bound to a corechain module by an import.
    A private module itself (`from . import _kernels`) is not a read.
    """
    modules = {p.stem for p in SOURCE.glob("*.py")}
    bound, reads, attributes = {}, set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "corechain":
                    continue
                module = module.removeprefix("corechain").lstrip(".")
            for alias in node.names:
                if not module and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    reads.add((module or "corechain", alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("corechain.") and alias.asname:
                    bound[alias.asname] = alias.name.removeprefix("corechain.")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and is_private(node.attr):
            attributes.append((node.value.id, node.attr))
    reads.update((bound[name], attr) for name, attr in attributes if name in bound)
    return {(module, name) for module, name in reads if module != path.stem}


def test_no_module_reads_another_modules_private_names():
    reads = {(path.name, *read) for path in sorted(SOURCE.glob("*.py")) for read in private_reads(path)}
    unexpected = sorted(f"{file}: {module}.{name}" for file, module, name in reads if (module, name) not in PRIVATE_READS)
    assert not unexpected, "private names read across modules:\n" + "\n".join(unexpected)
    assert {(module, name) for _, module, name in reads} == PRIVATE_READS  # the allowlist stays exact
