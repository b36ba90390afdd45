"""JSON/CSV round trips and the fixed-precision float contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corechain import (
    HADAMARD,
    CostReport,
    CouplingProfile,
    FreeEvolve,
    GateProgram,
    Layout,
    Local,
    NonUnitaryError,
    PauliString,
    Spectrum,
    StateVector,
    TargetSpec,
    TrotterPlan,
    abc_decompose,
    ancilla_pauli_program,
    christandl_profile,
    controlled_reflection_program,
    controlled_unitary_program,
    direct_pauli_program,
    phase_correction,
    phase_gate,
    qft_program,
    random_state,
    trotter_program,
)
from corechain import serialize
from corechain.dynamics import UNITARY_TOL

import oracles


def test_float_17_digits_round_trip():
    values = [0.1 + 0.2, math.pi, 1 / 3, 1e-300, -0.0, 123456.789e12]
    for v in values:
        assert float(serialize.format_float(v)) == v


def test_dumps_is_valid_json_and_deterministic():
    payload = {"a": [1.0, 2.5, math.pi], "b": {"c": True, "d": None, "e": "txt"}}
    text1 = serialize.dumps(payload)
    text2 = serialize.dumps(payload)
    assert text1 == text2
    assert json.loads(text1) == json.loads(json.dumps(payload))


def reference_dumps(obj, indent=0):
    """The one-call-per-value renderer that `dumps` must match byte for byte."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [reference_dumps(v, indent + 2) for v in obj]
        if all("\n" not in r for r in rendered) and sum(len(r) for r in rendered) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.integers(-5, 5).map(np.int64),
    st.floats(-1e3, 1e3).map(np.float64),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(0, 9)), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=json_values)
def test_dumps_matches_the_recursive_reference(obj):
    assert serialize.dumps(obj) == reference_dumps(obj)


def test_dumps_matches_the_recursive_reference_on_a_qft_program():
    data = serialize.program_to_dict(qft_program(6, include_bit_reversal=True))
    assert serialize.dumps(data) == reference_dumps(data)


def test_profile_round_trip(tmp_path):
    profile = christandl_profile(5)
    path = tmp_path / "profile.json"
    serialize.write_json(path, serialize.profile_to_dict(profile))
    loaded = serialize.profile_from_dict(json.loads(path.read_text()))
    assert loaded == profile


def test_integral_float_count_reads_as_an_integer():
    data = {**serialize.profile_to_dict(christandl_profile(3)), "n_sites": 3.0}
    loaded = serialize.profile_from_dict(data)
    assert loaded == christandl_profile(3) and type(loaded.n_sites) is int
    with pytest.raises(ValueError, match="n_sites must be an integer, got 3.5"):
        serialize.profile_from_dict({**data, "n_sites": 3.5})


def test_profile_json_shape():
    data = serialize.profile_to_dict(christandl_profile(3))
    assert set(data) == {"n_sites", "omegas", "lambdas"}
    assert len(data["omegas"]) == 2 and len(data["lambdas"]) == 3


def test_spectrum_round_trip():
    spectrum = Spectrum((0.0, 0.5, 1.75))
    data = serialize.spectrum_to_dict(spectrum)
    assert set(data) == {"energies"}
    assert serialize.spectrum_from_dict(data) == spectrum


def test_state_round_trip():
    state = random_state(Layout(2, ancilla_count=1, store_sites=1), seed=5)
    data = serialize.state_to_dict(state)
    assert set(data) == {"layout", "amplitudes"}
    assert data["layout"] == {"core_sites": 2, "ancilla_count": 1, "store_sites": 1}
    loaded = serialize.state_from_dict(data)
    assert loaded.layout == state.layout
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


def test_program_round_trip():
    program = controlled_unitary_program(
        TargetSpec(1, {2: phase_gate(0.3)}), Layout(2, ancilla_count=1)
    )
    data = serialize.program_to_dict(program)
    loaded = serialize.program_from_dict(data)
    assert loaded.layout == program.layout
    assert loaded.final_locations == program.final_locations
    assert len(loaded.instructions) == len(program.instructions)
    for a, b in zip(loaded.instructions, program.instructions):
        assert type(a) is type(b)
        if hasattr(a, "matrix"):
            assert np.array_equal(a.matrix, b.matrix)
        elif hasattr(a, "duration"):
            assert a.duration == b.duration
        else:
            assert (a.core_site, a.partner) == (b.core_site, b.partner)


def test_instruction_ops_vocabulary():
    program = qft_program(2)
    ops = {serialize.instruction_to_dict(i)["op"] for i in program.instructions}
    assert ops <= {"evolve", "swap", "local"}


def test_mask_string_round_trip():
    mask = PauliString.from_string("zziz")
    assert PauliString.from_string(mask.to_string()) == mask


def test_cost_report_dict():
    report = CostReport(4, 2, 7, switch_events=12, core_time=4 * math.pi, switched_time=2.0)
    data = serialize.cost_report_to_dict(report)
    assert data["free_evolutions"] == 4 and data["switch_events"] == 12


def test_csv_deterministic(tmp_path):
    rows = [[1, 0.1], [2, 0.2]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    serialize.write_csv(a, ["n", "x"], rows)
    serialize.write_csv(b, ["n", "x"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "n,x"


# ---------------------------------------------------------------------------
# byte identity of dumps -> loads -> from_dict -> to_dict -> dumps

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw):
    n = draw(st.integers(2, 6))
    omegas = draw(st.lists(finite, min_size=n - 1, max_size=n - 1))
    return CouplingProfile(n, omegas, draw(st.lists(finite, min_size=n, max_size=n)))


@st.composite
def layouts(draw):
    core = draw(st.integers(1, 6))
    ancilla = draw(st.integers(0, 2))
    return Layout(core, ancilla, draw(st.integers(0, max(0, 7 - core - ancilla))))


@st.composite
def states(draw):
    layout = draw(layouts())
    weight = draw(st.one_of(st.none(), st.integers(0, layout.core_sites)))
    state = random_state(layout, seed=draw(st.integers(0, 2**32 - 1)), core_weight=weight)
    phase = draw(st.sampled_from([1, -1, 1j, -1j]))  # a sign flip turns zero amplitudes into -0.0
    return StateVector(layout, state.amplitudes * phase)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 4))
    angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    tau = draw(st.floats(0.5, 4.0, allow_nan=False))
    full = draw(st.text("xyz", min_size=n, max_size=n))
    mask = PauliString.from_string(draw(st.sampled_from([full, "i" * (n - 1) + full[-1]])))
    programs_of = [
        lambda: qft_program(n, tau=tau, include_bit_reversal=draw(st.booleans())),
        lambda: controlled_unitary_program(
            TargetSpec(1, {j: phase_gate(angle) for j in range(2, n + 2)}), Layout(n + 1, 1), tau
        ),
        lambda: ancilla_pauli_program(mask, angle, tau),
        lambda: direct_pauli_program(PauliString.from_string(full), angle, tau),
        lambda: trotter_program(TrotterPlan(((mask, angle),), tau / 8, 2), tau),
    ]
    return draw(st.sampled_from(programs_of))()


CODECS = {
    "profile": (profiles(), serialize.profile_to_dict, serialize.profile_from_dict),
    "spectrum": (
        st.lists(finite, min_size=1, max_size=8).map(lambda e: Spectrum(tuple(e))),
        serialize.spectrum_to_dict,
        serialize.spectrum_from_dict,
    ),
    "layout": (layouts(), serialize.layout_to_dict, serialize.layout_from_dict),
    "state": (states(), serialize.state_to_dict, serialize.state_from_dict),
    "program": (programs(), serialize.program_to_dict, serialize.program_from_dict),
}


@pytest.mark.parametrize("kind", CODECS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_trip_is_byte_identical(kind, data):
    strategy, to_dict, from_dict = CODECS[kind]
    text = serialize.dumps(to_dict(data.draw(strategy)))
    assert serialize.dumps(to_dict(from_dict(serialize.loads(text)))) == text


# ---------------------------------------------------------------------------
# the matrices a build puts in its Locals, and the writer that renders them


@st.composite
def corrected_programs(draw):
    """The `programs` strategy, plus reflections and phase corrections for a chain phase phi_n != 0."""
    n = draw(st.integers(2, 4))
    layout = Layout(n, 1)
    control = draw(st.integers(1, n))
    phi_n = draw(st.floats(-math.pi, math.pi).filter(lambda phi: phi != 0.0))
    angle = st.floats(-math.pi, math.pi)
    reflections = {site: (draw(angle), draw(angle)) for site in range(1, n + 1) if site != control}
    targets = {site: phase_gate(draw(angle)) for site in range(1, n + 1) if site != control}
    programs_of = [
        lambda: draw(programs()),
        lambda: controlled_reflection_program(control, reflections, layout, phi_n=phi_n),
        lambda: GateProgram(phase_correction(phi_n, control, layout), layout),
        lambda: controlled_unitary_program(TargetSpec(control, targets), layout, phi_n=phi_n),
        lambda: qft_program(n, phi_n=phi_n),
        lambda: ancilla_pauli_program(PauliString.from_string("zx"[: n - 1]), draw(angle), phi_n=phi_n),
    ]
    return draw(st.sampled_from(programs_of))()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=corrected_programs())
def test_every_local_holds_a_read_only_unitary(program):
    for op in program.instructions:
        if isinstance(op, Local):
            m = op.matrix
            assert m.dtype == np.complex128 and m.shape == (2, 2) and not m.flags.writeable
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) <= UNITARY_TOL


@pytest.mark.parametrize(
    "build",
    [
        lambda: TargetSpec(1, {2: 1.5 * HADAMARD}),
        lambda: abc_decompose(np.ones((2, 2))),
        lambda: Local(0, np.diag([1.0, math.nan])),
        lambda: phase_gate(math.nan),
        lambda: phase_correction(math.nan, 1, Layout(2, 1)),
        lambda: qft_program(3, phi_n=math.nan),
        lambda: controlled_reflection_program(1, {2: (math.nan, 0.0)}, Layout(2, 1)),
        lambda: controlled_reflection_program(1, {2: (0.3, 0.0)}, Layout(2, 1), phi_n=math.nan),
        lambda: controlled_unitary_program(TargetSpec(1, {2: HADAMARD}), Layout(2, 1), phi_n=math.inf),
        lambda: ancilla_pauli_program(PauliString.from_string("z"), 0.3, phi_n=math.nan),
        lambda: serialize.program_from_dict(
            {"layout": {"core_sites": 1}, "instructions": [{"op": "local", "qubit": 0, "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
        ),
    ],
    ids=[
        "target", "abc", "local", "phase", "correction", "qft-phi", "reflection-angle", "reflection-phi",
        "controlled-phi", "pauli-phi", "reader",
    ],
)
def test_non_unitary_matrix_or_nan_angle_is_refused(build):
    with pytest.raises(NonUnitaryError):
        build()


# 17-digit widths: 0 and 1 take 1 character, -0 and -1 take 2, cos and sin of a
# generic angle 19 or 20, the subnormals 23 or 24
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-300]


@st.composite
def edge_unitaries(draw):
    """Unitaries with -0.0, subnormal, +-1 and 17-digit entries: a row is 64 characters wide or so."""
    c, s = draw(
        st.sampled_from([(1.0, 0.0), (-1.0, -0.0), (-0.0, 1.0), (0.0, -1.0), (math.cos(1e-310), math.sin(5e-324))])
        | st.floats(-4.0, 4.0).map(lambda t: (math.cos(t), math.sin(t)))
    )
    re, im = [c, -s, s, c], [draw(st.sampled_from(EDGE_PARTS)) for _ in range(4)]
    return np.array([complex(x, y) for x, y in zip(re, im)]).reshape(2, 2)


def written_program(tmp_path, program):
    """The program file the CLI writes, and its reference rendering with no list shared."""
    path = tmp_path / "program.json"
    serialize.write_json(path, {"schema": "1", **serialize.program_to_dict(program)})
    reference = {
        "schema": "1",
        "layout": serialize.layout_to_dict(program.layout),
        "instructions": [serialize.instruction_to_dict(op) for op in program.instructions],
        "final_locations": [[site, pos] for site, pos in program.final_locations],
        "note": program.note,
    }
    return path.read_text(encoding="utf-8"), oracles.json_text(reference) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    matrices=st.lists(edge_unitaries(), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=10),
)
def test_program_writer_matches_the_reference_rendering(tmp_path_factory, matrices, picks):
    # equal matrices in distinct Locals, and a build whose Locals share one array
    layout = Layout(3, 1)
    locals_ = [Local(k % 4, matrices[pick % len(matrices)], f"L{pick}") for k, pick in enumerate(picks)]
    built = controlled_unitary_program(TargetSpec(1, {2: matrices[0], 3: matrices[-1]}), layout)
    program = GateProgram((*locals_, FreeEvolve(math.pi), *built.instructions), layout, note="edge")
    text, reference = written_program(tmp_path_factory.mktemp("writer"), program)
    assert text == reference


@pytest.mark.parametrize("last_im, one_line", [(0.0, True), (-0.0, False)])
def test_matrix_row_at_the_72_column_rule(tmp_path, last_im, one_line):
    # the first row's entries are 19 + 23 + 20 + (1 or 2) characters wide; with the
    # brackets and separators that is 71 or 72 columns
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    matrix = np.array([[complex(c, 5e-324), complex(-s, last_im)], [complex(s, 0.0), complex(c, 0.0)]])
    layout = Layout(1)
    text, reference = written_program(tmp_path, GateProgram((Local(0, matrix),) * 3, layout))
    assert text == reference
    row = "[[0.70710678118654757, 4.9406564584124654e-324], [-0.70710678118654746, 0]]"
    assert (row in text) == one_line
