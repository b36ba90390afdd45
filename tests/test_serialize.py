"""JSON/CSV round trips and the fixed-precision float contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corechain import (
    CostReport,
    CouplingProfile,
    Layout,
    PauliString,
    Spectrum,
    StateVector,
    TargetSpec,
    TrotterPlan,
    ancilla_pauli_program,
    christandl_profile,
    controlled_unitary_program,
    direct_pauli_program,
    phase_gate,
    qft_program,
    random_state,
    trotter_program,
)
from corechain import serialize


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
