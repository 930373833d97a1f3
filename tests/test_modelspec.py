import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.errors import ParseError, SemanticError
from confsym.modelspec import _SCHEMA, DEFAULT_TOLERANCES, ModelSpec, parse_spec

MINIMAL_MAXWELL = """
[model]
kind = maxwell
dimension = 4

[fixture]
kind = plane-wave
k = 1, 0, 0, 1
epsilon = 0, 1, 0, 0
"""


def test_minimal_maxwell_spec():
    spec = parse_spec(MINIMAL_MAXWELL)
    assert spec.kind == "maxwell"
    assert spec.dimension == 4
    assert spec.fixture["k"] == [1.0, 0.0, 0.0, 1.0]
    assert spec.seed == 42
    assert spec.checks is None
    assert spec.tolerances == DEFAULT_TOLERANCES


def test_dual_scalar_requires_three_dimensions():
    with pytest.raises(SemanticError):
        parse_spec("[model]\nkind = dual-scalar-3\ndimension = 4\n")


def test_mechanics_requires_dimension_one():
    with pytest.raises(SemanticError):
        parse_spec("[model]\nkind = mechanics\ndimension = 3\n")


def test_duplicate_key_names_line():
    text = "[model]\nkind = maxwell\ndimension = 4\n\n[params]\nlambda = 1\nlambda = 2\n"
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == 7
    assert "duplicate key" in str(err.value)


def test_unknown_key_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_spec("[model]\nkind = maxwell\ndimension = 4\nwomble = 3\n")
    assert err.value.line == 4


def test_unknown_section_is_parse_error():
    with pytest.raises(ParseError):
        parse_spec("[model]\nkind = maxwell\ndimension = 4\n[quantum]\n")


def test_entry_outside_section():
    with pytest.raises(ParseError):
        parse_spec("kind = maxwell\n")


def test_missing_equals_sign():
    with pytest.raises(ParseError):
        parse_spec("[model]\nkind maxwell\n")


def test_bad_numeric_value():
    with pytest.raises(ParseError):
        parse_spec("[model]\nkind = maxwell\ndimension = four\n")


def test_unknown_model_kind():
    with pytest.raises(SemanticError):
        parse_spec("[model]\nkind = tachyon\ndimension = 4\n")


def test_field_dimension_bounds():
    with pytest.raises(SemanticError):
        parse_spec("[model]\nkind = maxwell\ndimension = 2\n")
    with pytest.raises(SemanticError):
        parse_spec("[model]\nkind = maxwell\ndimension = 7\n")


def test_fixture_length_checked():
    text = "[model]\nkind = maxwell\ndimension = 4\n[fixture]\nkind = plane-wave\nk = 1, 0\n"
    with pytest.raises(SemanticError):
        parse_spec(text)


def test_negative_coupling_rejected():
    text = "[model]\nkind = interacting-multiplet\ndimension = 4\n[params]\nlambda = -1\n"
    with pytest.raises(SemanticError):
        parse_spec(text)


def test_unknown_check_name_rejected():
    text = "[model]\nkind = maxwell\ndimension = 4\n[suite]\nchecks = not-a-check\n"
    with pytest.raises(SemanticError):
        parse_spec(text)


def test_duplicated_check_name_rejected():
    # the repeat used to be dropped: one check ran, the echo listed it twice
    text = "[model]\nkind = maxwell\ndimension = 4\n[suite]\nchecks = stress-conservation, stress-conservation\n"
    with pytest.raises(SemanticError, match="check 'stress-conservation' is listed twice"):
        parse_spec(text)


def test_empty_selection():
    # a run of zero checks would report overall PASS having verified nothing
    for value in ("none", ",", " , ,"):
        text = f"[model]\nkind = maxwell\ndimension = 4\n[suite]\nchecks = {value}\n"
        with pytest.raises(SemanticError):
            parse_spec(text)


def test_named_selection():
    text = "[model]\nkind = maxwell\ndimension = 4\n[suite]\nchecks = killing-equation, map-composition\n"
    assert parse_spec(text).checks == ["killing-equation", "map-composition"]


def test_tolerance_override():
    text = "[model]\nkind = maxwell\ndimension = 4\n[tolerances]\nidentity = 1e-8\n"
    spec = parse_spec(text)
    assert spec.tolerances["identity"] == 1e-8
    assert spec.tolerances["exact"] == DEFAULT_TOLERANCES["exact"]


def test_mechanics_section_only_for_mechanics():
    text = "[model]\nkind = maxwell\ndimension = 4\n[mechanics]\nstep = 0.1\n"
    with pytest.raises(SemanticError):
        parse_spec(text)


def test_echo_is_deterministic():
    spec = parse_spec(MINIMAL_MAXWELL)
    assert spec.echo() == parse_spec(MINIMAL_MAXWELL).echo()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n[model]\n# note\nkind = maxwell\ndimension = 4\n"
    assert parse_spec(text).kind == "maxwell"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ParseError) as err:
        parse_spec(f"[model]\nkind = maxwell\ndimension = 4\n[tolerances]\nexact = {value}\n")
    assert err.value.line == 5
    with pytest.raises(ParseError):
        parse_spec(f"[model]\nkind = maxwell\ndimension = 4\n[fixture]\nk = 1, {value}, 0, 1\n")


@pytest.mark.parametrize("section, key", [("fixture", "k"), ("fixture", "amplitude"),
                                          ("mechanics", "q0"), ("mechanics", "p0")])
@pytest.mark.parametrize("value", [",", " , , "])
def test_number_list_without_a_number_is_parse_error(section, key, value):
    kind = "mechanics" if section == "mechanics" else "maxwell"
    dim = 1 if kind == "mechanics" else 4
    text = f"[model]\nkind = {kind}\ndimension = {dim}\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == 5


def test_p0_without_q0_rejected():
    text = "[model]\nkind = mechanics\ndimension = 1\n[mechanics]\np0 = 5.0, 5.0\n"
    with pytest.raises(SemanticError):
        parse_spec(text)
    spec = parse_spec(text.replace("p0", "q0"))
    assert spec.mechanics == {"q0": [5.0, 5.0]}


@pytest.mark.parametrize("mechanics, steps", [("t-end = 0.0004", 0), ("t-end = 0.0006", 1),
                                              ("step = 20.0", 0), ("t-end = 0.0\nstep = 1.0", 0)])
def test_a_trajectory_takes_at_least_one_step(mechanics, steps):
    # t-end and step default to 10.0 and 1e-3
    text = f"[model]\nkind = mechanics\ndimension = 1\n[mechanics]\n{mechanics}\n"
    if steps:
        parse_spec(text)
        return
    with pytest.raises(SemanticError):
        parse_spec(text)


@pytest.mark.parametrize("mechanics, ok", [("t-end = 5000000.0\nstep = 0.5", True),
                                           ("t-end = 5000000.5\nstep = 0.5", False),
                                           ("step = 1e-300", False),
                                           ("t-end = 1e300\nstep = 1e-300", False)])
def test_a_trajectory_takes_at_most_max_steps(mechanics, ok):
    # MAX_STEPS = 10**7; 1e300 / 1e-300 overflows to inf, which used to
    # escape the parser as an OverflowError from round()
    text = f"[model]\nkind = mechanics\ndimension = 1\n[mechanics]\n{mechanics}\n"
    if ok:
        parse_spec(text)
        return
    with pytest.raises(SemanticError, match="at most 10000000"):
        parse_spec(text)


_FLOAT_LISTS = [(section, key) for section, keys in _SCHEMA.items()
                for key, kind in keys.items() if kind == "floats"]
_NUMBER = st.floats(1e-3, 2.0).map(repr)
# a value of each schema type; number lists include some without a number
_TYPED = {
    "int": st.integers(1, 6).map(str),
    "float": _NUMBER,
    "floats": st.one_of(
        st.lists(_NUMBER, min_size=1, max_size=4).map(", ".join), st.sampled_from([",", " , ,"])
    ),
    "str": st.sampled_from(["all", "none", "linear", "quadratic", "plane-wave", "mech-so21"]),
}
_ARBITRARY = st.one_of(
    st.sampled_from(["1e400", "nan", "-1", "0", "1, 2", "1,,2"]), st.text(max_size=12)
)
# each kind at a dimension it supports, so that enough specs parse for the
# success branch to run
_MODELS = st.sampled_from([
    ("maxwell", "4"), ("general-scalar", "5"), ("interacting-multiplet", "6"),
    ("dual-scalar-3", "3"), ("mechanics", "1"),
])


def _block(section, entries):
    """``[section]`` and a line per (key, value strategy); one value in four
    is arbitrary text instead."""
    values = (st.integers(0, 3).flatmap(lambda i, v=v: _ARBITRARY if i == 3 else v)
              for _, v in entries)
    return st.tuples(*values).map(
        lambda vs: [f"[{section}]"] + [f"{k} = {v}" for (k, _), v in zip(entries, vs)]
    )


def _any_block(section):
    keys = st.lists(st.sampled_from(sorted(_SCHEMA[section])), unique=True)
    return keys.flatmap(
        lambda names: _block(section, [(k, _TYPED[_SCHEMA[section][k]]) for k in names])
    )


# [model] comes first, then other sections in any order
_SPEC_TEXT = st.tuples(
    _MODELS.flatmap(lambda m: _block("model", [("kind", st.just(m[0])),
                                               ("dimension", st.just(m[1]))])),
    st.lists(st.sampled_from(sorted(set(_SCHEMA) - {"model"})), unique=True).flatmap(
        lambda sections: st.tuples(*map(_any_block, sections))
    ),
).map(lambda pair: [pair[0], *pair[1]])


@given(_SPEC_TEXT, st.sampled_from(["\n", "\n\n# note\n"]))
@settings(max_examples=300, deadline=None)
def test_parse_spec_returns_a_spec_or_a_spec_error(blocks, sep):
    text = sep.join(line for block in blocks for line in block)
    try:
        spec = parse_spec(text)
    except (ParseError, SemanticError):
        return
    assert isinstance(spec, ModelSpec)
    sections = {"fixture": spec.fixture, "mechanics": spec.mechanics}
    for section, key in _FLOAT_LISTS:
        if key in sections[section]:
            assert sections[section][key], (section, key)


@pytest.mark.parametrize("fixture", ["kind = planewave\nk = 1, 0, 0, 1\n", "k = 1, 0, 0, 1\n", ""])
def test_fixture_kind_must_be_plane_wave(fixture):
    with pytest.raises(SemanticError, match="plane-wave"):
        parse_spec(f"[model]\nkind = maxwell\ndimension = 4\n[fixture]\n{fixture}")


MECH = "[model]\nkind = mechanics\ndimension = 1\n"


def test_components_follow_q0():
    assert parse_spec(MECH + "[mechanics]\nq0 = 1.0, 2.0, 3.0\n").components == 3
    assert parse_spec(MECH + "[params]\ncomponents = 2\n[mechanics]\nq0 = 1.0, 2.0\n").components == 2
    assert parse_spec(MECH + "[params]\ncomponents = 4\n").components == 4
    assert parse_spec(MECH).components == 1
    with pytest.raises(SemanticError, match="q0"):
        parse_spec(MECH + "[params]\ncomponents = 3\n[mechanics]\nq0 = 1.0, 2.0\n")
