import pytest

from confsym.errors import ParseError, SemanticError
from confsym.modelspec import DEFAULT_TOLERANCES, parse_spec

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
    text = "[model]\nkind = maxwell\ndimension = 4\n[fixture]\nk = 1, 0\n"
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


def test_empty_selection():
    text = "[model]\nkind = maxwell\ndimension = 4\n[suite]\nchecks = none\n"
    assert parse_spec(text).checks == []


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
