"""The record classes that are plain classes with a hand-written ``__init__``.

Each keeps the constructor it had as a dataclass: its parameters in order,
positional or by keyword, with the same defaults and validation.  One that
was frozen stays read-only: setting or deleting an attribute raises
AttributeError.  A ``ModelSpec`` compares by value and gets fresh dicts;
every other record compares by identity.
"""

import inspect
import math

import numpy as np
import pytest

from confsym.errors import UnsupportedDimension
from confsym.modelspec import DEFAULT_TOLERANCES, ModelSpec
from confsym.mechanics import MechParams, MechState, Trajectory
from confsym.noether import DualScalarModel, GeneralScalarModel, MaxwellModel, MultipletModel, VirialInfo
from confsym.suites import CheckReport, RunReport

REQUIRED = object()


def _profile(z):
    return z


# Per class, its parameters in order as (name, value an omitted parameter
# leaves, value passed in the tests); REQUIRED marks one with no default.
RECORDS = {
    MechParams: [("n", REQUIRED, 2), ("coupling", 0.0, 0.5)],
    MechState: [("t", REQUIRED, np.zeros(())), ("q", REQUIRED, np.ones(2)), ("p", REQUIRED, np.zeros(2))],
    Trajectory: [("times", REQUIRED, np.zeros(1)), ("q", REQUIRED, np.ones((1, 2))),
                 ("p", REQUIRED, np.zeros((1, 2))), ("params", REQUIRED, MechParams(2))],
    ModelSpec: [("kind", REQUIRED, "maxwell"), ("dimension", REQUIRED, 4), ("coupling", 0.0, 0.25),
                ("components", 1, 2), ("profile", "linear", "quadratic"), ("l0", 0.0, 1.5), ("l1", 0.5, 2.5),
                ("fixture", {}, {"kind": "plane-wave"}), ("mechanics", {}, {"step": 0.1}),
                ("checks", None, ["map-composition"]), ("seed", 42, 7),
                ("tolerances", DEFAULT_TOLERANCES, {"exact": 1e-9})],
    MaxwellModel: [("dim", REQUIRED, 4)],
    MultipletModel: [("dim", REQUIRED, 4), ("n_comp", REQUIRED, 2), ("coupling", 0.0, 0.3)],
    GeneralScalarModel: [("dim", REQUIRED, 5), ("profile", REQUIRED, _profile),
                         ("profile_prime", REQUIRED, _profile), ("linear", False, True)],
    DualScalarModel: [("dim", 3, 3)],
    VirialInfo: [("value", REQUIRED, np.zeros(3)), ("is_total_divergence", REQUIRED, True),
                 ("potential", None, _profile)],
    CheckReport: [("name", REQUIRED, "demo"), ("dim", REQUIRED, 4), ("samples", REQUIRED, 10),
                  ("max_residual", REQUIRED, 1e-13), ("tolerance", REQUIRED, 1e-12), ("seed", REQUIRED, 42),
                  ("error", None, "boom"), ("wall_ms", None, 1.5)],
    RunReport: [("version", REQUIRED, "0.1.0"), ("spec_echo", REQUIRED, {"kind": "maxwell"}),
                ("checks", REQUIRED, []), ("seed", REQUIRED, 42), ("wall_time", None, 0.5)],
}
FROZEN = (MechParams, MechState, Trajectory, MaxwellModel, MultipletModel, GeneralScalarModel, DualScalarModel,
          VirialInfo)
BY_IDENTITY = [cls for cls in RECORDS if cls is not ModelSpec]


def _values(cls):
    return [value for _, _, value in RECORDS[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_keeps_its_parameters_in_order(cls):
    assert list(inspect.signature(cls).parameters) == [name for name, _, _ in RECORDS[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_arguments_bind_the_same_attributes(cls):
    names = [name for name, _, _ in RECORDS[cls]]
    values = _values(cls)
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert all(getattr(record, name) is value for name, value in zip(names, values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_omitted_parameters_take_their_defaults(cls):
    required = [value for _, default, value in RECORDS[cls] if default is REQUIRED]
    record = cls(*required)
    for name, default, _ in RECORDS[cls]:
        if default is not REQUIRED:
            assert getattr(record, name) == default and type(getattr(record, name)) is type(default), name


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_formerly_frozen_record_is_read_only(cls):
    record = cls(*_values(cls))
    name, _, value = RECORDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value and not hasattr(record, "extra")


@pytest.mark.parametrize("cls", [ModelSpec, CheckReport, RunReport], ids=lambda cls: cls.__name__)
def test_a_mutable_record_stays_mutable(cls):
    record = cls(*_values(cls))
    name = RECORDS[cls][-1][0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=lambda cls: cls.__name__)
def test_records_compare_by_identity(cls):
    record = cls(*_values(cls))
    assert record == record and record != cls(*_values(cls))


def test_model_specs_compare_by_value():
    assert ModelSpec(*_values(ModelSpec)) == ModelSpec(*_values(ModelSpec))
    assert ModelSpec("maxwell", 4) == ModelSpec(kind="maxwell", dimension=4)
    assert ModelSpec("maxwell", 4) != ModelSpec("maxwell", 4, seed=43)
    assert ModelSpec("maxwell", 4) != ModelSpec("maxwell", 4, tolerances={"exact": 1e-12})
    assert ModelSpec("maxwell", 4) != "maxwell"
    with pytest.raises(TypeError):
        hash(ModelSpec("maxwell", 4))


def test_model_specs_share_no_dict():
    first, second = ModelSpec("maxwell", 4), ModelSpec("maxwell", 4)
    for name in ("fixture", "mechanics", "tolerances"):
        assert getattr(first, name) is not getattr(second, name), name
    assert first.tolerances is not DEFAULT_TOLERANCES
    first.tolerances["exact"] = 1.0
    first.fixture["kind"] = "plane-wave"
    assert second.tolerances == DEFAULT_TOLERANCES and second.fixture == {}
    assert DEFAULT_TOLERANCES["exact"] == 1e-12


def test_model_spec_seed_default_is_a_class_attribute():
    # cli offers it as the --seed default
    assert ModelSpec.seed == 42 == ModelSpec("maxwell", 4).seed


@pytest.mark.parametrize("make, error", [
    (lambda: MechParams(0), ValueError),
    (lambda: MechParams(1, -0.5), ValueError),
    (lambda: MechParams(1, math.inf), ValueError),
    (lambda: MechParams(1, math.nan), ValueError),
    (lambda: MultipletModel(2, 1), UnsupportedDimension),
    (lambda: MultipletModel(4, 1, -0.1), ValueError),
    (lambda: GeneralScalarModel(2, _profile, _profile), UnsupportedDimension),
    (lambda: DualScalarModel(4), UnsupportedDimension),
])
def test_constructors_keep_their_validation(make, error):
    with pytest.raises(error):
        make()
