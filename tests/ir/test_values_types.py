"""Value and type unit tests."""

import pytest

from repro.ir import BOOL, FLOAT, INT, PTR, Const, Var, as_value
from repro.ir.types import BY_NAME, join


def test_type_singletons():
    assert BY_NAME["int"] is INT
    assert BY_NAME["float"] is FLOAT
    assert INT.is_numeric and FLOAT.is_numeric
    assert not BOOL.is_numeric and not PTR.is_numeric


def test_type_join():
    assert join(INT, FLOAT) is FLOAT
    assert join(INT, INT) is INT
    assert join(PTR, INT) is PTR
    assert join(FLOAT, PTR) is FLOAT


def test_const_inference_and_equality():
    assert Const(3).type is INT
    assert Const(1.5).type is FLOAT
    assert Const(True).type is BOOL
    assert Const(3) == Const(3)
    assert Const(3) != Const(3.0)
    assert hash(Const(7)) == hash(Const(7))


def test_var_identity_and_versions():
    assert Var("x") == Var("x")
    assert Var("x") != Var("y")
    versioned = Var("x").with_version(3)
    assert versioned.name == "x.3"
    assert versioned.base == "x"
    assert Var("x.3").base == "x"


def test_as_value_coercion():
    assert as_value(5) == Const(5)
    assert as_value(Var("a")) == Var("a")
    with pytest.raises(TypeError):
        as_value("nope")


def test_config_validation():
    from repro.core import SptConfig

    with pytest.raises(ValueError):
        SptConfig(prefork_fraction=1.5)
    with pytest.raises(ValueError):
        SptConfig(min_body_size=100, max_body_size=10)
    with pytest.raises(ValueError):
        SptConfig(max_unroll_factor=0)
    with pytest.raises(ValueError):
        SptConfig(cycles_per_op=0.0)
    config = SptConfig().with_overrides(cost_fraction=0.3)
    assert config.cost_fraction == 0.3
