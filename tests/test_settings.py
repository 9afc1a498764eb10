"""The one rule for numeric settings: ``errors.check_setting``."""

import math

import numpy as np
import pytest

from scribsup.errors import InvalidConfigError, ScribsupError, check_setting


@pytest.mark.parametrize("value, kwargs", [
    (0.0, {}), (5, {}), (1e300, {}),
    (0.5, {"high": 1.0, "open_low": True}), (0.999, {"high": 1.0, "open_low": True}),
    (2, {"integer": True}), (np.int64(3), {"integer": True}), (np.uint8(2), {"integer": True}),
    (np.float32(0.25), {}), (np.float64(7.0), {}), (10**400, {"integer": True}),
], ids=["closed_low", "int", "huge_float", "open_interval", "just_below_high", "integer",
        "numpy_int64", "numpy_uint8", "numpy_float32", "numpy_float64", "huge_int"])
def test_accepts_finite_numbers_in_range(value, kwargs):
    check_setting("x", value, 0, **kwargs)


@pytest.mark.parametrize("value, kwargs", [
    (-1e-9, {}), (0, {"open_low": True}), (0.0, {"open_low": True}), (1.0, {"high": 1.0}),
    (math.nan, {}), (math.inf, {}), (-math.inf, {}), (np.float32("nan"), {}),
    (True, {}), (False, {}), (np.bool_(True), {}),
    ("1", {}), (None, {}), ([1], {}), (1 + 0j, {}),
    (2.0, {"integer": True}), (2.5, {"integer": True}), (np.float64(2), {"integer": True}),
], ids=["below_closed_low", "int_at_open_low", "float_at_open_low", "at_high", "nan", "inf",
        "-inf", "numpy_nan", "true", "false", "numpy_bool", "string", "none", "list", "complex",
        "integral_float", "fractional", "numpy_float_for_integer"])
def test_refuses_everything_else_naming_the_setting(value, kwargs):
    with pytest.raises(InvalidConfigError, match="the_setting") as info:
        check_setting("the_setting", value, 0, **kwargs)
    assert isinstance(info.value, ValueError) and isinstance(info.value, ScribsupError)


def test_negative_infinity_is_refused_even_when_the_low_bound_is():
    with pytest.raises(InvalidConfigError):
        check_setting("x", -math.inf, -math.inf)


def test_message_states_the_range():
    with pytest.raises(InvalidConfigError, match=r"edge_threshold must be a finite number > 0 "
                                                 r"and < 1, got 1\.5"):
        check_setting("edge_threshold", 1.5, 0, 1, open_low=True)
    with pytest.raises(InvalidConfigError, match=r"k must be an integer >= 1, got 0"):
        check_setting("k", 0, 1, integer=True)
