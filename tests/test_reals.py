"""One rule for every real argument, at every entry point that takes one.

A real (a Python or numpy int or float, a Fraction) or a Decimal is
converted once with float(): the call gives exactly the result of that
double, with the same Python-float fields.  A bool, a complex, any other
object, a number with no double, and a double outside the entry point's
domain raise ValueError naming the entry point's own rule.  A guard
collects every float-annotated input of the package, so that a new real
input joins SITES or the short list of unchecked oracle and output types.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import stimamp
from stimamp.amplifier import EmissionConstants
from stimamp.closed_form import Variant, closed_form_probs, differential_sigma_20, sweep
from stimamp.kinematics import Event, LoopConfig, boost, violation_threshold
from stimamp.protocol import ProtocolConfig, linearity_gap, reduced_density
from stimamp.statistics import first_principles_probs, monte_carlo_probs, outcome_table

ANGLE = "theta must satisfy |theta| <= 2**20 (period pi)"
# Each real input: the rule its ValueError starts with, and a call that reads the value there.
SITES = {
    "closed_form_probs.theta": (ANGLE, lambda x: closed_form_probs(x, Variant.IDENTICAL)),
    "differential_sigma_20.theta": (ANGLE, differential_sigma_20),
    "sweep.theta_min": (ANGLE, lambda x: list(sweep(x, 2.0**20, 3, Variant.IDENTICAL))),
    "sweep.theta_max": (ANGLE, lambda x: list(sweep(-(2.0**20), x, 3, Variant.DISTINGUISHABLE))),
    "outcome_table.theta": (ANGLE, lambda x: outcome_table(x, Variant.IDENTICAL)),
    "first_principles_probs.theta": (ANGLE, lambda x: first_principles_probs(x, Variant.DISTINGUISHABLE)),
    "monte_carlo_probs.theta": (ANGLE, lambda x: monte_carlo_probs(x, Variant.IDENTICAL, 10, 1)),
    "reduced_density.theta": (ANGLE, reduced_density),
    "linearity_gap.theta": (ANGLE, lambda x: linearity_gap(x, Variant.IDENTICAL)),
    "ProtocolConfig.theta_bit0": (ANGLE, lambda x: ProtocolConfig(20, theta_bit0=x)),
    "ProtocolConfig.theta_bit1": (ANGLE, lambda x: ProtocolConfig(20, theta_bit0=1.0, theta_bit1=x)),
    "LoopConfig.u": ("u must be positive and finite", lambda x: LoopConfig(u=x, beta=0.25)),
    "LoopConfig.beta": ("beta must be in [0, 1)", lambda x: LoopConfig(u=2.0, beta=x)),
    "LoopConfig.L": ("L must be positive and finite", lambda x: LoopConfig(u=2.0, beta=0.25, L=x)),
    "LoopConfig.ell": ("ell must be non-negative and finite", lambda x: LoopConfig(u=2.0, beta=0.25, ell=x)),
    "violation_threshold.u": ("u must be positive and finite", violation_threshold),
    **{
        f"EmissionConstants.{name}": (
            f"{name} must be positive and finite",
            lambda x, name=name: EmissionConstants(**{name: x}),
        )
        for name in ("omega", "mu", "hbar", "c")
    },
    "boost.beta": ("|beta| must be < 1", lambda x: boost(Event(1.0, 2.0), x)),
}
# Float inputs that are not checked: oracles fed by checked callers, and an output type.
UNCHECKED = {
    "scatter",
    "branch_weights",
    "single_photon_state",
    "rotation2",
    "two_photon_rotation",
    "ProbabilityTriple",
}

# 0.5 lies inside every site's domain; the other values fall inside some and outside others.
REALS = {
    "int": 3,
    "int-0": 0,
    "int-10**400": 10**400,
    "int--10**400": -(10**400),
    "float": 0.5,
    "float-nan": float("nan"),
    "float16": np.float16(0.5),
    "float32": np.float32(0.3),
    "float64": np.float64(0.7),
    "longdouble": np.longdouble(1) / 3,  # not a double: only its float() is
    "int8": np.int8(3),
    "uint64": np.uint64(3),
    "Decimal": Decimal("0.5"),
    "Decimal-third": Decimal(1) / 3,
    "Decimal-NaN": Decimal("NaN"),
    "Decimal-sNaN": Decimal("sNaN"),
    "Decimal-1e400": Decimal("1e400"),
    "Decimal--1e400": Decimal("-1e400"),
    "Fraction": Fraction(1, 3),
    "Fraction-10**400": Fraction(10**400),
}
NOT_REALS = {
    "bool": True,
    "bool-False": False,
    "np.bool_": np.True_,
    "complex": complex(0.5),
    "np.complex128": np.complex128(0.5),
    "str": "0.5",
    "None": None,
}


def leaves(result):
    """The reprs of a result's scalars, so that a float16, a numpy scalar or a -0.0 differs from a Python float."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in leaves(item)]
    if isinstance(result, np.ndarray):
        return [repr(result.dtype), *map(repr, result.ravel().tolist())]
    return [repr(result)]


def expected_result(call, value):
    """The call on float(value), or ValueError where value has no double or the double is out of domain."""
    try:
        double = float(value)
    except (OverflowError, ValueError):  # an int or Fraction beyond the doubles; a signaling NaN
        return ValueError
    try:
        return call(double)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("value", REALS.values(), ids=REALS.keys())
@pytest.mark.parametrize("site", SITES)
def test_a_real_gives_the_result_of_its_double(site, value):
    rule, call = SITES[site]
    expected = expected_result(call, value)
    if expected is ValueError:
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}"):
            call(value)
    else:
        assert leaves(call(value)) == leaves(expected)


@pytest.mark.parametrize("site", SITES)
def test_one_half_is_inside_every_domain(site):
    # So a site that rejected every value could not pass the table above.
    SITES[site][1](0.5)


@pytest.mark.parametrize("value", NOT_REALS.values(), ids=NOT_REALS.keys())
@pytest.mark.parametrize("site", SITES)
def test_anything_else_is_a_value_error(site, value):
    rule, call = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(rule)}, got {re.escape(repr(value))}$"):
        call(value)


def real_inputs():
    """'function.parameter' or 'Class.field' for every float input of a public name in the package."""
    for info in pkgutil.iter_modules(stimamp.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI
            continue
        module = importlib.import_module(f"stimamp.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue  # private, or bound from another module
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                yield from (f"{name}.{f.name}" for f in dataclasses.fields(obj) if f.type in ("float", float))
            elif inspect.isfunction(obj):
                params = inspect.signature(obj).parameters.values()
                yield from (f"{name}.{p.name}" for p in params if p.annotation in ("float", float))


def test_every_real_input_is_in_the_table_or_named_unchecked():
    inputs = set(real_inputs())
    checked = {name for name in inputs if name.split(".")[0] not in UNCHECKED}
    assert checked == set(SITES)
    assert {name.split(".")[0] for name in inputs - checked} == UNCHECKED
