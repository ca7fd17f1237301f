"""Closed-form two-photon outcome statistics, from the standard library alone.

The outcome triple and the |2,0> rate of the 50/50 mixture of |theta> and
|theta + pi/2>, with the variants and the input checks that the other
modules share.  No numpy and no oracle module (fock, amplifier,
statistics) is imported, so the closed forms stay independent of the
projection pipeline that checks them.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass

# Tolerance of exact linear-algebra identities.
ATOL_EXACT = 1e-12
# The largest count (n, pairs_per_bit, steps): numpy's int64 maximum; no run near it can finish.
_MAX_COUNT = 2**63 - 1


class Variant(enum.Enum):
    DISTINGUISHABLE = "distinguishable"
    IDENTICAL = "identical"


def _check_variant(variant) -> None:
    """Reject anything but a Variant member, a string such as "identical" included."""
    if not isinstance(variant, Variant):
        raise ValueError(f"variant must be a Variant, got {variant!r}")


@dataclass(frozen=True)
class ProbabilityTriple:
    """Probabilities of (|2,0>, |1,1>, |0,2>) given a two-photon outcome."""

    p20: float
    p11: float
    p02: float

    def __post_init__(self):
        total = self.p20 + self.p11 + self.p02
        if not (abs(total - 1.0) < 1e-9 and min(self.p20, self.p11, self.p02) > -ATOL_EXACT):
            raise ValueError(f"not a probability triple: {self}")


def differential_sigma_20(theta: float) -> float:
    """Differential rate of the |2,0> outcome, (1 + cos^2 2theta)/2.

    Units of lambda^2 dOmega, averaged over the orthogonal-pair mixture.
    """
    return _closed_form_row(_check_angle(theta), Variant.DISTINGUISHABLE)[3]  # either variant's sigma20


def _real(rule: str, value) -> float:
    """The double that a real or a Decimal converts to, once, by float(); anything else is ValueError(rule)."""
    if type(value) is float:  # an exact float skips the ABC checks, as in _is_int
        return value
    # A Decimal is a Number outside the Complex tower; a bool is rejected, as for integers.
    ok = isinstance(value, numbers.Real) or isinstance(value, numbers.Number) and not isinstance(value, numbers.Complex)
    if ok and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int or Fraction beyond the doubles
            raise ValueError(f"{rule}, got a number too large for a double") from None
        except ValueError:  # Decimal("sNaN")
            pass
    raise ValueError(f"{rule}, got {value!r}")


def _check_angle(theta: float) -> float:
    """theta as a Python float; NaN and |theta| > 2^20, where theta + pi/2 rounds off orthogonality, are rejected."""
    theta = _real("theta must satisfy |theta| <= 2**20 (period pi)", theta)
    if not abs(theta) <= 2.0**20:
        raise ValueError(f"theta must satisfy |theta| <= 2**20 (period pi), got {theta}")
    return theta


def _is_int(value) -> bool:
    """A Python or numpy integer (numpy registers np.integer as Integral); a bool is not one."""
    # An exact int skips the Integral check, ~0.6 us per int, of which transmit makes four per bit.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject anything but a Python or numpy integer >= minimum, and <= maximum if one is given."""
    if not _is_int(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}")


def closed_form_probs(theta: float, variant: Variant) -> ProbabilityTriple:
    """Closed-form outcome triple for the orthogonal-pair mixture."""
    _check_variant(variant)
    return ProbabilityTriple(*_closed_form_row(_check_angle(theta), variant)[:3])


def _closed_form_row(theta: float, variant: Variant):
    """(p20, p11, p02, sigma20) at theta, unchecked: the one home of the closed forms."""
    # math on Python floats gives numpy's scalar doubles; ** 2 is C pow, and x*x can differ.
    c2 = math.cos(2.0 * theta) ** 2
    s2 = math.sin(2.0 * theta) ** 2
    if variant is Variant.DISTINGUISHABLE:
        return (1.0 + c2) / 3.0, 1.0 / 3.0, s2 / 3.0, 0.5 * (1.0 + c2)
    return 2.0 * c2 / 3.0, 1.0 / 3.0, 2.0 * s2 / 3.0, 0.5 * (1.0 + c2)


def sweep(theta_min: float, theta_max: float, steps: int, variant: Variant):
    """Uniform angle grid of closed-form probabilities and differential rates.

    Checks its arguments at the call and returns an iterator of flat float
    rows (theta, p20, p11, p02, sigma20), endpoints inclusive, ordered by
    theta, each computed as it is read.  Interior angles lie between the
    checked ends, so rows are not checked again.
    """
    _check_int("steps", steps, 2, _MAX_COUNT)
    _check_variant(variant)
    theta_min, theta_max = _check_angle(theta_min), _check_angle(theta_max)  # bounded ends keep the grid finite
    if not theta_min < theta_max:
        raise ValueError("theta_min must be < theta_max")
    # np.linspace's values, one at a time, as Python floats: i * step + theta_min,
    # or i / div * delta + theta_min where step underflows to 0, then theta_max.
    delta, div = theta_max - theta_min, int(steps) - 1
    step = delta / div
    grid = (i * step + theta_min if step else i / div * delta + theta_min for i in range(div))
    return ((theta, *_closed_form_row(theta, variant)) for theta in itertools.chain(grid, [theta_max]))
