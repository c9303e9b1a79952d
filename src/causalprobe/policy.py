"""Global numeric policy: every tolerance used by the library lives here.

Structural checks (projector algebra, completeness, scheme validation) are
held to ``structural_tol``; quantities that are exact in real arithmetic
(basis-state overlaps, closed-form rational values) to ``exact_tol``.
Truncated-basis constructions must keep the norm outside the truncation
below ``tail_tol`` or refuse to proceed (``checked_tail``).  Sizes, cutoffs
and indices pass one integer rule (``integer``): a plain int passes an
exact-type test first; numpy scalars and every other type take the general
route, which alone refuses.  A size whose float64 array numpy cannot address
is refused by ``addressable``: numpy 2.4's ``np.arange(2**63)`` is an empty
array, which would sum to a silent zero.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, asdict

import numpy as np


class TruncationError(RuntimeError):
    """A truncated-basis construction lost more norm than the policy allows."""


@dataclass(frozen=True)
class NumericPolicy:
    structural_tol: float = 1e-10
    exact_tol: float = 1e-12
    zero_probability: float = 1e-14
    tail_tol: float = 1e-8

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_POLICY = NumericPolicy()


def integer(value, what: str) -> int:
    """value as a plain int: the rule for every size, cutoff and index.  A
    bool, float or string is refused with a ValueError naming ``what``."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


# the most float64 values one numpy array can address: n * 8 bytes must fit in intp
MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


def addressable(count: int, what: str) -> None:
    """Refuse, with a ValueError naming ``what`` and the limit, a count of
    float64 values past what one numpy array can address."""
    if count > MAX_FLOATS:
        raise ValueError(f"{what} must be at most {MAX_FLOATS}, the float64 values one "
                         f"numpy array can address, got {count}")


def checked_tail(norm: float, what: str) -> float:
    """1 - norm, the weight ``what`` leaves outside its truncation, clamped at 0;
    refuses a norm not finite or off 1 by over ``tail_tol`` (above 1: bad amplitudes)."""
    if not abs(1.0 - norm) <= DEFAULT_POLICY.tail_tol:  # false for NaN too
        raise TruncationError(f"{what} leaves tail {1.0 - norm:.3e}, outside"
                              f" +-{DEFAULT_POLICY.tail_tol:.0e}")
    return max(0.0, 1.0 - norm)
