"""The general routes of the scalar checks, kept as the reference that each
exact-type fast path must match: ``harness._integral``, ``_real`` and
``_site``, ``policy.integer``, ``LatticeSpec.site``, ``ModeSet._digits``
and ``ModeSet.phase_at`` as they read before their fast paths.

Every value goes through the ABC checks (``numbers.Real``), through
``operator.index``, ``np.unravel_index`` or ``np.dot``; none tests an exact
type first.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from causalprobe.harness import ScenarioError


def integral(what: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ScenarioError(f"{what} needs integer values, got {value!r}")
    return int(value)


def real(what: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ScenarioError(f"{what} needs finite numbers, got {value!r}")
    return float(value)


def site_param(what: str, value):
    if isinstance(value, (list, tuple)):
        return tuple(integral(what, v) for v in value)
    return integral(what, value)


def integer(value, what: str) -> int:
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def lattice_site(lattice, x, what: str = "site") -> tuple:
    coords = tuple(x) if isinstance(x, (tuple, list, np.ndarray)) else (x,)
    if len(coords) != lattice.dim:
        raise ValueError(f"{what} {x!r} does not match dimension {lattice.dim}")
    try:
        return tuple([integer(c, what) % lattice.n_sites for c in coords])
    except ValueError:
        raise ValueError(f"{what} needs integer coordinates, got {x!r}") from None


def digits(modes, index) -> tuple:
    index = integer(index, "mode index")
    if not 0 <= index < modes.n_modes:
        raise ValueError(f"mode index {index} out of range")
    return np.unravel_index(index, (modes.lattice.n_sites,) * modes.lattice.dim)


def phase_at(modes, index, site) -> float:
    x = np.asarray(lattice_site(modes.lattice, site), dtype=float) * modes.lattice.spacing
    return float(np.dot(modes._k(digits(modes, index)), x))
