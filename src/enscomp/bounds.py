"""Inequality checkers tying simulation results to proven bounds."""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BoundViolationError, ValidationError
from .fidelity import fidelity
from .states import (
    DensityMatrix,
    Ensemble,
    _holevo_quantity,
    ensemble_density,
    holevo_quantity,
    von_neumann_entropy,
)

# The entropy-continuity inequality only holds above this fidelity floor.
CONTINUITY_FIDELITY_FLOOR = 1.0 - 1.0 / 36.0

ENVELOPE_TOL = 1e-6

# A protocol run's rate is checked against the Holevo bound only when its
# average fidelity reaches this threshold (the report name records it).
HOLEVO_FIDELITY_THRESHOLD = 0.99


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    applicable: bool = True

    def __post_init__(self):
        if self.applicable:
            expected = self.lhs <= self.rhs + linalg.ATOL
            if self.satisfied != expected:
                raise ValueError("satisfied flag inconsistent with lhs/rhs")


def _report(name: str, lhs: float, rhs: float, applicable: bool = True) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        satisfied=(lhs <= rhs + linalg.ATOL) if applicable else True,
        slack=rhs - lhs,
        applicable=applicable,
    )


def enforce(reports) -> None:
    """The one enforcement rule: an applicable, violated bound raises BoundViolationError."""
    for r in reports:
        if r.applicable and not r.satisfied:
            raise BoundViolationError(f"bound {r.name} violated: lhs={r.lhs} rhs={r.rhs}")


def holevo_bound_check(e: Ensemble, measured_rate: float) -> BoundReport:
    """Check I_LH(e) <= measured rate (qubits/signal).

    The rate must come from a protocol run whose average fidelity reached at
    least ``HOLEVO_FIDELITY_THRESHOLD``.
    """
    return _report(
        f"holevo_rate(fid>={HOLEVO_FIDELITY_THRESHOLD:g})",
        holevo_quantity(e),
        measured_rate,
    )


def entropy_continuity_check(
    rho: DensityMatrix, rho_prime: DensityMatrix
) -> BoundReport:
    """|S(rho) - S(rho')| <= 2 log2(dim) sqrt(1 - F) + 1, for F > 35/36.

    Below the fidelity floor the inequality does not apply and the report is
    marked not-applicable.  A gap 1 - F at or below RANK_RTOL is rounding of
    F and counts as 0: sqrt() would inflate a gap of 2e-16 to 1.5e-8.
    """
    f = fidelity(rho, rho_prime)
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(rho_prime))
    gap = 1.0 - f
    rhs = 2.0 * np.log2(rho.dim) * np.sqrt(gap if gap > linalg.RANK_RTOL else 0.0) + 1.0
    return _report("entropy_continuity", lhs, rhs, applicable=f > CONTINUITY_FIDELITY_FLOOR)


def ancilla_cap(n: int, dim_q: int) -> int:
    """Sufficient ancilla dimension for n-blocks of a dim_q source: dim_q ** (2 n)."""
    if n < 1 or dim_q < 1:
        raise ValidationError("block length and dimension must be positive")
    return dim_q ** (2 * n)


def envelope_check(e: Ensemble, best_entropy: float) -> BoundReport:
    """I_LH(e) - tol <= best_entropy <= S(ensemble density) + tol.

    Encoded as a single report: lhs is the worst-side violation, rhs the
    tolerance, so the BoundReport invariant still reads lhs <= rhs.
    """
    upper = von_neumann_entropy(ensemble_density(e))
    lower = _holevo_quantity(e, upper)
    violation = max(lower - best_entropy, best_entropy - upper)
    return _report(
        f"entropy_envelope(I_LH={lower:.9g},S={upper:.9g},best={best_entropy:.9g})",
        violation,
        ENVELOPE_TOL,
    )
