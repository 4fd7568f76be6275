"""Inequality checkers tying simulation results to proven bounds."""

import math
from dataclasses import dataclass, field

from . import linalg
from .errors import BoundViolationError, ValidationError
from .states import (
    DensityMatrix,
    Ensemble,
    _holevo_quantity,
    ensemble_density,
    holevo_quantity,
    von_neumann_entropy,
)

ENVELOPE_TOL = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """lhs <= rhs within ``linalg.ATOL``; ``satisfied`` and ``slack`` (rhs - lhs) are derived.

    A report that is not applicable counts as satisfied.
    """

    name: str
    lhs: float
    rhs: float
    applicable: bool = True
    satisfied: bool = field(init=False)
    slack: float = field(init=False)

    def __post_init__(self):
        lhs, rhs = float(self.lhs), float(self.rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "satisfied", lhs <= rhs + linalg.ATOL or not self.applicable)
        object.__setattr__(self, "slack", rhs - lhs)


def enforce(reports) -> None:
    """The one enforcement rule: an applicable, violated bound raises BoundViolationError."""
    for r in reports:
        if r.applicable and not r.satisfied:
            raise BoundViolationError(f"bound {r.name} violated: lhs={r.lhs} rhs={r.rhs}")


def _audenaert(t: float, d: int) -> float:
    """Audenaert's sharp entropy continuity bound g_d(t) (J. Phys. A 40, 8127 (2007)).

    t log2(d - 1) + h(t) for t <= 1 - 1/d, else log2 d, with h the binary
    entropy: concave and nondecreasing in t, for an int d of any size.
    """
    if t > 1 - 1 / d:  # int division: d may pass the float range
        return math.log2(d)
    return t * math.log2(max(d - 1, 1)) - sum(x * math.log2(x) for x in (t, 1.0 - t) if x > 0.0)


def holevo_bound_check(e: Ensemble, measured_rate: float, fidelity: float = 1.0,
                       signals: int = 1) -> BoundReport:
    """Check I_LH(e) <= R + 2 g_D(sqrt(1 - F)) / n, the finite-n converse.

    R is the measured rate (qubits/signal) of a protocol whose n-signal
    sequences, of dimension D = e.dim ** n, are reproduced with average
    fidelity at least F; g_D is ``_audenaert``.  It holds at every F: the
    decoded states' Holevo quantity is at most nR, and the trace distance of
    the sequence states and of their average to the decoded ones is at most
    sqrt(1 - F) (Fuchs & van de Graaf, IEEE TIT 45, 1216 (1999)), so each
    entropy term moves by at most g_D of it.  F = 1 gives rhs = R.
    """
    g = _audenaert(math.sqrt(max(1.0 - fidelity, 0.0)), e.dim ** signals)
    return BoundReport("holevo_rate", holevo_quantity(e), measured_rate + 2.0 * g / signals)


def entropy_continuity_check(
    rho: DensityMatrix, rho_prime: DensityMatrix
) -> BoundReport:
    """|S(rho) - S(rho')| <= ``_audenaert``(T, D) at every T.

    T = ||rho - rho'||_1 / 2 is the trace distance and D the dimension.
    """
    if rho.dim != rho_prime.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {rho_prime.dim}")
    t = linalg.trace_norm(rho.matrix - rho_prime.matrix) / 2.0
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(rho_prime))
    return BoundReport("entropy_continuity", lhs, _audenaert(t, rho.dim))


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
    return BoundReport(
        f"entropy_envelope(I_LH={lower:.9g},S={upper:.9g},best={best_entropy:.9g})",
        violation,
        ENVELOPE_TOL,
    )
