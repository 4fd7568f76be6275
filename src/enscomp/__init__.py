"""Visible compression of mixed-state quantum ensembles.

Evaluate fidelity/entropy functionals, minimize ensemble entropy over
extension assignments, and simulate typical-subspace compression protocols
at finite block length.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    ancilla_cap,
    entropy_continuity_check,
    envelope_check,
    holevo_bound_check,
)
from .errors import (
    BoundViolationError,
    DimensionGuardError,
    EnscompError,
    EnsembleParseError,
    ValidationError,
)
from .extopt import (
    ExtensionAssignment,
    MinimizeResult,
    OptimizerConfig,
    assignment_entropy,
    entropy_gradient,
    extended_ensemble,
    minimize_extension_entropy,
    trivial_assignment,
    verify_extension,
)
from .fidelity import (
    PureState,
    canonical_purification,
    fidelity,
    lemma_extension,
    optimal_purification,
)
from .linalg import (
    hermitian_eig,
    partial_trace,
    trace_norm,
)
from .protocol import (
    ProtocolResult,
    SequenceRecord,
    TypicalSubspace,
    extension_protocol,
    js_protocol,
    rate_of,
    typical_subspace,
)
from .states import (
    DensityMatrix,
    Ensemble,
    ensemble_density,
    holevo_quantity,
    product_ensemble,
    support_dim,
    von_neumann_entropy,
)
