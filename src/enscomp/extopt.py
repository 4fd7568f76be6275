"""Numerical minimization of ensemble entropy over extension assignments.

Every extension of a signal state rho (system dim d) with ancilla dimension a
is reachable as follows: take the canonical purification of rho with register
dimension r = min(d, a*q), apply an isometry W: C^r -> C^(a*q) to the
register, and trace out the purifier factor of dimension q.  With
q = d*a (the default) this parametrization covers the full set of extensions;
q = 1 restricts to pure extensions (purifications).

W is parametrized as W = expm(A - A^dag)[:, :r] where A is an arbitrary
complex matrix packed into a real coefficient vector, so plain unconstrained
optimizers apply.  The entropy gradient is computed analytically by chaining
d S / d rho = -(log2 rho + I/ln 2) through the parametrization, using the
adjoint of the Frechet derivative of the matrix exponential.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import bounds, linalg
from .errors import BoundViolationError, ValidationError
from .states import (
    DensityMatrix,
    Ensemble,
    entropy_of_eigenvalues,
    holevo_quantity,
    product_ensemble,
)

# Full-rank regularization added inside the log for gradient purposes only;
# reported entropies are always unregularized.
GRAD_REGULARIZATION = 1e-10

LOWER_BOUND_SLACK = 1e-6

# Trace-norm budget of an extension: the eigenvalue mass a purification
# register may drop, and the partial-trace defect verify_extension accepts.
EXTENSION_TRACE_TOL = 1e-9

# L-BFGS-B stopping tolerances: relative entropy decrease (ftol) and
# projected gradient size (gtol).
ENTROPY_TOLERANCE = 1e-11
STEP_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ExtensionAssignment:
    """Per-signal isometry parameters defining the extensions rho_i^ext."""

    system_dim: int
    ancilla_dim: int
    purifier_dim: int
    params: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.ancilla_dim < 1 or self.purifier_dim < 1 or self.system_dim < 1:
            raise ValidationError("dimensions must be positive")
        n = self.ancilla_dim * self.purifier_dim
        packed = []
        for k, p in enumerate(self.params):
            v = np.asarray(p, dtype=float).reshape(-1)
            if v.size != 2 * n * n:
                raise ValidationError(
                    f"params[{k}] has length {v.size}, expected {2 * n * n}"
                )
            packed.append(v)
        object.__setattr__(self, "params", tuple(packed))


@dataclass(frozen=True)
class OptimizerConfig:
    multistarts: int = 8
    max_iters: int = 500
    seed: int = 0
    ancilla_dim: int = 2
    purifier_dim: int | None = None  # None -> system_dim * ancilla_dim
    n_block: int = 1


@dataclass(frozen=True)
class StartRecord:
    start_index: int
    initial_entropy: float
    final_entropy: float
    iterations: int
    converged: bool
    message: str


@dataclass(frozen=True)
class MinimizeResult:
    best_entropy: float
    best_assignment: ExtensionAssignment
    history: tuple[StartRecord, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ExtensionCheck:
    ok: bool
    trace_norm_defect: float

    def __bool__(self) -> bool:
        return self.ok


def param_count(ancilla_dim: int, purifier_dim: int) -> int:
    n = ancilla_dim * purifier_dim
    return 2 * n * n


def _unpack_generator(params: np.ndarray, n: int) -> np.ndarray:
    a = params[: n * n].reshape(n, n) + 1j * params[n * n :].reshape(n, n)
    return a - a.conj().T


def _isometry(params: np.ndarray, n: int, r: int):
    g = _unpack_generator(np.asarray(params, dtype=float).reshape(-1), n)
    u = scipy.linalg.expm(g)
    return u[:, :r], g


def _purification_register(rho: DensityMatrix, capacity: int) -> np.ndarray:
    """Canonical amplitude matrix d x r with r = min(d, capacity).

    Requires the eigenvalue mass beyond the register capacity to be
    negligible (this is the rank precondition for building an extension).
    """
    w, v = linalg.psd_eig(rho.matrix)
    r = min(rho.dim, capacity)
    discarded = float(np.sum(w[r:]))
    if discarded > EXTENSION_TRACE_TOL:
        raise ValidationError(
            f"ancilla*purifier capacity {capacity} cannot carry the state: "
            f"discarded eigenvalue mass {discarded:.3e}"
        )
    return v[:, :r] * np.sqrt(w[:r])


def _extension_amplitudes(
    b: np.ndarray, params: np.ndarray, ancilla_dim: int, purifier_dim: int
):
    """Amplitude matrix K on (system*ancilla) x purifier, plus cached pieces."""
    d, r = b.shape
    n = ancilla_dim * purifier_dim
    w_iso, g = _isometry(params, n, r)
    m = b @ w_iso.T  # d x n
    k = m.reshape(d, ancilla_dim, purifier_dim).reshape(d * ancilla_dim, purifier_dim)
    return k, g


def extension_from_params(
    rho: DensityMatrix, params, ancilla_dim: int, purifier_dim: int
) -> DensityMatrix:
    """Build rho^ext on system (x) ancilla from isometry parameters.

    Zero parameters give the trivial embedding rho (x) |0><0| (for
    purifier_dim >= rank); purifier_dim = 1 yields pure extensions.
    """
    b = _purification_register(rho, ancilla_dim * purifier_dim)
    params = np.asarray(params, dtype=float).reshape(-1)
    n = ancilla_dim * purifier_dim
    if params.size != 2 * n * n:
        raise ValidationError(
            f"params length {params.size}, expected {2 * n * n}"
        )
    k, _ = _extension_amplitudes(b, params, ancilla_dim, purifier_dim)
    ext = k @ k.conj().T
    ext = (ext + ext.conj().T) / 2.0
    return DensityMatrix(ext, rho.factor_dims + (ancilla_dim,))


def trivial_assignment(
    e: Ensemble, ancilla_dim: int, purifier_dim: int | None = None
) -> ExtensionAssignment:
    q = e.dim * ancilla_dim if purifier_dim is None else purifier_dim
    z = np.zeros(param_count(ancilla_dim, q))
    return ExtensionAssignment(e.dim, ancilla_dim, q, tuple(z.copy() for _ in e.states))


def extended_ensemble(e: Ensemble, assignment: ExtensionAssignment) -> Ensemble:
    """Replace every signal state by its extension under the assignment."""
    if assignment.system_dim != e.dim:
        raise ValidationError(
            f"assignment system dim {assignment.system_dim} != ensemble dim {e.dim}"
        )
    if len(assignment.params) != len(e):
        raise ValidationError(
            f"assignment has {len(assignment.params)} param vectors "
            f"for {len(e)} states"
        )
    exts = tuple(
        extension_from_params(s, p, assignment.ancilla_dim, assignment.purifier_dim)
        for s, p in zip(e.states, assignment.params)
    )
    return Ensemble(e.probs, exts)


def _registers(e: Ensemble, ancilla_dim: int, purifier_dim: int):
    cap = ancilla_dim * purifier_dim
    return [_purification_register(s, cap) for s in e.states]


def _avg_extension(
    e: Ensemble, regs, flat: np.ndarray, ancilla_dim: int, purifier_dim: int
):
    dim_ext = e.dim * ancilla_dim
    rho = np.zeros((dim_ext, dim_ext), dtype=np.complex128)
    cache = []
    for i, (b, p) in enumerate(zip(regs, np.split(flat, len(regs)))):
        k, g = _extension_amplitudes(b, p, ancilla_dim, purifier_dim)
        rho += e.probs[i] * (k @ k.conj().T)
        cache.append((k, g, b))
    return (rho + rho.conj().T) / 2.0, cache


def assignment_entropy(
    e: Ensemble, assignment: ExtensionAssignment, *, regularization: float = 0.0
) -> float:
    """Entropy in bits of sum_i p_i rho_i^ext.

    With ``regularization`` eps > 0 the value is S(rho^ext + (eps/dim) I),
    the smooth surrogate the gradient refers to.
    """
    regs = _registers(e, assignment.ancilla_dim, assignment.purifier_dim)
    flat = np.concatenate(assignment.params)
    rho, _ = _avg_extension(e, regs, flat, assignment.ancilla_dim, assignment.purifier_dim)
    w = np.linalg.eigvalsh(rho)
    if regularization > 0.0:
        w = w + regularization / rho.shape[0]
    return entropy_of_eigenvalues(w)


def _entropy_and_gradient(
    e: Ensemble, regs, flat: np.ndarray, ancilla_dim: int, purifier_dim: int
):
    """Regularized entropy (bits) and its gradient w.r.t. the flat params."""
    n = ancilla_dim * purifier_dim
    rho, cache = _avg_extension(e, regs, flat, ancilla_dim, purifier_dim)
    dim = rho.shape[0]
    eps = GRAD_REGULARIZATION / dim
    w, v = np.linalg.eigh(rho)
    w_reg = np.clip(w, 0.0, None) + eps
    value = float(-(w_reg * np.log2(w_reg)).sum())
    # dS/drho in the eigenbasis of rho
    d_diag = -(np.log2(w_reg) + 1.0 / np.log(2.0))
    d_mat = (v * d_diag) @ v.conj().T
    grads = []
    for i, (k, g, b) in enumerate(cache):
        zk = e.probs[i] * (d_mat @ k)  # (d*a) x q
        zm = zk.reshape(e.dim, ancilla_dim, purifier_dim).reshape(e.dim, n)
        zw = zm.T @ b.conj()  # n x r, conj of ZM^dag B
        zw_full = np.zeros((n, n), dtype=np.complex128)
        zw_full[:, : zw.shape[1]] = zw
        zg = scipy.linalg.expm_frechet(-g, zw_full, compute_expm=False)
        za = zg - zg.conj().T
        grads.append(np.concatenate([2.0 * za.real.ravel(), 2.0 * za.imag.ravel()]))
    return value, np.concatenate(grads)


def entropy_gradient(e: Ensemble, assignment: ExtensionAssignment) -> np.ndarray:
    """Analytic gradient of the regularized assignment entropy."""
    regs = _registers(e, assignment.ancilla_dim, assignment.purifier_dim)
    flat = np.concatenate(assignment.params)
    _, grad = _entropy_and_gradient(
        e, regs, flat, assignment.ancilla_dim, assignment.purifier_dim
    )
    return grad


def verify_extension(rho_ext: DensityMatrix, rho: DensityMatrix) -> ExtensionCheck:
    """Check Tr_anc(rho_ext) = rho to ``EXTENSION_TRACE_TOL`` in trace norm."""
    n_sys = len(rho.factor_dims)
    if rho_ext.factor_dims[:n_sys] != rho.factor_dims:
        raise ValidationError(
            f"extension factor dims {rho_ext.factor_dims} do not start "
            f"with system dims {rho.factor_dims}"
        )
    reduced = linalg.partial_trace(
        rho_ext.matrix, rho_ext.factor_dims, range(n_sys)
    )
    defect = linalg.trace_norm(reduced - rho.matrix)
    return ExtensionCheck(defect <= EXTENSION_TRACE_TOL, float(defect))


def _assignment_from_flat(
    e: Ensemble, flat: np.ndarray, ancilla_dim: int, purifier_dim: int
) -> ExtensionAssignment:
    return ExtensionAssignment(
        e.dim, ancilla_dim, purifier_dim, tuple(np.split(flat.copy(), len(e)))
    )


def minimize_extension_entropy(e: Ensemble, cfg: OptimizerConfig) -> MinimizeResult:
    """Multistart minimization of S(rho^ext) over extension assignments.

    Start 0 is always the trivial (zero-parameter) assignment, so the result
    never exceeds S(ensemble density).  Seeded random starts follow; each
    draws its own sub-seed from (seed, start index).  L-BFGS-B minimizes the
    regularized entropy with the analytic gradient; reported entropies are
    unregularized.  Ties across starts break toward the lowest start index.
    """
    # imported here: scipy.optimize doubles the import time of the package
    import scipy.optimize

    if cfg.n_block > 1:
        e = product_ensemble(e, cfg.n_block)
    ancilla_dim = cfg.ancilla_dim
    cap = bounds.ancilla_cap(cfg.n_block, int(round(e.dim ** (1.0 / cfg.n_block))))
    if ancilla_dim > cap:
        warnings.warn(
            f"ancilla_dim {ancilla_dim} exceeds the sufficiency cap {cap}; clamping"
        )
        ancilla_dim = cap
    purifier_dim = (
        e.dim * ancilla_dim if cfg.purifier_dim is None else cfg.purifier_dim
    )
    linalg.check_dim_guard(e.dim * ancilla_dim)
    regs = _registers(e, ancilla_dim, purifier_dim)
    n = ancilla_dim * purifier_dim
    total = 2 * n * n * len(e)

    starts: list[np.ndarray] = [np.zeros(total)]
    for idx in range(1, cfg.multistarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(idx,))
        )
        starts.append(rng.normal(0.0, 1.0, size=total))

    def objective(x):
        return _entropy_and_gradient(e, regs, x, ancilla_dim, purifier_dim)

    def plain_entropy(x):
        rho, _ = _avg_extension(e, regs, x, ancilla_dim, purifier_dim)
        return entropy_of_eigenvalues(np.linalg.eigvalsh(rho))

    history = []
    best_entropy = np.inf
    best_x = starts[0]
    for idx, x0 in enumerate(starts):
        res = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": cfg.max_iters,
                "ftol": ENTROPY_TOLERANCE,
                "gtol": STEP_TOLERANCE,
            },
        )
        if not np.all(np.isfinite(res.x)):
            raise ValidationError(f"optimizer returned non-finite parameters (start {idx})")
        init_s = plain_entropy(x0)
        final_s = plain_entropy(res.x)
        history.append(
            StartRecord(
                start_index=idx,
                initial_entropy=init_s,
                final_entropy=final_s,
                iterations=int(res.nit),
                converged=bool(res.success),
                message=str(res.message),
            )
        )
        if final_s < best_entropy:
            best_entropy = final_s
            best_x = res.x
    lower = holevo_quantity(e)
    if best_entropy < lower - LOWER_BOUND_SLACK:
        raise BoundViolationError(
            f"optimum {best_entropy} undercuts the Holevo lower bound {lower}"
        )
    return MinimizeResult(
        best_entropy=float(best_entropy),
        best_assignment=_assignment_from_flat(e, best_x, ancilla_dim, purifier_dim),
        history=tuple(history),
    )
