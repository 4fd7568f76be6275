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

Both come from one eigh of H = -i(A - A^dag), batched over the states:
expm(iH) = U e^{i theta} U^dag, and the Daleckii-Krein formula gives the
Frechet derivative from the same U and theta (Najfeld & Havel, Adv. Appl.
Math. 16, 321 (1995); Higham, Functions of Matrices, ch. 3 and 10).  Its
divided differences are written with sinc, which never divides by an
eigenvalue gap, so degenerate eigenvalues need no threshold.

One batched builder makes every state's amplitudes K_i, its generator's
eigenpairs and sum_i p_i K_i K_i^dag for all callers, and one helper checks
every assignment a public entry is given against its ensemble.

Each start runs a numpy L-BFGS (Liu & Nocedal, Math. Prog. 45, 503 (1989))
with a strong-Wolfe line search (Nocedal & Wright, Numerical Optimization,
Alg. 3.5-3.6 and 7.4), so the minimizer needs no scipy.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds, linalg
from .errors import ValidationError
from .states import DensityMatrix, Ensemble, _system_factors, entropy_of_eigenvalues

# Full-rank regularization added inside the log for gradient purposes only;
# reported entropies are always unregularized.
GRAD_REGULARIZATION = 1e-10

# L-BFGS stopping tolerances: a start has converged when its largest gradient
# entry is at most STEP_TOLERANCE, or when a step lowers the entropy by at most
# ENTROPY_TOLERANCE relative to max(|f_k|, |f_k+1|, 1).
ENTROPY_TOLERANCE = 1e-11
STEP_TOLERANCE = 1e-8
# L-BFGS memory, and the strong-Wolfe constants and evaluation budget of its
# line search (scipy's L-BFGS-B defaults: maxcor, maxls).
LBFGS_HISTORY = 10
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
LINE_SEARCH_EVALS = 20


def param_count(ancilla_dim: int, purifier_dim: int) -> int:
    n = ancilla_dim * purifier_dim
    return 2 * n * n


@dataclass(frozen=True)
class ExtensionAssignment:
    """Per-signal isometry parameters defining the extensions rho_i^ext."""

    system_dim: int
    ancilla_dim: int
    purifier_dim: int
    params: tuple[np.ndarray, ...]

    def __post_init__(self):
        for name in ("system_dim", "ancilla_dim", "purifier_dim"):
            object.__setattr__(self, name, linalg._index(getattr(self, name), name, 1))
        size = param_count(self.ancilla_dim, self.purifier_dim)
        packed = []
        for k, p in enumerate(self.params):
            v = np.asarray(p, dtype=float).reshape(-1)
            if v.size != size:
                raise ValidationError(f"params[{k}] has length {v.size}, expected {size}")
            if not np.isfinite(v).all():
                raise ValidationError(f"params[{k}] has non-finite entries")
            packed.append(v)
        object.__setattr__(self, "params", tuple(packed))


@dataclass(frozen=True)
class OptimizerConfig:
    multistarts: int = 8
    max_iters: int = 500
    seed: int = 0
    ancilla_dim: int = 2
    purifier_dim: int | None = None  # None -> system_dim * ancilla_dim

    def __post_init__(self):
        for name, low in (("multistarts", 1), ("max_iters", 0), ("seed", 0),
                          ("ancilla_dim", 1), ("purifier_dim", 1)):
            if getattr(self, name) is not None:
                linalg._index(getattr(self, name), name, low)


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
    """Every start's record; the best start's final entropy, assignment and index; its envelope check."""

    best_entropy: float
    best_assignment: ExtensionAssignment
    best_start: int  # the lowest start index whose final entropy is best_entropy
    envelope: bounds.BoundReport  # bounds.envelope_check of best_entropy, satisfied
    history: tuple[StartRecord, ...] = field(default_factory=tuple)


def _expm_adjoint_derivative(u: np.ndarray, theta: np.ndarray, z: np.ndarray):
    """L*(G, Z) for G = U diag(i theta) U^dag and Z of shape (..., n, r), padded by zeros.

    Daleckii-Krein: L(G, E) = U (Gamma o U^dag E U) U^dag with
    Gamma_jk = (e^{i theta_j} - e^{i theta_k}) / (i (theta_j - theta_k))
             = e^{i (theta_j + theta_k)/2} sinc((theta_j - theta_k) / 2 pi),
    and the adjoint under Re Tr(X^dag Y) takes conj(Gamma).  The sinc form is
    an entire function of the eigenvalues, exact on equal ones, so the error
    is eigh's backward error alone.
    """
    s = theta[..., :, None] + theta[..., None, :]
    t = theta[..., :, None] - theta[..., None, :]
    gamma_conj = np.exp(-0.5j * s) * np.sinc(t / (2.0 * np.pi))
    uh = u.conj().swapaxes(-1, -2)
    return u @ (gamma_conj * (uh @ (z @ u[..., : z.shape[-1], :]))) @ uh


def _purification_register(rho: DensityMatrix, capacity: int) -> np.ndarray:
    """Canonical amplitude matrix d x r with r = min(d, capacity).

    Requires the eigenvalue mass beyond the register capacity to be
    negligible (this is the rank precondition for building an extension).
    """
    w, v = rho._psd_eig
    r = min(rho.dim, capacity)
    discarded = float(np.sum(w[r:]))
    if discarded > linalg.ATOL:
        raise ValidationError(
            f"ancilla*purifier capacity {capacity} cannot carry the state: "
            f"discarded eigenvalue mass {discarded:.3e}"
        )
    return v[:, :r] * np.sqrt(w[:r])


def _registers(e: Ensemble, ancilla_dim: int, purifier_dim: int) -> np.ndarray:
    """The states' purification registers stacked as N x d x r."""
    cap = ancilla_dim * purifier_dim
    return np.stack([_purification_register(s, cap) for s in e.states])


def _checked_assignment(e: Ensemble, assignment: ExtensionAssignment):
    """The registers, flat params, a and q of an assignment that fits ``e``."""
    if assignment.system_dim != e.dim:
        raise ValidationError(
            f"assignment system dim {assignment.system_dim} != ensemble dim {e.dim}"
        )
    if len(assignment.params) != len(e):
        raise ValidationError(
            f"assignment has {len(assignment.params)} param vectors "
            f"for {len(e)} states"
        )
    a, q = assignment.ancilla_dim, assignment.purifier_dim
    return _registers(e, a, q), np.concatenate(assignment.params), a, q


def _extension_amplitudes(
    e: Ensemble, regs: np.ndarray, flat: np.ndarray, ancilla_dim: int, purifier_dim: int
):
    """(sum_i p_i K_i K_i^dag, K, U, theta) for the registers B_i and flat params.

    Each state's params pack A_i as (Re, Im); W_i = expm(A_i - A_i^dag)[:, :r]
    and K_i = B_i W_i^T on (system*ancilla) x purifier.  H = -i(A - A^dag) is
    exactly Hermitian in floating point, so one eigh H = U diag(theta) U^dag,
    batched over the states, gives expm(A - A^dag) = U diag(e^{i theta}) U^dag.
    The average is not symmetrized: eigh and eigvalsh read one triangle.
    """
    n, r = ancilla_dim * purifier_dim, regs.shape[-1]
    p = flat.reshape(len(regs), 2, n, n)
    a = p[:, 0] + 1j * p[:, 1]
    theta, u = np.linalg.eigh(-1j * (a - a.conj().swapaxes(-1, -2)))
    w = (u * np.exp(1j * theta)[..., None, :]) @ u[..., :r, :].conj().swapaxes(-1, -2)
    k = (regs @ w.swapaxes(-1, -2)).reshape(len(regs), -1, purifier_dim)  # N x (d*a) x q
    del w  # W's N n r elements would sit on the traced peak, the N (da)^2 products
    rho = np.tensordot(e.probs, k @ k.conj().swapaxes(-1, -2), axes=1)
    return rho, k, u, theta


def trivial_assignment(
    e: Ensemble, ancilla_dim: int, purifier_dim: int | None = None
) -> ExtensionAssignment:
    ancilla_dim = linalg._index(ancilla_dim, "ancilla_dim", 1)
    q = e.dim * ancilla_dim if purifier_dim is None else purifier_dim
    q = linalg._index(q, "purifier_dim", 1)
    linalg.check_limit(len(e) * (ancilla_dim * q) ** 2, "elements of the trivial assignment")
    size = param_count(ancilla_dim, q)
    return ExtensionAssignment(e.dim, ancilla_dim, q, tuple(np.zeros(size) for _ in e.states))


def verify_extension(rho_ext: DensityMatrix, rho: DensityMatrix) -> bounds.BoundReport:
    """Tr_anc(rho_ext) = rho as the bound ||Tr_anc(rho_ext) - rho||_1 <= 0 (within ATOL)."""
    reduced = linalg.partial_trace(
        rho_ext.matrix, rho_ext.factor_dims, _system_factors(rho_ext, rho)
    )
    return bounds.BoundReport("extension_trace", linalg.trace_norm(reduced - rho.matrix), 0.0)


def extended_ensemble(e: Ensemble, assignment: ExtensionAssignment) -> Ensemble:
    """Every signal state replaced by its extension under the assignment, each verified."""
    # the stacked parameters, generators and their eigenvectors (traced 4.1-5.1
    # N n^2), then the extensions, their symmetrized copies and eigenvectors
    # and one more state's worth while one is validated (traced 3.0-3.1 N (da)^2)
    a, q = assignment.ancilla_dim, assignment.purifier_dim
    n = a * q
    linalg.check_limit(6 * len(e) * n * n + 3 * (len(e) + 1) * (e.dim * a) ** 2,
                       "elements of the extended ensemble")
    _, k, _, _ = _extension_amplitudes(e, *_checked_assignment(e, assignment))
    # stored as DensityMatrix.matrix, which the protocol's Grams read whole
    ext = k @ k.conj().swapaxes(-1, -2)
    ext = (ext + ext.conj().swapaxes(-1, -2)) / 2.0
    dims = e.states[0].factor_dims + (a,)
    out = Ensemble(e.probs, tuple(DensityMatrix(m, dims) for m in ext))
    bounds.enforce(map(verify_extension, out.states, e.states))
    return out


def _plain_entropy(e: Ensemble, regs, flat: np.ndarray, ancilla_dim: int,
                   purifier_dim: int) -> float:
    """``assignment_entropy`` of the flat parameters over the registers ``regs``."""
    rho, _, _, _ = _extension_amplitudes(e, regs, flat, ancilla_dim, purifier_dim)
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho))


def assignment_entropy(e: Ensemble, assignment: ExtensionAssignment) -> float:
    """Entropy in bits of sum_i p_i rho_i^ext, unregularized (unlike the minimizer's objective)."""
    return _plain_entropy(e, *_checked_assignment(e, assignment))


def _entropy_and_gradient(
    e: Ensemble, regs, flat: np.ndarray, ancilla_dim: int, purifier_dim: int
):
    """The minimizer's objective and its gradient w.r.t. the flat params.

    The objective, the one regularized entropy (bits), clips rho^ext's
    eigenvalues at 0 and adds GRAD_REGULARIZATION / dim, with no floor.
    """
    rho, k, u, theta = _extension_amplitudes(e, regs, flat, ancilla_dim, purifier_dim)
    dim = rho.shape[0]
    eps = GRAD_REGULARIZATION / dim
    w, v = np.linalg.eigh(rho)
    w_reg = np.clip(w, 0.0, None) + eps
    value = float(-(w_reg * np.log2(w_reg)).sum())
    # dS/drho in the eigenbasis of rho
    d_diag = -(np.log2(w_reg) + 1.0 / np.log(2.0))
    d_mat = (v * d_diag) @ v.conj().T
    zk = e.probs[:, None, None] * (d_mat @ k)  # N x (d*a) x q
    zm = zk.reshape(len(k), e.dim, -1)
    zw = zm.swapaxes(-1, -2) @ regs.conj()  # N x n x r, the gradient in W
    zg = _expm_adjoint_derivative(u, theta, zw)
    za = zg - zg.conj().swapaxes(-1, -2)
    grad = np.concatenate([2.0 * za.real, 2.0 * za.imag], axis=1)
    return value, grad.reshape(-1)


def entropy_gradient(e: Ensemble, assignment: ExtensionAssignment) -> np.ndarray:
    """Analytic gradient of the regularized assignment entropy."""
    return _entropy_and_gradient(e, *_checked_assignment(e, assignment))[1]


def _wolfe_step(fun, x, f0: float, g0: np.ndarray, d: np.ndarray):
    """A point x + a d meeting both strong-Wolfe conditions, as (x, f, g), or None.

    Doubles a from 1 until it brackets such a point, then bisects the bracket
    (Nocedal & Wright, Alg. 3.5-3.6): ``lo`` is the lowest sufficient-decrease
    point so far and ``hi`` the other end, as (a, f, g.d).
    """
    dg0 = float(g0 @ d)
    lo, hi, a = (0.0, f0, dg0), None, 1.0
    for _ in range(LINE_SEARCH_EVALS):
        f, g = fun(x + a * d)
        dg = float(g @ d)
        if not f <= f0 + WOLFE_C1 * a * dg0 or f >= lo[1]:
            hi = (a, f, dg)
        elif abs(dg) <= -WOLFE_C2 * dg0:
            return x + a * d, f, g
        else:
            if dg * ((hi[0] if hi else np.inf) - a) >= 0:
                hi = lo
            lo = (a, f, dg)
        a = 2.0 * a if hi is None else 0.5 * (lo[0] + hi[0])
    return None


def _lbfgs(fun, x: np.ndarray, max_iters: int):
    """Minimize ``fun`` (value, gradient) from x: (x, iterations, converged, message)."""
    f, g = fun(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y)
    it = 0
    while True:
        if np.abs(g).max() <= STEP_TOLERANCE:
            return x, it, True, "gradient entries within STEP_TOLERANCE"
        if it == max_iters:
            return x, it, False, "iteration limit reached"
        if not pairs:
            d = -g / max(float(np.linalg.norm(g)), 1.0)
        else:  # the two-loop recursion
            d, alphas = -g, []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ d))
                d = d - alphas[-1] * y
            _, y, rho = pairs[-1]
            d = d / (rho * (y @ y))  # times gamma = s.y / y.y
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                d = d + (alpha - rho * (y @ d)) * s
        step = _wolfe_step(fun, x, f, g, d)
        if step is None:
            # a predicted decrease the relative-decrease rule would not see converges
            if -float(g @ d) <= ENTROPY_TOLERANCE * max(abs(f), 1.0):
                return x, it, True, "relative entropy decrease within ENTROPY_TOLERANCE"
            return x, it, False, f"no strong-Wolfe step in {LINE_SEARCH_EVALS} evaluations"
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs = pairs[1 - LBFGS_HISTORY:] + [(s, y, 1.0 / sy)]
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g, it = x_new, f_new, g_new, it + 1
        if decrease <= ENTROPY_TOLERANCE:
            return x, it, True, "relative entropy decrease within ENTROPY_TOLERANCE"


def minimize_extension_entropy(e: Ensemble, cfg: OptimizerConfig) -> MinimizeResult:
    """Multistart minimization of S(rho^ext) over extension assignments of ``e``.

    ``e`` is taken as given: for n-signal blocks pass ``product_ensemble(e, n)``.
    Start 0 is always the trivial (zero-parameter) assignment, so the result
    never exceeds S(ensemble density).  Seeded random starts follow; each
    draws its own sub-seed from (seed, start index).  L-BFGS minimizes the
    regularized entropy with the analytic gradient; reported entropies are
    unregularized.  Ties across starts break toward the lowest start index,
    which the result records as ``best_start``.
    A best start that did not converge is reported with a UserWarning.
    """
    ancilla_dim = cfg.ancilla_dim
    cap = bounds.ancilla_cap(1, e.dim)
    if ancilla_dim > cap:
        warnings.warn(
            f"ancilla_dim {ancilla_dim} exceeds the sufficiency cap {cap}; clamping"
        )
        ancilla_dim = cap
    purifier_dim = (
        e.dim * ancilla_dim if cfg.purifier_dim is None else cfg.purifier_dim
    )
    total = param_count(ancilla_dim, purifier_dim) * len(e)
    # L-BFGS holds about 28 vectors of ``total`` reals (its 10 (s, y) pairs, x,
    # g, d and the line search's), the objective N x da x da products: traced
    # peaks reach 34-37 N n^2 (n = 16 to 64) and 2.6 N (da)^2 complex elements;
    # then the best extended ensemble, whose count this holds, also at q = 1
    linalg.check_limit(20 * total + 3 * (len(e) + 1) * (e.dim * ancilla_dim) ** 2,
                       "elements of the minimizer working set")
    regs = _registers(e, ancilla_dim, purifier_dim)

    def objective(x):
        return _entropy_and_gradient(e, regs, x, ancilla_dim, purifier_dim)

    history = []
    best_entropy, best_x, best_idx = np.inf, None, 0
    for idx in range(cfg.multistarts):  # each start is drawn when it runs
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(idx,)))
        x0 = rng.normal(0.0, 1.0, size=total) if idx else np.zeros(total)
        x, iterations, converged, message = _lbfgs(objective, x0, cfg.max_iters)
        init_s = _plain_entropy(e, regs, x0, ancilla_dim, purifier_dim)
        final_s = _plain_entropy(e, regs, x, ancilla_dim, purifier_dim)
        history.append(
            StartRecord(
                start_index=idx,
                initial_entropy=init_s,
                final_entropy=final_s,
                iterations=iterations,
                converged=converged,
                message=message,
            )
        )
        if final_s < best_entropy:
            best_entropy = final_s
            best_x, best_idx = x, idx
    assignment = ExtensionAssignment(e.dim, ancilla_dim, purifier_dim,
                                     tuple(np.split(best_x.copy(), len(e))))
    extended_ensemble(e, assignment)  # enforces verify_extension on every extension
    best = history[best_idx]
    if not best.converged:
        warnings.warn(
            f"best start {best_idx} did not converge in {best.iterations} iterations "
            f"(max_iters {cfg.max_iters}: {best.message}); its entropy may sit above the optimum"
        )
    report = bounds.envelope_check(e, best_entropy)
    bounds.enforce([report])
    return MinimizeResult(
        best_entropy=float(best_entropy),
        best_assignment=assignment,
        best_start=best_idx,
        envelope=report,
        history=tuple(history),
    )
