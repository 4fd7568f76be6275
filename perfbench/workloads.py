"""Workload definitions: seeded inputs, the op list, and how an op calls enscomp.

An op is a plain dict, so the parent process can write the op list to JSON
and check answers, and the worker can run it.  ``run_op`` makes only
public-API calls, the same ones the CLI commands make, including the bound
checks the CLI turns into exit code 3.  It reaches every function through a
module attribute at call time, so the tracer's wrappers see the calls.
"""

import math

import numpy as np

import enscomp
from enscomp import cli, reference, states

RATE = 0.65  # criterion-7 rate budget, qubits per signal
EP_EPS = 0.05

# Bloch vectors and probabilities of the full-rank mixed-qubit triple; the seed
# picks the basis.  Rotating every state by one unitary keeps the spectra, the
# minimal extension entropy (0.4271 bits) and the k=6 subspace dimension
# (m=15) fixed, so the work per op does not depend on the seed.
TRIPLE_BLOCH = ((-0.298, 0.090, -0.615), (0.666, -0.264, 0.251), (-0.059, -0.128, -0.301))
TRIPLE_PROBS = (0.209, 0.380, 0.411)

WORKLOADS = ("js-mc-zero-plus", "js-typical-biased", "ep-visible")


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = u @ m @ u.conj().T
    return (out + out.conj().T) / 2.0


def biased_qubit(p: float, u: np.ndarray) -> states.Ensemble:
    m = _rotated(u, np.diag([p, 1.0 - p]).astype(complex))
    return states.Ensemble([1.0], (states.DensityMatrix(m, (2,)),))


def mixed_triple(u: np.ndarray) -> states.Ensemble:
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    )
    mats = []
    for bloch in TRIPLE_BLOCH:
        m = 0.5 * (np.eye(2) + sum(b * s for b, s in zip(bloch, paulis)))
        mats.append(states.DensityMatrix(_rotated(u, m), (2,)))
    return states.Ensemble(list(TRIPLE_PROBS), tuple(mats))


def biased_ps(toy: bool) -> tuple[float, ...]:
    return (0.9,) if toy else (0.95, 0.9, 0.8)


def build_sources(workload: str, seed: int, toy: bool) -> dict[str, states.Ensemble]:
    """Source name -> ensemble; the same seed gives the same ensembles."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    if workload == "js-mc-zero-plus":
        return {"zero-plus": reference.zero_plus_pair()}
    if workload == "js-typical-biased":
        return {f"biased-{p:g}": biased_qubit(p, _haar_unitary(rng, 2)) for p in biased_ps(toy)}
    if workload == "ep-visible":
        return {
            "orthogonal-pair": reference.orthogonal_pair(),
            "zero-plus": reference.zero_plus_pair(),
            "mixed-triple": mixed_triple(_haar_unitary(rng, 2)),
        }
    raise KeyError(f"unknown workload {workload!r}")


def build_ops(workload: str, seed: int, toy: bool) -> list[dict]:
    """The ops of one pass, in order; each is one public-API call."""
    if workload == "js-mc-zero-plus":
        plan = ((4, "exact", None), (6, "mc", 50)) if toy else (
            (4, "exact", None), (8, "mc", 400), (12, "mc", 400))
        return [
            {"kind": "js", "source": "zero-plus", "n": n, "dim_cap": int(2 ** (RATE * n)),
             "sampling": sampling, "samples": samples, "seed": seed}
            for n, sampling, samples in plan
        ]
    if workload == "js-typical-biased":
        ns = (5, 6) if toy else range(10, 15)
        return [
            {"kind": "js", "source": f"biased-{p:g}", "n": n,
             "dim_cap": sum(math.comb(n, j) for j in range(3)),
             "sampling": "exact", "samples": None, "seed": seed}
            for p in biased_ps(toy) for n in ns
        ]
    if workload == "ep-visible":
        ops = []
        for source, k in (("orthogonal-pair", 4), ("zero-plus", 6), ("mixed-triple", 6)):
            ops.append({"kind": "minimize", "source": source, "multistarts": 2 if toy else 8,
                        "ancilla_dim": 2, "purifier_dim": 2, "seed": seed})
            ops.append({"kind": "ep", "source": source, "k": 2 if toy else k, "eps": EP_EPS})
        return ops
    raise KeyError(f"unknown workload {workload!r}")


def write_sources(sources: dict[str, states.Ensemble], directory) -> dict[str, str]:
    paths = {}
    for name, e in sources.items():
        paths[name] = str(directory / f"{name}.json")
        cli.save_ensemble(e, paths[name])
    return paths


def _check_reports(reports) -> None:
    """The CLI's rule: an applicable, violated bound fails the command."""
    for r in reports:
        if r.applicable and not r.satisfied:
            raise enscomp.BoundViolationError(f"bound {r.name} violated: lhs={r.lhs} rhs={r.rhs}")


def _protocol_values(e, res) -> dict:
    reports = [enscomp.holevo_bound_check(e, res.rate)] if res.avg_fidelity >= 0.99 else []
    _check_reports(reports)
    return {
        "channel_dim": res.channel_dim,
        "rate": res.rate,
        "avg_fidelity": res.avg_fidelity,
        "ext_avg_fidelity": res.ext_avg_fidelity,
        "sampled": res.sampled,
        "fidelities": [r.fidelity for r in res.per_sequence],
        "draws": [r.draws for r in res.per_sequence],
        "seqs": len(res.per_sequence),
    }


def run_op(op: dict, ensembles: dict, assignments: dict) -> dict:
    """Run one op; return its computed values.  Errors propagate."""
    e = ensembles[op["source"]]
    if op["kind"] == "js":
        mc = {"mc_samples": op["samples"]} if op["sampling"] == "mc" else {}
        res = enscomp.js_protocol(
            e, op["n"], dim_cap=op["dim_cap"], sampling=op["sampling"], seed=op["seed"], **mc
        )
        return _protocol_values(e, res)
    if op["kind"] == "minimize":
        cfg = enscomp.OptimizerConfig(
            multistarts=op["multistarts"], seed=op["seed"],
            ancilla_dim=op["ancilla_dim"], purifier_dim=op["purifier_dim"],
        )
        res = enscomp.minimize_extension_entropy(e, cfg)
        assignments[op["source"]] = res.best_assignment
        _check_reports([enscomp.envelope_check(e, res.best_entropy)])
        return {
            "best_entropy": res.best_entropy,
            "starts": len(res.history),
            "iters": sum(h.iterations for h in res.history),
            "converged": sum(1 for h in res.history if h.converged),
        }
    if op["kind"] == "ep":
        assignment = assignments.get(op["source"])
        if assignment is None:
            raise RuntimeError(f"no minimized assignment for {op['source']}")
        res = enscomp.extension_protocol(
            e, 1, assignment, op["k"], eps=op["eps"], sampling="exact"
        )
        return _protocol_values(e, res)
    raise KeyError(f"unknown op kind {op['kind']!r}")
