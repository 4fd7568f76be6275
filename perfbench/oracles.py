"""Independent answer checks for every op, from the input matrices alone.

Nothing here imports enscomp: entropies come from numpy eigenvalues and the
JS fidelities from closed forms.  Each check returns a list of mismatch
messages; an empty list means the op's answer is correct.

Error budgets:
* ``CLOSED_FORM_ATOL``: the |0>/|+> per-sequence fidelities sit up to 7.1e-7
  off the closed form at n=12, m=222 (rounding in the m x m eigh route
  accumulates over m); 1e-5 leaves room for other MC draws.
* ``TYPICAL_ATOL``: the biased-qubit fidelities match to 1e-15.
* ``ENTROPY_ATOL``: the envelope tolerance of ``enscomp.bounds``.
* ``MINIMUM_ATOL``: criterion 8's tolerance on the orthogonal-pair optimum.
"""

import math

import numpy as np

CLOSED_FORM_ATOL = 1e-5
TYPICAL_ATOL = 1e-9
ENTROPY_ATOL = 1e-6
MINIMUM_ATOL = 1e-3
SLACK = 1e-9


def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def source_facts(probs, mats) -> dict:
    """Spectrum of the source density, its entropy and the Holevo quantity."""
    rho = sum(p * m for p, m in zip(probs, mats))
    s_rho = _entropy(rho)
    holevo = s_rho - sum(p * _entropy(m) for p, m in zip(probs, mats))
    lam = np.sort(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0))[::-1]
    return {"spectrum": [float(x) for x in lam], "entropy": s_rho, "holevo": holevo,
            "count": len(probs)}


def _qubit_top_mass(lam: float, n: int, cap: int) -> float:
    """Mass of the ``cap`` most probable eigen-strings of a qubit source, lam > 1/2."""
    mass, left = 0.0, cap
    for j in range(n + 1):
        take = min(left, math.comb(n, j))
        mass += take * lam ** (n - j) * (1.0 - lam) ** j
        left -= take
        if left == 0:
            break
    return mass


def _close(name: str, got, want: float, atol: float) -> list[str]:
    if got is None or not abs(got - want) <= atol:
        return [f"{name}={got!r}, expected {want!r} within {atol:g}"]
    return []


def _js_common(op: dict, v: dict) -> list[str]:
    bad = []
    if v["channel_dim"] != op["dim_cap"]:
        bad.append(f"channel_dim={v['channel_dim']}, expected {op['dim_cap']}")
    bad += _close("rate", v["rate"], math.log2(op["dim_cap"]) / op["n"], 1e-12)
    if v["sampled"] != (op["sampling"] == "mc"):
        bad.append(f"sampled={v['sampled']} for sampling={op['sampling']}")
    if op["sampling"] == "mc":
        if sum(v["draws"]) != op["samples"]:
            bad.append(f"draws sum to {sum(v['draws'])}, expected {op['samples']}")
    elif v["seqs"] != op["count"] ** op["n"]:
        bad.append(f"{v['seqs']} sequences, expected {op['count'] ** op['n']}")
    return bad


def check_js(op: dict, v: dict, facts: dict) -> list[str]:
    """Closed forms for the two JS sources.

    Rank-1 pair with equal overlaps (|0>/|+>): every sequence keeps the same
    mass w, so F = w^2 + (1-w) lam^n per sequence.  Single mixed qubit
    diag(p, 1-p): F = (w - p^n + sqrt(p^n (p^n + 1 - w)))^2.
    """
    op = dict(op, count=facts["count"])
    bad = _js_common(op, v)
    lam, n = facts["spectrum"][0], op["n"]
    w = _qubit_top_mass(lam, n, op["dim_cap"])
    if facts["count"] == 1:
        p0 = lam ** n
        want = (w - p0 + math.sqrt(p0 * (p0 + 1.0 - w))) ** 2
        return bad + _close("avg_fidelity", v["avg_fidelity"], want, TYPICAL_ATOL)
    want = w * w + (1.0 - w) * lam ** n
    for i, f in enumerate(v["fidelities"]):
        bad += _close(f"fidelity[{i}]", f, want, CLOSED_FORM_ATOL)
    return bad + _close("avg_fidelity", v["avg_fidelity"], want, CLOSED_FORM_ATOL)


def check_minimize(op: dict, v: dict, facts: dict) -> list[str]:
    """Entropy envelope I_LH <= S_min <= S(rho); exactly 1 bit for the orthogonal pair."""
    s = v["best_entropy"]
    bad = []
    if not facts["holevo"] - ENTROPY_ATOL <= s <= facts["entropy"] + ENTROPY_ATOL:
        bad.append(f"best_entropy={s!r} outside [{facts['holevo']!r}, {facts['entropy']!r}]")
    if op["source"] == "orthogonal-pair":
        bad += _close("best_entropy", s, 1.0, MINIMUM_ATOL)
    if v["starts"] != op["multistarts"]:
        bad.append(f"{v['starts']} starts, expected {op['multistarts']}")
    return bad


def check_ep(op: dict, v: dict, facts: dict) -> list[str]:
    """Bounds any exact extension-protocol run must meet.

    The kept mass is w >= 1-eps, and each sequence keeps fidelity at least
    (Tr P sigma)^2 before the trace, so the pre-trace average is at least
    w^2 >= (1-eps)^2; tracing the ancillas can only raise it.  The orthogonal
    pair must also meet criterion 8 (rate <= 1.2, fidelity >= 0.95).
    """
    f, fe = v["avg_fidelity"], v["ext_avg_fidelity"]
    bad = []
    if not (1.0 - op["eps"]) ** 2 - SLACK <= fe <= f + SLACK <= 1.0 + 2 * SLACK:
        bad.append(f"need (1-eps)^2 <= ext_avg_fidelity={fe!r} <= avg_fidelity={f!r} <= 1")
    if v["seqs"] != facts["count"] ** op["k"]:
        bad.append(f"{v['seqs']} sequences, expected {facts['count'] ** op['k']}")
    bad += _close("rate", v["rate"], math.log2(v["channel_dim"]) / op["k"], 1e-12)
    if f >= 0.99 and v["rate"] < facts["holevo"] - SLACK:
        bad.append(f"rate {v['rate']!r} below the Holevo quantity {facts['holevo']!r}")
    if op["source"] == "orthogonal-pair" and not (v["rate"] <= 1.2 and f >= 0.95):
        bad.append(f"criterion 8: rate={v['rate']!r} (<= 1.2), fidelity={f!r} (>= 0.95)")
    return bad


def check(op: dict, values: dict, facts: dict) -> list[str]:
    if op["kind"] == "js":
        return check_js(op, values, facts)
    if op["kind"] == "minimize":
        return check_minimize(op, values, facts)
    return check_ep(op, values, facts)
