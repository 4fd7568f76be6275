"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from math import comb

import numpy as np

from enscomp import bounds, cli, extopt, linalg, protocol, reference, states
from enscomp.fidelity import (
    canonical_purification,
    fidelity,
    lemma_extension,
    optimal_purification,
)
from enscomp.states import DensityMatrix, Ensemble

import dense_oracle
from conftest import rand_density, rand_ensemble, rand_pure_density, rand_unitary


def _report(num: int, desc: str, ok: bool, elapsed: float) -> bool:
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num:2d} ({elapsed:6.1f}s): {desc}")
    return ok


def test_criterion_01_fidelity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 5))
        a, b = rand_density(rng, d), rand_density(rng, d)
        ok &= abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9
        u = rand_unitary(rng, d)
        ua = DensityMatrix(u @ a.matrix @ u.conj().T, (d,))
        ub = DensityMatrix(u @ b.matrix @ u.conj().T, (d,))
        ok &= abs(fidelity(ua, ub) - fidelity(a, b)) <= 1e-10
        psi = rand_pure_density(rng, d)
        direct = float(np.real(np.trace(a.matrix @ psi.matrix)))
        ok &= abs(fidelity(a, psi) - direct) <= 1e-10
        big_a = rand_density(rng, 4, dims=(2, 2))
        big_b = rand_density(rng, 4, dims=(2, 2))
        red_a = DensityMatrix(linalg.partial_trace(big_a.matrix, (2, 2), {0}), (2,))
        red_b = DensityMatrix(linalg.partial_trace(big_b.matrix, (2, 2), {0}), (2,))
        ok &= fidelity(red_a, red_b) >= fidelity(big_a, big_b) - 1e-9
    commuting = fidelity(
        DensityMatrix(np.diag([0.9, 0.1]), (2,)),
        DensityMatrix(np.diag([0.5, 0.5]), (2,)),
    )
    ok &= abs(commuting - 0.8) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _report(1, "fidelity suite (200 random pairs, dims 2-4)", ok, elapsed)


def test_criterion_02_uhlmann_lemma_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 4))
        rho, sig = rand_density(rng, d), rand_density(rng, d)
        phi_prime = canonical_purification(sig)
        phi = optimal_purification(rho, phi_prime)
        overlap = abs(np.vdot(phi_prime.amplitudes, phi.amplitudes)) ** 2
        ok &= abs(overlap - fidelity(rho, sig)) <= 1e-8

        rho_s = rand_density(rng, 2)
        rpe = rand_density(rng, 4, dims=(2, 2))
        ext = lemma_extension(rho_s, rpe)
        red = linalg.partial_trace(ext.matrix, (2, 2), {0})
        ok &= linalg.trace_norm(red - rho_s.matrix) <= 1e-9
        rho_p = DensityMatrix(linalg.partial_trace(rpe.matrix, (2, 2), {0}), (2,))
        ok &= abs(fidelity(ext, rpe) - fidelity(rho_s, rho_p)) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _report(2, "Uhlmann/lemma suite (100 random instances)", ok, elapsed)


MINIMIZER_CASES = (
    (
        "single mixed",
        Ensemble([1.0], (DensityMatrix(np.eye(2) / 2, (2,)),)),
        extopt.OptimizerConfig(multistarts=4, max_iters=400, seed=42, ancilla_dim=2),
        0.0,
        1e-4,
    ),
    (
        "orthogonal pair",
        reference.orthogonal_pair(),
        extopt.OptimizerConfig(
            multistarts=8, max_iters=800, seed=42, ancilla_dim=4, purifier_dim=2
        ),
        1.0,
        1e-3,
    ),
    (
        "pure pair",
        reference.zero_plus_pair(),
        extopt.OptimizerConfig(multistarts=4, max_iters=400, seed=42, ancilla_dim=2),
        None,  # S(rho), computed below
        1e-3,
    ),
)


def _run_minimizer_cases():
    results = []
    for name, e, cfg, target, tol in MINIMIZER_CASES:
        if target is None:
            target = states.von_neumann_entropy(states.ensemble_density(e))
        res = extopt.minimize_extension_entropy(e, cfg)
        results.append((name, e, cfg, target, tol, res))
    return results


def test_criterion_03_minimizer_exactness():
    t0 = time.perf_counter()
    ok = True
    for name, e, cfg, target, tol, res in _run_minimizer_cases():
        if name == "single mixed":
            ok &= res.best_entropy <= tol
        else:
            ok &= abs(res.best_entropy - target) <= tol
        ok &= cfg.multistarts <= 16
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _report(3, "minimizer exactness on analytic cases", ok, elapsed)


def test_criterion_04_envelope_and_reproducibility():
    t0 = time.perf_counter()
    ok = True
    for name, e, cfg, target, tol, res in _run_minimizer_cases():
        lower = states.holevo_quantity(e)
        upper = states.von_neumann_entropy(states.ensemble_density(e))
        ok &= lower - 1e-6 <= res.best_entropy <= upper + 1e-6
        ok &= bounds.envelope_check(e, res.best_entropy).satisfied
        rerun = extopt.minimize_extension_entropy(e, cfg)
        ok &= rerun.history == res.history
        ok &= rerun.best_entropy == res.best_entropy
    elapsed = time.perf_counter() - t0
    assert _report(4, "envelope bound and seed reproducibility", ok, elapsed)


def test_criterion_05_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    a_dim = q_dim = 2
    n = a_dim * q_dim
    h = 1e-5
    for _ in range(50):
        e = rand_ensemble(rng, 2, 2)
        params = tuple(rng.normal(size=2 * n * n) for _ in range(len(e)))
        asn = extopt.ExtensionAssignment(2, a_dim, q_dim, params)
        grad = extopt.entropy_gradient(e, asn)
        flat = np.concatenate(params)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            # the objective's own definition, by scipy's expm
            f_up, _ = dense_oracle.expm_frechet_gradient(
                e, extopt.ExtensionAssignment(2, a_dim, q_dim, tuple(np.split(up, len(e)))))
            f_dn, _ = dense_oracle.expm_frechet_gradient(
                e, extopt.ExtensionAssignment(2, a_dim, q_dim, tuple(np.split(dn, len(e)))))
            fd[i] = (f_up - f_dn) / (2 * h)
        ok &= np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)
    elapsed = time.perf_counter() - t0
    assert _report(5, "analytic gradient vs central differences (50 points)", ok, elapsed)


def test_criterion_06_typical_subspace_numbers():
    t0 = time.perf_counter()
    rho = DensityMatrix(np.diag([0.9, 0.1]), (2,))
    ts = protocol.typical_subspace(rho, 10, dim_cap=176)
    # binomial-tail oracle: strings with at most 3 minority symbols;
    # frozen values computed from it: mass 0.9872048016, rate log2(176)/10
    mass_oracle = sum(comb(10, k) * 0.9 ** (10 - k) * 0.1 ** k for k in range(4))
    ok = abs(ts.retained_mass - mass_oracle) <= 1e-6
    ok &= abs(ts.retained_mass - 0.9872048016) <= 1e-6
    ok &= abs(protocol.rate_of(ts.dim, 10) - 0.7459431618637298) <= 1e-6
    ok &= sum(comb(10, k) for k in range(4)) == 176 == ts.dim
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert _report(6, "typical-subspace binomial numbers (n=10, cap 176)", ok, elapsed)


def _qubit_top_mass(lam: float, n: int, cap: int) -> float:
    """Mass of the ``cap`` most probable eigen-strings of a qubit source.

    Binomial oracle: strings with j minority symbols share one probability,
    so a partially kept class contributes exactly ``take * p_j``.
    """
    mass, left = 0.0, cap
    for j in range(n + 1):
        take = min(left, comb(n, j))
        mass += take * lam ** (n - j) * (1.0 - lam) ** j
        left -= take
    return mass


def test_criterion_07_fidelity_trend():
    # Fixed rate budget 0.8 qubits/signal on the |0>/|+> source, n=4,8,12.
    # For pure signals no m-dim encoding beats the mass w_n of the top m
    # eigen-strings of rho^(x)n (Barnum-Fuchs-Jozsa-Schumacher converse); at
    # rate 0.65 that is 0.911, 0.892, 0.856, so the trend cannot show there.
    # Every sequence of this source has F = w^2 + (1-w) lam^n, so the MC mean
    # does not depend on the draw count (stderr <= 1e-10 checks that); 16
    # draws at n=12 suffice.  The rank-1 rows route meets the closed form to
    # rounding (6e-14 at m=776), hence the 1e-10 budget.
    t0 = time.perf_counter()
    e = reference.zero_plus_pair()
    lam = (2 + np.sqrt(2)) / 4
    fids, masses, ok = [], [], True
    for n, draws in ((4, None), (8, 400), (12, 16)):
        cap = int(2 ** (0.8 * n))
        if draws is None:
            res = protocol.js_protocol(e, n, dim_cap=cap, sampling="exact")
        else:
            res = protocol.js_protocol(
                e, n, dim_cap=cap, sampling="mc", mc_samples=draws, seed=7
            )
            ok &= res.stderr <= 1e-10
        w = _qubit_top_mass(lam, n, cap)
        f = res.avg_fidelity
        ok &= abs(f - (w ** 2 + (1 - w) * lam ** n)) <= 1e-10
        ok &= f <= w
        fids.append(f)
        masses.append(w)
    elapsed = time.perf_counter() - t0
    ok &= fids[0] < fids[1] < fids[2] and fids[2] > 0.9
    trend = ", ".join(f"{f:.4f} (w {w:.4f})" for f, w in zip(fids, masses))
    _report(7, f"fidelity trend at rate 0.8: {trend}", ok, elapsed)
    assert ok, (
        "avg fidelity at rate 0.8 must increase strictly over n=4,8,12, exceed "
        "0.9 at n=12, match w^2 + (1-w) lam^n within 1e-10 and stay <= w, with "
        f"MC stderr <= 1e-10; measured {fids}, typical masses w {masses}"
    )


def test_criterion_08_extension_protocol_end_to_end():
    t0 = time.perf_counter()
    e = reference.orthogonal_pair()
    cfg = extopt.OptimizerConfig(
        multistarts=8, max_iters=500, seed=42, ancilla_dim=2, purifier_dim=2
    )
    res = extopt.minimize_extension_entropy(e, cfg)
    ok = abs(res.best_entropy - 1.0) <= 1e-3
    ep = protocol.extension_protocol(
        e, 1, res.best_assignment, 4, eps=0.05, sampling="exact"
    )
    ok &= ep.rate <= 1.2
    ok &= ep.avg_fidelity >= 0.95

    trivial = extopt.trivial_assignment(e, 1, 4)
    js = protocol.js_protocol(e, 4, eps=0.05, sampling="exact")
    ep_triv = protocol.extension_protocol(e, 1, trivial, 4, eps=0.05, sampling="exact")
    ok &= abs(js.rate - ep_triv.rate) <= 1e-9
    ok &= abs(js.avg_fidelity - ep_triv.avg_fidelity) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    assert _report(8, "extension protocol end-to-end (orthogonal pair, k=4)", ok, elapsed)


def test_criterion_09_bounds(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    checked = 0
    while checked < 1000:
        rho = rand_density(rng, 2)
        mix = rand_density(rng, 2)
        t = rng.uniform(0.0, 0.06)
        rho_t = DensityMatrix((1 - t) * rho.matrix + t * mix.matrix, (2,))
        rep = bounds.entropy_continuity_check(rho, rho_t)
        ok &= rep.applicable and rep.satisfied
        checked += 1

    e = reference.zero_plus_pair()
    res = protocol.js_protocol(e, 6, eps=0.002, sampling="exact")
    ok &= res.avg_fidelity >= 0.99
    ok &= bounds.holevo_bound_check(e, res.rate).satisfied

    # a violated report must exit nonzero through the CLI
    path = str(tmp_path / "e.json")
    cli.save_ensemble(e, path)
    violated = bounds.BoundReport("forced", lhs=1.0, rhs=0.0)
    monkeypatch.setattr(bounds, "holevo_bound_check", lambda *args: violated)
    code = cli.main(["simulate-js", path, "--n", "2", "--eps", "0.1"])
    capsys.readouterr()
    ok &= code == 3
    elapsed = time.perf_counter() - t0
    assert _report(9, "continuity sweep (1000 pairs) + Holevo + exit code", ok, elapsed)


def test_criterion_10_cli_round_trip(tmp_path):
    t0 = time.perf_counter()
    ok = True
    ensembles = {
        "orthogonal-pair": reference.orthogonal_pair(),
        "zero-plus-pair": reference.zero_plus_pair(),
        "biased-qubit": reference.biased_qubit(),
    }
    shared = tmp_path / "inputs"
    shared.mkdir()
    for name, e in ensembles.items():
        cli.save_ensemble(e, str(shared / f"{name}.json"))
    shared_assignment = str(shared / "assignment.json")

    def pipeline(run_dir):
        run_dir.mkdir()
        outputs = {}
        for name in ensembles:
            path = str(shared / f"{name}.json")
            a_out = run_dir / f"{name}.analyze.csv"
            assert cli.main(["analyze", path, "--seed", "5", "--out", str(a_out)]) == 0
            m_out = run_dir / f"{name}.minimize.csv"
            assert cli.main([
                "minimize", path, "--ancilla-dim", "2", "--purifier-dim", "2",
                "--multistarts", "3", "--max-iters", "200", "--seed", "5",
                "--out", str(m_out),
            ]) == 0
            s_out = run_dir / f"{name}.simulate.csv"
            if name == "orthogonal-pair":
                # stage the assignment at a run-independent path so both
                # simulate-ep invocations share an identical configuration
                sidecar = (run_dir / f"{name}.minimize.csv.assignment.json").read_bytes()
                with open(shared_assignment, "wb") as fh:
                    fh.write(sidecar)
                assert cli.main([
                    "simulate-ep", path, "--k", "3", "--eps", "0.05",
                    "--assignment", shared_assignment,
                    "--seed", "5", "--out", str(s_out),
                ]) == 0
            else:
                assert cli.main([
                    "simulate-js", path, "--n", "6", "--dim-cap", "14",
                    "--sampling", "mc", "--samples", "80", "--seed", "5",
                    "--out", str(s_out),
                ]) == 0
            for f in (a_out, m_out, s_out):
                outputs[f.name] = f.read_bytes()
        return outputs

    run1 = pipeline(tmp_path / "run1")
    run2 = pipeline(tmp_path / "run2")
    ok &= set(run1) == set(run2)
    for name in run1:
        ok &= run1[name] == run2[name]
    elapsed = time.perf_counter() - t0
    assert _report(10, "CLI load/analyze/minimize/simulate byte-identical", ok, elapsed)
