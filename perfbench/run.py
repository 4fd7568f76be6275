"""enscomp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload js-mc-zero-plus --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  The script builds the workload's inputs
from ``--seed`` with ``enscomp.reference`` and writes them as ensemble JSON,
then starts fresh single-process workers (``worker.py``) with
``OPENBLAS_NUM_THREADS=1``: several that only set up (import enscomp, load
the inputs), for the median set-up time, and one that also runs whole passes
over the workload's ops for ``--seconds``.  Every op's answer is checked
against an independent oracle (``oracles.py``); a mismatch or an error counts
the op as failed.  Throughput counts successful work only, while the time of
failed ops stays in the denominator, so fixing a failing op cannot read as a
slowdown.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (environment, per-op wall and CPU time, values,
errors, spans) goes to ``.perfbench_runs/`` in the checkout.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "seq_per_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

# spans reported as "<span>.calls" and "<span>.s" (self seconds)
CALLS_AND_S = (
    "protocol.typical_subspace",
    "linalg.psd_sqrt",
    "linalg.kron_all",
    "linalg.singular_values",
    "linalg.hermitian_eig",
    "linalg.partial_trace",
    "fidelity.fidelity",
    "states.DensityMatrix",
)
# spans reported as "<span>.s" (self seconds) only
S_ONLY = (
    "extopt.minimize_extension_entropy",
    "states.product_ensemble",
    "extopt.extended_ensemble",
    "bounds.holevo_bound_check",
    "bounds.envelope_check",
    "cli.load_ensemble",
)
PER_LAYER = {
    "protocol.js_protocol.self_s": "s",
    "protocol.js_protocol.seqs": "count",
    "protocol.js_protocol.draws": "count",
    "protocol.s_per_seq": "s",
    "protocol.mc_distinct_ratio": "fraction",
    "protocol.typical_subspace.strings": "count",
    "protocol.typical_subspace.dim": "count",
    "protocol.extension_protocol.self_s": "s",
    "protocol.extension_protocol.seqs": "count",
    "extopt.minimize_extension_entropy.starts": "count",
    "extopt.minimize_extension_entropy.iters": "count",
    "extopt.minimize_extension_entropy.converged_frac": "fraction",
    "extopt.s_per_iter": "s",
    "extopt.starts_per_s": "1/s",
    **{f"{span}.calls": "count" for span in CALLS_AND_S},
    **{f"{span}.s": "s" for span in CALLS_AND_S + S_ONLY},
    "ops.failed.bound_violation": "count",
    "ops.failed.other_error": "count",
    "ops.failed.answer_mismatch": "count",
    "trace.spans_missing": "count",
    "trace_overhead_frac": "fraction",
}

# Spans each workload must fire.  A rename or an inlined layer then shows as
# trace.spans_missing > 0 instead of a silent zero.  linalg.partial_trace and
# fidelity.fidelity are not reached by the CLI's calls on any workload.
EXPECTED_SPANS = {
    "js-mc-zero-plus": (
        "cli.load_ensemble", "states.DensityMatrix", "protocol.js_protocol",
        "protocol.typical_subspace", "linalg.hermitian_eig", "states.ensemble_density",
    ),
    "js-typical-biased": (
        "cli.load_ensemble", "states.DensityMatrix", "protocol.js_protocol",
        "protocol.typical_subspace", "linalg.hermitian_eig", "states.ensemble_density",
    ),
    "ep-visible": (
        "cli.load_ensemble", "states.DensityMatrix", "extopt.minimize_extension_entropy",
        "bounds.envelope_check", "bounds.holevo_bound_check", "states.holevo_quantity",
        "protocol.extension_protocol", "protocol.typical_subspace", "states.product_ensemble",
        "extopt.extended_ensemble", "linalg.psd_sqrt", "linalg.kron_all",
        "linalg.singular_values", "linalg.hermitian_eig",
    ),
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "machine": platform.machine(),
    }


def spawn(workdir: pathlib.Path, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> tuple[float, dict]:
    """Run one worker; return (spawn-to-ready seconds, its JSON output)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
           "--src", str(SRC), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.time()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("worker overran the run budget")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    return out["ready_at"] - spawned_at, out


def check_answers(ops, passes, facts) -> dict:
    """Check every op of every pass; annotate records with status and mismatches."""
    first_values: dict[int, dict] = {}
    for p in passes:
        for i, (op, rec) in enumerate(zip(ops, p["ops"])):
            if rec["status"] != "ok":
                continue
            bad = oracles.check(op, rec["values"], facts[op["source"]])
            # same inputs in every pass: the answers must repeat
            ref = first_values.setdefault(i, rec["values"])
            bad += [f"{k} differs from the first pass" for k, v in rec["values"].items()
                    if not _same(v, ref[k])]
            if bad:
                rec.update(status="mismatch", mismatches=bad)
    return {"attempted": sum(len(p["ops"]) for p in passes),
            "failed": sum(r["status"] != "ok" for p in passes for r in p["ops"])}


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9
    return a == b


def end_to_end(ops, passes, setup_samples, maxrss_kb) -> dict:
    # one ratio over the whole run: a median over passes would jump between
    # the fast and slow phases of a shared machine instead of averaging them
    protocol = [r for p in passes for op, r in zip(ops, p["ops"]) if op["kind"] in ("js", "ep")]
    seqs = sum(r["values"]["seqs"] for r in protocol if r["status"] == "ok")
    recs = [r for p in passes for r in p["ops"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "seq_per_s": seqs / sum(r["wall_s"] for r in protocol),
        "ok_frac": sum(r["status"] == "ok" for r in recs) / len(recs),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def per_layer(workload, worker_out) -> tuple[dict, list[str]]:
    """Per-pass layer metrics (median over traced passes) plus set-up spans."""
    passes = worker_out["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    setup = worker_out["setup_spans"]

    def value(span, key, p):
        return setup.get(span, {}).get(key, 0) + p["spans"].get(span, {}).get(key, 0)

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def failures(p, kind):
        recs = p["ops"]
        if kind == "answer_mismatch":
            return sum(r["status"] == "mismatch" for r in recs)
        errs = [r for r in recs if r["status"] == "error"]
        if kind == "bound_violation":
            return sum(r["error"] == "BoundViolationError" for r in errs)
        return sum(r["error"] != "BoundViolationError" for r in errs)

    m = {}
    js, ep, mini = "protocol.js_protocol", "protocol.extension_protocol", "extopt.minimize_extension_entropy"
    m["protocol.js_protocol.self_s"] = med(lambda p: value(js, "self_s", p))
    m["protocol.js_protocol.seqs"] = med(lambda p: value(js, "seqs", p))
    m["protocol.js_protocol.draws"] = med(lambda p: value(js, "draws", p))
    m["protocol.s_per_seq"] = med(lambda p: ratio(value(js, "s", p) + value(ep, "s", p),
                                                  value(js, "seqs", p) + value(ep, "seqs", p)))
    m["protocol.mc_distinct_ratio"] = med(lambda p: ratio(value(js, "mc_seqs", p), value(js, "draws", p)))
    m["protocol.typical_subspace.strings"] = med(lambda p: value("protocol.typical_subspace", "strings", p))
    m["protocol.typical_subspace.dim"] = med(lambda p: value("protocol.typical_subspace", "dim", p))
    m["protocol.extension_protocol.self_s"] = med(lambda p: value(ep, "self_s", p))
    m["protocol.extension_protocol.seqs"] = med(lambda p: value(ep, "seqs", p))
    m[f"{mini}.starts"] = med(lambda p: value(mini, "starts", p))
    m[f"{mini}.iters"] = med(lambda p: value(mini, "iters", p))
    m[f"{mini}.converged_frac"] = med(lambda p: ratio(value(mini, "converged", p), value(mini, "starts", p)))
    m["extopt.s_per_iter"] = med(lambda p: ratio(value(mini, "s", p), value(mini, "iters", p)))
    m["extopt.starts_per_s"] = med(lambda p: ratio(value(mini, "starts", p), value(mini, "s", p)))
    for span in CALLS_AND_S:
        m[f"{span}.calls"] = med(lambda p: value(span, "calls", p))
    for span in CALLS_AND_S + S_ONLY:
        m[f"{span}.s"] = med(lambda p: value(span, "self_s", p))
    for kind in ("bound_violation", "other_error", "answer_mismatch"):
        m[f"ops.failed.{kind}"] = med(lambda p: failures(p, kind))
    fired = set(setup) | {name for p in traced for name in p["spans"]}
    missing = [s for s in EXPECTED_SPANS[workload] if s not in fired]
    m["trace.spans_missing"] = len(missing)
    plain = statistics.median(p["wall_s"] for p in untraced)
    m["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced) - plain) / plain
    return m, missing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny op sizes, for the smoke check")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "enscomp" / "__init__.py").is_file():
        raise SystemExit(f"no enscomp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports enscomp

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    workdir = RUNS / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sources = workloads.build_sources(args.workload, args.seed, args.toy)
        ops = workloads.build_ops(args.workload, args.seed, args.toy)
        with open(workdir / "inputs.json", "w") as fh:
            json.dump({"sources": workloads.write_sources(sources, workdir), "ops": ops}, fh)
        facts = {name: oracles.source_facts(e.probs, [s.matrix for s in e.states])
                 for name, e in sources.items()}

        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(spawn(workdir, 0.0, 0, True, deadline)[0])
        setup_s, out = spawn(workdir, args.seconds, args.trace, False, deadline)
        setup_samples.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = out["passes"]
    counts = check_answers(ops, passes, facts)
    missing = []
    if args.trace:
        metrics, missing = per_layer(args.workload, out)
        units = PER_LAYER
    else:
        metrics = end_to_end(ops, passes, setup_samples, out["maxrss_kb"])
        units = END_TO_END
    correct = not any(r["status"] == "mismatch" for p in passes for r in p["ops"])

    record = {
        "workload": args.workload, "toy": args.toy, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed), "correct": correct,
        **counts, "metrics": metrics, "setup_samples_s": setup_samples,
        "missing_spans": missing, "ops": ops, "passes": passes,
        "setup_spans": out.get("setup_spans"), "enscomp_file": out["enscomp_file"],
    }
    with open(RUNS / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    errors: dict[str, int] = {}
    for p in passes:
        for r in p["ops"]:
            if r["status"] != "ok":
                key = r.get("error", "answer_mismatch")
                errors[key] = errors.get(key, 0) + 1
    print(f"# {tag}: {len(passes)} passes, env {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# failed ops by type: {json.dumps(errors, sort_keys=True)}")
    if missing:
        print(f"# declared spans that did not fire: {', '.join(missing)}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
