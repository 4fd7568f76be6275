"""Benchmark worker: one fresh single-process run of one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS pinned to one thread.  It imports enscomp, loads the ensemble files
with ``cli.load_ensemble`` and reports the wall-clock time at which it was
ready, so the parent can time set-up from spawn.  Unless ``--setup-only`` is
given it then runs whole passes over the op list for about ``--seconds``
(at least one pass).  With ``--trace 1`` it alternates
untraced and traced passes, so the tracing overhead can be measured on the
same inputs.  It prints one JSON object as its last stdout line.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import enscomp  # spawn-to-ready, this import included, is the timed set-up
import tracer
import workloads


def _run_pass(ops, ensembles) -> list[dict]:
    assignments: dict = {}
    records = []
    for op in ops:
        rec = {"status": "ok"}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rec["values"] = workloads.run_op(op, ensembles, assignments)
        except enscomp.EnscompError as exc:
            rec.update(status="error", error=type(exc).__name__, message=str(exc))
        except Exception as exc:  # a crash in one op must not hide the others
            rec.update(status="error", error=type(exc).__name__, message=str(exc),
                       traceback=traceback.format_exc())
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        records.append(rec)
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = os.path.realpath(args.src)
    if not os.path.realpath(enscomp.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported enscomp from {enscomp.__file__}, not from {src}")

    with open(os.path.join(args.workdir, "inputs.json")) as fh:
        inputs = json.load(fh)
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    ensembles = {name: enscomp.cli.load_ensemble(path) for name, path in inputs["sources"].items()}
    out = {"ready_at": time.time()}
    if tr:
        tr.uninstall()
        out["setup_spans"] = tr.take()
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ops = inputs["ops"]
    unit = 2 if tr else 1  # trace mode measures untraced/traced pairs
    passes = []
    start = time.perf_counter()
    while True:
        traced = tr is not None and len(passes) % 2 == 1
        if traced:
            tr.install()
        t0 = time.perf_counter()
        try:
            records = _run_pass(ops, ensembles)
        finally:
            if traced:
                tr.uninstall()
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t0, "ops": records})
        if traced:
            passes[-1]["spans"] = tr.take()
        if len(passes) % unit == 0:
            # stop where the run ends closest to --seconds: the next pass
            # (or pair) would overrun by more than half its own length
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 * unit / len(passes)) > args.seconds:
                break
    out["passes"] = passes
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["enscomp_file"] = enscomp.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
