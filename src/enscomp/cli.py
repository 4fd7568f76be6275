"""Batch command-line front-end.

Commands
--------
analyze      entropies, Holevo quantity and support dimensions of an ensemble
minimize     extension-entropy minimization (the optimal visible rate proxy)
simulate-js  Jozsa-Schumacher protocol at finite block length
simulate-ep  extension protocol (extend, JS-compress, trace ancillas)
sweep        repeat simulate-js over n (or simulate-ep over k), one row each

Ensembles are JSON files: {"probs": [...], "states": [...], "factor_dims":
[...]} with every complex entry written as an [re, im] pair, states row-major.

Primary output (CSV or JSON) is byte-identical across reruns with the same
configuration and seed; wall-clock metadata goes to a ``<out>.meta.json``
sidecar.  Exit codes: 0 success, 1 usage/parse, 2 validation, 3 bound
violation, 4 resource guard.
"""

import argparse
import dataclasses
import json
import operator
import sys
import time

import numpy as np

from . import __version__, bounds, extopt, linalg, protocol, states
from .errors import (
    BoundViolationError,
    DimensionGuardError,
    EnsembleParseError,
    ValidationError,
)

SIMULATE_HEADER = ("n", "channel_dim", "rate", "avg_fidelity", "stderr", "seed")
ANALYZE_HEADER = ("quantity", "index", "value")
MINIMIZE_HEADER = (
    "start_index",
    "initial_entropy",
    "final_entropy",
    "iterations",
    "converged",
    "best",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


# ---------------------------------------------------------------------------
# ensemble file I/O


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise EnsembleParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise EnsembleParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_ensemble(path: str) -> states.Ensemble:
    """Load and validate an ensemble JSON file.

    Probability sums off by at most ``linalg.ATOL`` are renormalized; larger
    deviations are rejected.  State validation failures name the offending
    state index.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise EnsembleParseError(f"{path}: top level must be a JSON object")
    for key in ("probs", "states", "factor_dims"):
        if key not in payload:
            raise EnsembleParseError(f"{path}: missing field {key!r}")
    if not isinstance(payload["states"], list):
        raise EnsembleParseError(f"{path}: states must be a list")
    try:
        probs = np.asarray(payload["probs"], dtype=float)
        dims = tuple(operator.index(d) for d in payload["factor_dims"])
    except (TypeError, ValueError) as exc:
        raise EnsembleParseError(
            f"{path}: probs must be numbers and factor_dims a list of integers ({exc})"
        ) from exc
    total = float(probs.sum())
    if abs(total - 1.0) > linalg.ATOL:
        raise ValidationError(
            f"probability sum {total!r} deviates from 1 by more than {linalg.ATOL:g}"
        )
    probs = probs / total
    sts = []
    for k, rows in enumerate(payload["states"]):
        try:
            dim, widths = int(np.prod(dims)), [len(row) for row in rows]
            if len(set(widths)) > 1:
                i = next(i for i, w in enumerate(widths) if w != dim)
                raise EnsembleParseError(
                    f"{path}: state {k}: row {i} has {widths[i]} entries, expected {dim}")
            m = np.array(
                [[complex(re, im) for re, im in row] for row in rows],
                dtype=np.complex128,
            )
        except (TypeError, ValueError) as exc:
            raise EnsembleParseError(
                f"{path}: state {k}: entries must be [re, im] pairs ({exc})"
            ) from exc
        try:
            sts.append(states.DensityMatrix(m, dims))
        except ValidationError as exc:
            raise ValidationError(f"state {k}: {exc}") from exc
    return states.Ensemble(probs, tuple(sts))


def save_ensemble(e: states.Ensemble, path: str) -> None:
    payload = {
        "probs": [float(p) for p in e.probs],
        "factor_dims": list(e.states[0].factor_dims),
        "states": [
            [[[z.real, z.imag] for z in row] for row in s.matrix]
            for s in e.states
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def assignment_to_payload(a: extopt.ExtensionAssignment) -> dict:
    return {
        "system_dim": a.system_dim,
        "ancilla_dim": a.ancilla_dim,
        "purifier_dim": a.purifier_dim,
        "params": [[float(x) for x in p] for p in a.params],
    }


def assignment_from_payload(payload: dict) -> extopt.ExtensionAssignment:
    try:
        return extopt.ExtensionAssignment(
            operator.index(payload["system_dim"]),
            operator.index(payload["ancilla_dim"]),
            operator.index(payload["purifier_dim"]),
            tuple(np.asarray(p, dtype=float) for p in payload["params"]),
        )
    except KeyError as exc:
        raise EnsembleParseError(f"assignment file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EnsembleParseError(f"assignment file has a malformed field ({exc})") from exc


def load_assignment(path: str) -> extopt.ExtensionAssignment:
    payload = _read_json(path)
    # accept both a bare assignment and the minimize-run sidecar wrapper
    if isinstance(payload, dict) and "assignment" in payload:
        payload = payload["assignment"]
    return assignment_from_payload(payload)


# ---------------------------------------------------------------------------
# output assembly


def _config_echo(args: argparse.Namespace) -> dict:
    # the output destination is not part of the experiment configuration,
    # and keeping it out makes reruns to different paths byte-identical
    skip = {"func", "out"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _emit(args, header, rows, reports, extra=None) -> None:
    cfg = _config_echo(args)
    if args.format == "json":
        doc = {
            "tool": "enscomp",
            "version": __version__,
            "config": {k: str(v) for k, v in cfg.items()},
            "seed": args.seed,
            "bounds": [dataclasses.asdict(r) for r in reports],
            "columns": list(header),
            "rows": [[x for x in row] for row in rows],
        }
        if extra:
            doc.update(extra)
        text = json.dumps(doc, sort_keys=True, indent=2, default=_fmt) + "\n"
    else:
        lines = [
            f"# tool=enscomp version={__version__}",
            "# config: " + " ".join(f"{k}={v}" for k, v in cfg.items()),
            f"# seed={args.seed}",
        ]
        for r in reports:
            lines.append(
                f"# bound {r.name}: lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} "
                f"satisfied={_fmt(r.satisfied)} applicable={_fmt(r.applicable)} "
                f"slack={_fmt(r.slack)}"
            )
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".meta.json", "w") as fh:
            json.dump({"written_at": time.time(), "tool": "enscomp"}, fh)
            fh.write("\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    e = load_ensemble(args.ensemble)
    rho = states.ensemble_density(e)
    rows = [
        ("ensemble_entropy", "", states.von_neumann_entropy(rho)),
        ("holevo_quantity", "", states.holevo_quantity(e)),
        ("ensemble_support_dim", "", states.support_dim(rho)),
    ]
    for k, s in enumerate(e.states):
        rows.append(("state_entropy", k, states.von_neumann_entropy(s)))
        rows.append(("state_support_dim", k, states.support_dim(s)))
    _emit(args, ANALYZE_HEADER, rows, [])
    return 0


def _optimizer_config(args) -> extopt.OptimizerConfig:
    return extopt.OptimizerConfig(
        multistarts=args.multistarts,
        max_iters=args.max_iters,
        seed=args.seed,
        ancilla_dim=args.ancilla_dim,
        purifier_dim=1 if args.pure_extensions else args.purifier_dim,
    )


def cmd_minimize(args) -> int:
    e = load_ensemble(args.ensemble)
    cfg = _optimizer_config(args)
    blocked = states.product_ensemble(e, args.n_block)
    result = extopt.minimize_extension_entropy(blocked, cfg)
    rows = []
    for h in result.history:
        rows.append(
            (
                h.start_index,
                h.initial_entropy,
                h.final_entropy,
                h.iterations,
                h.converged,
                h.start_index == result.best_start,
            )
        )
    extra = {
        "best_entropy": result.best_entropy,
        "assignment": assignment_to_payload(result.best_assignment),
    }
    _emit(args, MINIMIZE_HEADER, rows, [result.envelope], extra)
    if args.format == "csv" and args.out:
        with open(args.out + ".assignment.json", "w") as fh:
            json.dump(extra, fh, sort_keys=True)
            fh.write("\n")
    return 0


def _simulate_reports(e, res) -> list:
    reports = []
    if res.avg_fidelity >= bounds.HOLEVO_FIDELITY_THRESHOLD:
        reports.append(bounds.holevo_bound_check(e, res.rate))
    return reports


def _result_row(swept_value, res):
    return (
        swept_value,
        res.channel_dim,
        res.rate,
        res.avg_fidelity,
        res.stderr,
        res.seed,
    )


def _json_result_extra(res) -> dict:
    return {
        "sampled": res.sampled,
        "ext_avg_fidelity": res.ext_avg_fidelity,
        "per_sequence": [dataclasses.asdict(r) for r in res.per_sequence],
    }


def _resolve_assignment(args, e) -> extopt.ExtensionAssignment:
    if args.assignment:
        return load_assignment(args.assignment)
    cfg = _optimizer_config(args)
    blocked = states.product_ensemble(e, args.n_block)
    if args.trivial:
        return extopt.trivial_assignment(blocked, cfg.ancilla_dim, cfg.purifier_dim)
    return extopt.minimize_extension_entropy(blocked, cfg).best_assignment


def cmd_simulate(args) -> int:
    """simulate-js, simulate-ep and sweep: one protocol run per output row.

    JSON output of a single run also lists its per-sequence records.
    """
    e = load_ensemble(args.ensemble)
    sweep = args.command == "sweep"
    js = args.protocol == "js" if sweep else args.command == "simulate-js"
    values = _int_list(args.values) if sweep else [args.n if js else args.k]
    if not values:
        raise ValidationError("sweep needs at least one value")
    assignment = None if js else _resolve_assignment(args, e)
    opts = dict(eps=args.eps, dim_cap=args.dim_cap, sampling=args.sampling,
                mc_samples=args.samples, seed=args.seed)
    rows, reports = [], []
    for v in values:
        if js:
            res = protocol.js_protocol(e, v, **opts)
        else:
            res = protocol.extension_protocol(e, args.n_block, assignment, v, **opts)
        reports.extend(_simulate_reports(e, res))
        rows.append(_result_row(v, res))
    _emit(args, SIMULATE_HEADER, rows, reports, None if sweep else _json_result_extra(res))
    bounds.enforce(reports)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _values_text(text: str) -> str:
    """argparse type of ``--values``: checks the list, keeps the text as typed."""
    try:
        _int_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated integer list: {text!r}"
        ) from None
    return text


def _add_common(p):
    p.add_argument("ensemble", help="ensemble JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_optimizer_flags(p):
    p.add_argument("--ancilla-dim", type=int, default=2)
    purifier = p.add_mutually_exclusive_group()
    purifier.add_argument("--purifier-dim", type=int, default=None)
    purifier.add_argument(
        "--pure-extensions", action="store_true",
        help="restrict to pure extensions (purifier dim 1)",
    )
    p.add_argument("--multistarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--n-block", type=int, default=1)


def _add_assignment_flags(p):
    given = p.add_mutually_exclusive_group()
    given.add_argument("--assignment", help="assignment JSON from a minimize run")
    given.add_argument("--trivial", action="store_true",
                       help="use the trivial (identity) assignment")


def _add_sampling_flags(p):
    p.add_argument("--eps", type=float, default=None,
                   help="typical-subspace mass target 1-eps")
    p.add_argument("--dim-cap", type=int, default=None,
                   help="typical-subspace dimension cap (alternative to --eps)")
    p.add_argument("--sampling", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--samples", type=int, default=protocol.DEFAULT_MC_SAMPLES,
                   help="Monte-Carlo draw count")


def build_parser() -> _Parser:
    parser = _Parser(prog="enscomp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"enscomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="entropies, Holevo quantity, support dims")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("minimize", help="minimize extension-ensemble entropy")
    _add_common(p)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("simulate-js", help="Jozsa-Schumacher protocol run")
    _add_common(p)
    _add_sampling_flags(p)
    p.add_argument("--n", type=int, required=True, help="block length")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("simulate-ep", help="extension protocol run")
    _add_common(p)
    _add_sampling_flags(p)
    _add_optimizer_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of blocks")
    _add_assignment_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep n (js) or k (ep)")
    _add_common(p)
    _add_sampling_flags(p)
    _add_optimizer_flags(p)
    p.add_argument("--protocol", choices=("js", "ep"), required=True)
    p.add_argument("--values", type=_values_text, required=True,
                   help="comma-separated n or k values")
    _add_assignment_flags(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnsembleParseError as exc:
        print(f"enscomp: parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"enscomp: validation error: {exc}", file=sys.stderr)
        return 2
    except BoundViolationError as exc:
        print(f"enscomp: bound violation: {exc}", file=sys.stderr)
        return 3
    except DimensionGuardError as exc:
        print(f"enscomp: resource guard: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
