import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import enscomp

# The public surface of the package.  A name added to or dropped from
# ``enscomp/__init__.py`` must be added to or dropped from this list too.
PUBLIC_NAMES = (
    "BoundReport",
    "BoundViolationError",
    "DensityMatrix",
    "DimensionGuardError",
    "EnscompError",
    "Ensemble",
    "EnsembleParseError",
    "ExtensionAssignment",
    "MinimizeResult",
    "OptimizerConfig",
    "ProtocolResult",
    "PureState",
    "SequenceRecord",
    "TypicalSubspace",
    "ValidationError",
    "ancilla_cap",
    "assignment_entropy",
    "canonical_purification",
    "ensemble_density",
    "entropy_continuity_check",
    "entropy_gradient",
    "envelope_check",
    "extended_ensemble",
    "extension_from_params",
    "extension_protocol",
    "fidelity",
    "hermitian_eig",
    "holevo_bound_check",
    "holevo_quantity",
    "js_protocol",
    "lemma_extension",
    "minimize_extension_entropy",
    "optimal_purification",
    "partial_trace",
    "product_ensemble",
    "rate_of",
    "support_dim",
    "trace_norm",
    "trivial_assignment",
    "typical_subspace",
    "verify_extension",
    "von_neumann_entropy",
)


def test_public_names_are_pinned():
    # submodules become package attributes when anything imports them
    names = sorted(
        n for n, v in vars(enscomp).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    )
    assert names == sorted(PUBLIC_NAMES)


def _run_without_scipy(code: str, *argv: str) -> str:
    """Run ``code`` with ``argv`` in a fresh interpreter; it must leave no scipy module loaded.

    The runtime is numpy only and scipy serves the tests' oracles: importing
    scipy.linalg would add about 27 MB of resident memory and more than
    double the package's import time.  Returns the run's stdout.
    """
    src = pathlib.Path(enscomp.__file__).resolve().parent.parent
    check = (
        "\nloaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        "\nsys.exit(f'scipy loaded: {loaded[:3]}' if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code + check, *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_cli_import_leaves_scipy_unloaded():
    _run_without_scipy("import sys, enscomp.cli")


# runs cli.main(argv) and prints the kernel routes it took of the two that
# scipy's LAPACK wrappers used to serve
_SPIED_MAIN = """
import sys
from enscomp import cli, linalg, protocol
taken = set()

def spy(module, name):
    real = getattr(module, name)

    def recorded(a):
        taken.add(name)
        return real(a)

    setattr(module, name, recorded)

spy(protocol, "_pivoted_cholesky")
spy(linalg, "_qr_triangle")
assert cli.main(sys.argv[1:]) == 0
print(*sorted(taken))
"""

_EP_ROUTES = "_pivoted_cholesky _qr_triangle"


@pytest.mark.parametrize("source, argv, routes", [
    ("zero-plus", ["analyze"], ""),
    ("zero-plus", ["minimize"], ""),
    # pure signals have rank 1, so every sequence takes the rows route
    ("zero-plus", ["simulate-js", "--n", "4", "--dim-cap", "9"], ""),
    # a mixed signal takes the Gram route (Q = 2^n >= m), and its
    # well-conditioned Grams take numpy's Cholesky factor
    ("biased", ["simulate-js", "--n", "10", "--dim-cap", "56"], ""),
    # the minimized extensions of the mixed triple give singular Grams and
    # traced stacks tall enough for the QR
    ("triple", ["simulate-ep", "--k", "2", "--eps", "0.05", "--multistarts", "2"], _EP_ROUTES),
    ("triple", ["sweep", "--protocol", "ep", "--values", "2,3", "--eps", "0.05",
                "--multistarts", "2"], _EP_ROUTES),
], ids=["analyze", "minimize", "simulate-js-rows", "simulate-js-cholesky", "simulate-ep",
        "sweep-ep"])
def test_command_leaves_scipy_unloaded(tmp_path, source, argv, routes):
    from enscomp import cli, reference
    from test_extopt import mixed_triple

    ensembles = {"zero-plus": reference.zero_plus_pair, "biased": reference.biased_qubit,
                 "triple": mixed_triple}
    src, out = tmp_path / f"{source}.json", tmp_path / "out.csv"
    cli.save_ensemble(ensembles[source](), str(src))
    taken = _run_without_scipy(_SPIED_MAIN, argv[0], str(src), *argv[1:], "--out", str(out))
    assert taken.split() == routes.split()
    assert out.read_text().count("\n") > 1
