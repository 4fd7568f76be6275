import inspect
import os
import pathlib
import subprocess
import sys

import enscomp

# The public surface of the package.  A name added to or dropped from
# ``enscomp/__init__.py`` must be added to or dropped from this list too.
PUBLIC_NAMES = (
    "BoundReport",
    "BoundViolationError",
    "DensityMatrix",
    "DimensionGuardError",
    "EigDecomposition",
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
    "psd_sqrt",
    "rate_of",
    "singular_values",
    "support_dim",
    "tensor_product",
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the minimizer needs scipy.optimize, which doubles the import time
    src = pathlib.Path(enscomp.__file__).resolve().parent.parent
    code = "import sys, enscomp.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
