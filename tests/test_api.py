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


def _run_without_scipy(code: str) -> None:
    """Run ``code`` in a fresh interpreter; it must leave no scipy module loaded.

    scipy.linalg more than doubles the package's import time, so only the
    fidelity kernel's rank-deficient or ill-conditioned Grams (zpstrf) and
    its traced route (zgeqrf) load it.
    """
    src = pathlib.Path(enscomp.__file__).resolve().parent.parent
    check = (
        "; loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        "; sys.exit(f'scipy loaded: {loaded[:3]}' if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code + check], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_unloaded():
    _run_without_scipy("import sys, enscomp.cli")


def _zero_plus_file(tmp_path) -> str:
    from enscomp import cli, reference

    path = tmp_path / "zero-plus.json"
    cli.save_ensemble(reference.zero_plus_pair(), str(path))
    return str(path)


def test_analyze_leaves_scipy_unloaded(tmp_path):
    _run_without_scipy(
        "import sys, enscomp.cli; "
        f"assert enscomp.cli.main(['analyze', {_zero_plus_file(tmp_path)!r}]) == 0"
    )


def test_minimize_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "min.csv"
    _run_without_scipy(
        "import sys, enscomp.cli; "
        f"assert enscomp.cli.main(['minimize', {_zero_plus_file(tmp_path)!r}, "
        f"'--out', {str(out)!r}]) == 0"
    )
    assert out.read_text().count("\n") > 1


def test_rows_route_simulation_leaves_scipy_unloaded(tmp_path):
    # pure signals have rank 1, so every sequence takes the rows route
    out = tmp_path / "out.csv"
    _run_without_scipy(
        "import sys, enscomp.cli; "
        f"assert enscomp.cli.main(['simulate-js', {_zero_plus_file(tmp_path)!r}, '--n', '4', "
        f"'--dim-cap', '9', '--out', {str(out)!r}]) == 0"
    )
    assert out.read_text().count("\n") > 1


def test_full_rank_gram_simulation_leaves_scipy_unloaded(tmp_path):
    # a mixed signal takes the Gram route (Q = 2^n >= m), and its
    # well-conditioned Grams take numpy's Cholesky factor
    from enscomp import cli, reference

    src, out = tmp_path / "biased.json", tmp_path / "out.csv"
    cli.save_ensemble(reference.biased_qubit(), str(src))
    _run_without_scipy(
        "import sys, enscomp.cli; "
        f"assert enscomp.cli.main(['simulate-js', {str(src)!r}, '--n', '10', "
        f"'--dim-cap', '56', '--out', {str(out)!r}]) == 0"
    )
    assert out.read_text().count("\n") > 1
