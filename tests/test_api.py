"""The public names: the package republishes its modules' exports and nothing
else, every export resolves, and the README's library quick start runs as
written."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import dfscore

PUBLISHING_MODULES = ("general", "perturbation", "results", "smc", "state_space")

# the public surface, pinned: adding or dropping a name is an API change
PUBLIC_NAMES = [
    "DegeneratePosteriorError",
    "ExtendedFilterConfig",
    "FDConfig",
    "FixedLagAccumulator",
    "GeneralModel",
    "InfoEstimate",
    "KalmanDerivatives",
    "LinearGaussianSSM",
    "OracleAccuracyWarning",
    "ParameterDomainError",
    "ParticleCollapseError",
    "PerturbationKernel",
    "PosteriorMoments",
    "ScoreEstimate",
    "StateSpaceModel",
    "bootstrap_loglik",
    "fd_info",
    "fd_score",
    "kalman_loglik",
    "kalman_score_info",
    "load_observations",
    "make_gaussian_kernel",
    "make_nonlinear_shock_model",
    "observed_info_from_accumulator",
    "observed_info_from_moments",
    "posterior_moments_is",
    "posterior_moments_quadrature",
    "resample",
    "run_extended_bootstrap",
    "save_observations",
    "score_from_accumulator",
    "score_from_moments",
    "simulate",
]


def test_public_names_are_pinned():
    assert sorted(dfscore.__all__) == PUBLIC_NAMES


def test_every_export_resolves_and_the_package_exports_its_imports():
    modules = [
        importlib.import_module(f"dfscore.{info.name}")
        for info in pkgutil.iter_modules(dfscore.__path__)
    ]
    for module in [dfscore, *modules]:
        exports = getattr(module, "__all__", ())
        missing = [name for name in exports if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(exports)) == len(exports), module.__name__

    joined = [
        name
        for module in PUBLISHING_MODULES
        for name in importlib.import_module(f"dfscore.{module}").__all__
    ]
    assert list(dfscore.__all__) == joined


def test_the_cli_imports_only_public_harness_names():
    # the harness owns each command's grid contract; the CLI parses, runs and writes
    from dfscore import cli, harness

    imported = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".harness", "dfscore.harness"):
                imported += names
            elif module in (".", "dfscore"):
                assert "harness" not in names, "import the harness's names, not the module"
        elif isinstance(node, ast.Import):
            assert "dfscore.harness" not in [alias.name for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(harness.__all__)) == []


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["oracle"].score.shape == (2,)
