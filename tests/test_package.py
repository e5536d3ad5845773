import ast
import pathlib

import berglab
from berglab import analysis, berezin, disc, errors, lapack, symbols, toeplitz

SRC = pathlib.Path(berglab.__file__).parent

#: the package's public names, in order; ``berglab.lapack`` adds none
PUBLIC = [
    "__version__",
    "PowerSeries", "QuadratureSpec", "bergman_inner_product", "kernel_eval",
    "normalized_kernel_coeffs", "disc_quadrature",
    "DomainError", "ConfigError", "NumericalError",
    "AnalyticSymbol", "PolynomialSymbol", "RationalSymbol", "PrincipalPowerSymbol",
    "HarmonicSymbol", "DiscGrid", "ModulusScan", "polynomial_symbol", "rational_symbol",
    "principal_power_symbol", "power_symbol", "inf_modulus", "default_modulus_grid",
    "TruncatedOperator", "check_size", "toeplitz_analytic", "toeplitz_harmonic",
    "toeplitz_quadrature", "matrix_to_csv", "matrix_to_json", "matrix_from_json",
    "BerezinSample", "berezin_integral", "berezin_matrix", "berezin_harmonic", "berezin_grid",
    "grid_to_csv", "grid_to_json",
    "SIGMA_POSITIVE_TOL", "INF_POSITIVE_TOL", "DRIFT_THRESHOLD", "TrendReport",
    "InvertibilityReport", "MixBoundCheck", "MixSandwichCheck",
    "MixTransferCheck", "ShiftWindowDemo", "PowerStudyReport", "smallest_singular_value",
    "check_schedule", "check_mix_s", "check_shift_window", "bounded_below_trend",
    "normality_defect", "adjoint_mix", "mix_bound_check", "mix_sandwich_check",
    "mix_transfer_check", "shift_window_demo", "random_normal_matrix", "invertibility_verdict",
    "power_symbol_study",
]


def test_top_level_reexports_every_submodule_name():
    for module in (analysis, berezin, disc, errors, symbols, toeplitz):
        for name in module.__all__:
            assert getattr(berglab, name) is getattr(module, name), name
    assert len(berglab.__all__) == len(set(berglab.__all__))
    assert all(hasattr(berglab, name) for name in berglab.__all__)


def _imports(path: pathlib.Path) -> set[str]:
    """Every module ``path`` imports, relative ones as ``.name``: ``from . import x``
    gives ``.x``, and ``from .x import y`` gives ``.x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module is None:
                found.update(base + alias.name for alias in node.names)
            else:
                found.add(base)
    return found


def test_lapack_is_the_only_module_that_knows_the_abi():
    imports = {path.name: _imports(path) for path in sorted(SRC.glob("*.py"))}
    abi = {
        name
        for name, modules in imports.items()
        if any(m.split(".")[0] in ("ctypes", "importlib") for m in modules)
    }
    assert abi == {"lapack.py"}
    assert not {".lapack", "berglab.lapack"} & imports["toeplitz.py"]
    assert set(lapack._LAPACK_PROTOTYPES) == {"dgbbrd", "dsbgvx", "dstebz", "zgbbrd", "zhbgvx"}
    assert berglab.__all__ == PUBLIC


def test_smallest_singular_value_holds_the_only_svd():
    """Every call whose callee names an SVD, with the innermost function around it."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # breadth first, so an inner function overwrites its outer
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        calls += [
            (path.name, owner.get(node), ast.unparse(node.func))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "svd" in ast.unparse(node.func)
        ]
    assert calls == [("analysis.py", "smallest_singular_value", "np.linalg.svd")]
