import ast
import importlib.util
import pathlib
import sys

import pytest

import berglab
from berglab import NumericalError, analysis, berezin, disc, errors, lapack, symbols, toeplitz
from berglab.cli import run_scenario

SRC = pathlib.Path(berglab.__file__).parent
BENCH = SRC.parents[1] / "bench"

#: the package's public names, in order; ``berglab.lapack`` adds none
PUBLIC = [
    "__version__",
    "PowerSeries", "QuadratureSpec", "bergman_inner_product", "kernel_eval",
    "normalized_kernel_coeffs", "disc_quadrature",
    "DomainError", "ConfigError", "NumericalError",
    "AnalyticSymbol", "PolynomialSymbol", "RationalSymbol", "PrincipalPowerSymbol",
    "HarmonicSymbol", "DiscGrid", "ModulusScan", "power_symbol", "inf_modulus",
    "default_modulus_grid",
    "TruncatedOperator", "check_size", "toeplitz_analytic", "toeplitz_harmonic",
    "toeplitz_quadrature", "write_matrix", "matrix_from_json",
    "BerezinSample", "berezin_integral", "berezin_matrix", "berezin_harmonic", "berezin_grid",
    "write_grid",
    "SIGMA_POSITIVE_TOL", "INF_POSITIVE_TOL", "DRIFT_THRESHOLD", "TrendReport",
    "InvertibilityReport", "MixBoundCheck", "MixSandwichCheck",
    "MixTransferCheck", "ShiftWindowDemo", "PowerStudyReport", "smallest_singular_value",
    "check_schedule", "check_threshold", "check_mix_s", "check_shift_window",
    "bounded_below_trend", "normality_defect", "adjoint_mix", "mix_bound_check",
    "mix_sandwich_check", "mix_transfer_check", "shift_window_demo", "random_normal_matrix",
    "invertibility_verdict", "power_symbol_study",
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
    assert set(lapack._LAPACK_PROTOTYPES) == {
        "dgbbrd", "dgeqrf", "dlarfb", "dlarft", "dsbgvx", "dstebz", "zgbbrd", "zhbgvx"
    }
    assert berglab.__all__ == PUBLIC


def _owned_nodes(kind):
    """Every node of ``kind`` in the package, as (module file, innermost function, node)."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # breadth first, so an inner function overwrites its outer
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield path.name, owner.get(node), node


def _calls(fragment):
    """Every call whose callee's source holds ``fragment``, as (file, function, callee)."""
    return [
        (name, func, ast.unparse(node.func))
        for name, func, node in _owned_nodes(ast.Call)
        if fragment in ast.unparse(node.func)
    ]


def test_smallest_singular_value_holds_the_only_svd():
    """Every call whose callee names an SVD, with the innermost function around it:
    ``_sigma_min``, the body of ``smallest_singular_value``."""
    assert _calls("svd") == [("analysis.py", "_sigma_min", "np.linalg.svd")]


def test_one_gate_per_numerical_check():
    """A coefficient vector is checked by PowerSeries alone, a sigma_min scaled back by
    ``lapack._scale_back`` alone and refused as non-finite by ``analysis._finite_sigma``
    alone, and the trend picks its route before one call to ``_scaled_sigma_min``.  An
    operator or a Berezin sample is refused as non-finite where it is built, a report where
    it is written, and no matrix or grid writer checks finiteness again."""
    checks = [
        (name, func)
        for name, func, node in _owned_nodes(ast.Call)
        if ast.unparse(node.func) == "isinstance" and "PowerSeries" in ast.unparse(node.args[1])
    ]
    assert checks == [("disc.py", "__post_init__")]
    assert [c[:2] for c in _calls("math.ldexp")] == [("lapack.py", "_scale_back")]
    refusals = [
        (name, func)
        for name, func, node in _owned_nodes(ast.Raise)
        if node.exc is not None and "NumericalError(f'sigma_min" in ast.unparse(node.exc)
    ]
    assert refusals == [("analysis.py", "_finite_sigma")]
    trend_calls = [c for c in _calls("_scaled_sigma_min") if c[1] == "_trend_sigma_min"]
    assert len(trend_calls) == 1
    non_finite = [
        (name, func)
        for name, func, node in _owned_nodes(ast.Raise)
        if node.exc is not None and "non-finite" in ast.unparse(node.exc)
    ]
    assert non_finite == [
        ("analysis.py", "_finite_sigma"),
        ("berezin.py", "__post_init__"),
        ("cli.py", "_write_json"),
        ("toeplitz.py", "__post_init__"),
    ]
    writers = {"write_matrix", "write_grid"}
    assert [c for c in _calls("finite") if c[1] in writers] == []
    assert [func for _, func, _ in _owned_nodes(ast.Raise) if func in writers] == []


def test_no_public_function_only_calls_a_public_class():
    """A public function whose body, past its docstring, is ``return C(...)`` with C a public
    class and its own parameters passed through unchanged is a second name for C."""
    classes = {name for name in berglab.__all__ if isinstance(getattr(berglab, name), type)}
    aliases = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.parse(path.read_text()).body:
            if not isinstance(func, ast.FunctionDef) or func.name not in berglab.__all__:
                continue
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) in classes):
                continue
            passed = call.args + [kw.value for kw in call.keywords]
            params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            if all(isinstance(a, ast.Name) for a in passed) and sorted(
                a.id for a in passed
            ) == sorted(p.arg for p in params):
                aliases.append(func.name)
    assert aliases == []


def _bench_module(name, monkeypatch):
    """``bench/<name>.py`` loaded read-only: no bytecode is written under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_public_berezin_routes(tmp_path, monkeypatch):
    """The benchmark's Berezin metrics read the spans of the public route functions; a
    private twin that the grid sweep called instead would zero them silently."""
    tracer = _bench_module("tracer", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    configs = {c["name"]: c for c in workloads.scenarios("berezin_quadrature", 7)}
    with tracer.Tracer() as t:
        for name in ("matrix_route", "closed_form_route", "matrix_refusal"):
            config = dict(configs[name])
            if config.pop("expect", None):
                with pytest.raises(NumericalError, match="kernel tail estimate"):
                    run_scenario(config, str(tmp_path / name))
            else:
                run_scenario(config, str(tmp_path / name))
    names = tracer.summarize(t.spans)["names"]
    matrix, harmonic = names["berezin.berezin_matrix"], names["berezin.berezin_harmonic"]
    assert (matrix["calls"], matrix.get("raised.NumericalError")) == (2, 1)
    assert harmonic["calls"] == 1 and matrix["s"] > 0 and harmonic["s"] > 0
