import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from berglab import analysis, cli, lapack
from berglab.cli import SCHEMA, _write_json, main, parse_scenario, run_scenario
from berglab.errors import ConfigError
from berglab.symbols import (
    HarmonicSymbol,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
)
from berglab.toeplitz import matrix_from_json, toeplitz_harmonic


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def example35_config(t, schedule):
    """The paper's Example 3.5 study as an ``example_3_5`` scenario named ``example35-t<t>``."""
    return {"name": f"example35-t{t:g}", "kind": "example_3_5", "t": t, "schedule": schedule}


THRESHOLDS = {"inf_positive": 1e-3, "sigma_positive": 1e-6, "drift": 0.05}


def invertibility_config(**overrides):
    config = {
        "name": "inv",
        "kind": "invertibility",
        "symbol": {"c": 1.0, "d": 0.0, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
        "schedule": [16, 32, 64],
        "grid": {"radii": [0.0, 0.3, 0.6, 0.9], "angles": 64},
        "thresholds": dict(THRESHOLDS),
        "seed": 7,
    }
    config.update(overrides)
    return config


class TestParseScenario:
    def test_invertibility_fields(self):
        sc = parse_scenario(invertibility_config())
        assert sc.kind == "invertibility"
        assert sc.schedule == (16, 32, 64)
        assert sc.seed == 7
        assert sc.symbol.case_tag == "analytic"
        assert sc.grid.angles_per_radius == 64

    def test_missing_c_names_the_field(self):
        config = invertibility_config()
        del config["symbol"]["c"]
        with pytest.raises(ConfigError, match="'c'"):
            parse_scenario(config)

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ConfigError, match="'extra'"):
            parse_scenario(invertibility_config(extra=1))

    def test_unknown_symbol_field_rejected(self):
        config = invertibility_config()
        config["symbol"]["weight"] = 2
        with pytest.raises(ConfigError, match="'weight'"):
            parse_scenario(config)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="config.kind"):
            parse_scenario({"name": "x", "kind": "mystery"})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="config.seed"):
            parse_scenario(invertibility_config(seed=True))

    def test_thresholds_all_required(self):
        config = invertibility_config()
        del config["thresholds"]["drift"]
        with pytest.raises(ConfigError, match="'drift'"):
            parse_scenario(config)

    def test_grid_validation_is_a_config_error(self):
        config = invertibility_config()
        config["grid"]["radii"] = [0.9, 0.3]
        with pytest.raises(ConfigError, match="ascending"):
            parse_scenario(config)

    def test_quadrature_only_for_quadrature_builder(self):
        config = {
            "name": "t",
            "kind": "toeplitz_build",
            "builder": "closed_form",
            "n": 4,
            "symbol": {"c": 1, "d": 0, "g": {"type": "polynomial", "coeffs": [1]}},
            "quadrature": {"radial": 8, "angular": 16},
        }
        with pytest.raises(ConfigError, match="quadrature"):
            parse_scenario(config)

    def test_theorem_check_kinds(self):
        sc = parse_scenario(
            {
                "name": "t",
                "kind": "theorem_check",
                "check": "3.2",
                "count": 5,
                "matrix_size": 6,
                "s": 2.0,
                "vector_trials": 50,
                "seed": 1,
            }
        )
        assert sc.check == "3.2"
        assert sc.vector_trials == 50
        with pytest.raises(ConfigError, match="config.check"):
            parse_scenario({"name": "t", "kind": "theorem_check", "check": "3.9"})

    @pytest.mark.parametrize(
        "check, sizes, units",
        [
            ("3.1", {"matrix_size": 1}, 1 + 2**15),
            ("3.2", {"matrix_size": 128, "vector_trials": 200}, 128**2 * 328 + 2**15),
            ("3.3", {"matrix_size": 8}, 8**3 + 2**15),
        ],
    )
    def test_theorem_check_work_ceiling(self, check, sizes, units):
        # each matrix costs matrix_size² × (matrix_size + vector_trials) units and a constant,
        # so a huge count is refused at matrix_size 1 too; deciding draws nothing
        most = cli._WORK_CEILING // units
        assert parse_scenario(mix_config(check, count=most, **sizes)).count == most
        with pytest.raises(ConfigError, match="work units exceed the ceiling of 1e"):
            parse_scenario(mix_config(check, count=most + 1, **sizes))

    def test_rational_and_power_symbols_parse(self):
        config = invertibility_config()
        config["symbol"]["g"] = {"type": "rational", "num": [1.0], "den": [1.0, -0.5]}
        assert isinstance(parse_scenario(config).symbol.g, RationalSymbol)
        config["symbol"]["g"] = {
            "type": "principal_power",
            "plus_exponent": 1.0,
            "minus_exponent": -1.0,
        }
        assert isinstance(parse_scenario(config).symbol.g, PrincipalPowerSymbol)

    def test_rational_pole_in_disc_is_a_config_error(self):
        config = invertibility_config()
        config["symbol"]["g"] = {"type": "rational", "num": [1.0], "den": [1.0, -2.0]}
        with pytest.raises(ConfigError, match="symbol.g: .*closed unit disc"):
            parse_scenario(config)

    def test_complex_pairs(self):
        config = invertibility_config()
        config["symbol"]["c"] = [1.0, 2.0]
        assert parse_scenario(config).symbol.c == 1.0 + 2.0j
        config["symbol"]["c"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match="re, im"):
            parse_scenario(config)


class TestRunScenario:
    def test_invertibility_report_and_manifest(self, tmp_path):
        path = write_config(tmp_path, invertibility_config())
        outdir = tmp_path / "out"
        manifest = run_scenario(path, str(outdir))
        report = json.loads((outdir / "report.json").read_text())
        assert report["verdict"] == "invertible_likely"
        assert report["seed"] == 7
        # manifest completeness: every file in output_dir except the
        # manifest itself is listed, and every hash recomputes
        listed = {o["path"] for o in manifest.outputs}
        on_disk = {p.name for p in outdir.iterdir()}
        assert on_disk == listed | {"manifest.json"}
        for entry in manifest.outputs:
            digest = hashlib.sha256((outdir / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_toeplitz_build_round_trips(self, tmp_path):
        config = {
            "name": "shift",
            "kind": "toeplitz_build",
            "builder": "closed_form",
            "n": 8,
            "symbol": {"c": 1.0, "d": 0.0, "g": {"type": "polynomial", "coeffs": [0.0, 1.0]}},
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        op = matrix_from_json(outdir / "matrix.json")
        expected = toeplitz_harmonic(
            HarmonicSymbol(1.0, 0.0, PolynomialSymbol([0.0, 1.0])), 8
        )
        np.testing.assert_array_equal(op.matrix, expected.matrix)
        report = json.loads((outdir / "report.json").read_text())
        assert report["sigma_min"] <= 1e-14

    def test_toeplitz_build_golden_hashes(self, tmp_path):
        # closed-form entries are sqrt and products of exact inputs, so the
        # files pin the exporters' bytes; report.json's LAPACK sigma_min is
        # left out because it may differ across machines
        config = {
            "name": "golden",
            "kind": "toeplitz_build",
            "builder": "closed_form",
            "n": 64,
            "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0, 0.3]}},
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        digests = {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ("matrix.json", "matrix.csv")
        }
        assert digests == {
            "matrix.json": "a7f669b193ea87b2f60bf08fc462660f6df4edc3178dd859402a87dcd69758a0",
            "matrix.csv": "e0e768592277a4022acec678b128b27949baa4a8ef2b836e5d364493b9b9200a",
        }

    def test_berezin_grid_golden_hashes(self, tmp_path):
        # closed-form grid values need neither LAPACK nor FFT, so every
        # file is pinned, report.json included
        config = {
            "name": "golden_grid",
            "kind": "berezin_grid",
            "route": "harmonic_closed_form",
            "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0, 0.3]}},
            "grid": {"radii": [0.3, 0.6, 0.9], "angles": 32},
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        digests = {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ("grid.csv", "grid.json", "report.json")
        }
        assert digests == {
            "grid.csv": "2ae239cd904110f798e440c012cb5cb0d603c694ca2315654f8b02068ed5a3fe",
            "grid.json": "3bd43d7c3b366da88eb11ff3a1a412e0248d0804f834931a9ce71a697aad8eec",
            "report.json": "37b540ae53ff74e1fee03c7ebb513bee475df88a50286212717614340f1de623",
        }

    def test_spectral_report_golden_hashes(self, tmp_path):
        # the trend's SVDs and banded pencil come from LAPACK and BLAS, and the study's
        # residual from numpy's convolution of Taylor coefficients, whose complex dot products
        # numpy may hand to BLAS, so these pin the bundled OpenBLAS build (1 or 2 threads alike)
        config = example35_config(1.0, [16, 32, 64, 128])
        run_scenario(write_config(tmp_path, config, "example35.json"), str(tmp_path / "example35"))
        # a rational g of degree 1 takes the banded pencil at every size from N = 48
        config = invertibility_config(
            symbol={"c": 1.0, "d": 0.25,
                    "g": {"type": "rational", "num": [1.0, 0.5], "den": [2.0, -0.5]}},
            schedule=[64, 128, 256],
        )
        run_scenario(write_config(tmp_path, config), str(tmp_path / "pencil"))
        digests = {
            name: hashlib.sha256((tmp_path / name / "report.json").read_bytes()).hexdigest()
            for name in ("example35", "pencil")
        }
        assert digests == {
            "example35": "3899f75714db98ac1728b17d709f241aafd0ab489ebc0519eb39490d79bf5509",
            "pencil": "625282360b3b52a356470c60fa0aa0c673071d2d1d02bbb10dfb0c3b4d1fa78a",
        }

    def test_theorem_check_report_golden_hashes(self, tmp_path):
        # the checks' sigma_min and sampled ratios and the demo's windowed SVDs come from
        # LAPACK and BLAS, so these pin the bundled OpenBLAS build (1 or 2 threads alike)
        size = {"count": 3, "matrix_size": 16}
        configs = {
            "3.1": mix_config("3.1", **size, s=[0.5, 0.25]),
            "3.2": mix_config("3.2", **size, s=[2.0, 1.0], vector_trials=20),
            "3.3": mix_config("3.3", **size, s=[0.5, -0.5]),
            "shift_demo": {"name": "s", "kind": "theorem_check", "check": "shift_demo",
                           "n": 16, "s": [2.0, 0.0], "seed": 0},
        }
        for name, config in configs.items():
            run_scenario(write_config(tmp_path, config), str(tmp_path / name))
        digests = {
            name: hashlib.sha256((tmp_path / name / "report.json").read_bytes()).hexdigest()
            for name in configs
        }
        assert digests == {
            "3.1": "b009cdee5bf4c83268f9862bb25504b769bddeea53a8b3d279ad2834fdaa13ff",
            "3.2": "68a38fc2e690b883991a21cf53df977e4c3d8f569ecc6f668de1416c6d769794",
            "3.3": "733be09adf89b4408f61611b4e42fa8d239f075fefb9abb7973ade02def47914",
            "shift_demo": "5b56a52698a77b62a1ff79728259c91614a09233f3650b848dfdfe5931c08b5b",
        }

    def test_berezin_grid_outputs(self, tmp_path):
        config = {
            "name": "bz",
            "kind": "berezin_grid",
            "route": "harmonic_closed_form",
            "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
            "grid": {"radii": [0.0, 0.5, 0.8], "angles": 8},
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        lines = (outdir / "grid.csv").read_text().splitlines()
        assert lines[0] == "re_z,im_z,re_val,im_val,route,err"
        assert len(lines) == 1 + 3 * 8
        report = json.loads((outdir / "report.json").read_text())
        assert report["num_points"] == 24
        # phi = (2 + z) + 0.5 conj(2 + z) has modulus min at z = -0.8
        assert report["min_abs_value"] == pytest.approx(1.8, abs=1e-12)

    def test_theorem_check_sweep_all_pass(self, tmp_path):
        config = {
            "name": "t31",
            "kind": "theorem_check",
            "check": "3.1",
            "count": 100,
            "matrix_size": 8,
            "s": [0.3, 0.4],
            "seed": 11,
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        report = json.loads((outdir / "report.json").read_text())
        assert report["passes"] == 100
        assert report["all_pass"] is True
        assert report["min_margin"] > 0

    def test_shift_demo_report(self, tmp_path):
        config = {
            "name": "shift",
            "kind": "theorem_check",
            "check": "shift_demo",
            "n": 16,
            "s": 2.0,
            "seed": 0,
        }
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        report = json.loads((outdir / "report.json").read_text())
        assert report["witness_adjoint_norm"] == 0.0
        assert report["witness_mix_norm"] == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_output_dir_from_config(self, tmp_path):
        outdir = tmp_path / "from_config"
        path = write_config(tmp_path, invertibility_config(output_dir=str(outdir)))
        run_scenario(path)
        assert (outdir / "report.json").exists()

    def test_missing_output_dir(self, tmp_path):
        path = write_config(tmp_path, invertibility_config())
        with pytest.raises(ConfigError, match="output_dir"):
            run_scenario(path)

    def test_output_dir_argument_with_a_nul_byte(self, tmp_path):
        # mkdir raised ValueError "embedded null byte", which ``berglab run`` reported
        # as a numerical refusal (exit 3)
        outdir = tmp_path / "o\0x"
        with pytest.raises(ConfigError, match="cannot create output directory .*null byte"):
            run_scenario(invertibility_config(), str(outdir))

    def test_parsed_config_runs_like_its_file(self, tmp_path):
        config = invertibility_config()
        from_dict = run_scenario(config, str(tmp_path / "a"))
        from_file = run_scenario(write_config(tmp_path, config), str(tmp_path / "b"))
        assert from_dict.scenario == config
        assert from_dict.outputs == from_file.outputs


SYMBOL = {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}}
GRID = {"radii": [0.0, 0.5], "angles": 8}
QUADRATURE = {"radial": 8, "angular": 16}


def build_config(symbol, n, builder="closed_form", **extra):
    return {"name": "b", "kind": "toeplitz_build", "builder": builder, "n": n,
            "symbol": symbol, **extra}


#: the benchmark's scenario lists, read by the subprocess test of the mapped libraries
WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
#: unit roundoff of float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def subprocess_env():
    """The environment with this checkout's ``src`` on PYTHONPATH: pytest's pythonpath
    setting does not reach a subprocess."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def assert_near_dense_svd(sigma, matrix):
    """``sigma`` within 16 u ||T||_2 and 1e-12 of the dense SVD's sigma_min of T."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    err = abs(sigma - svals[-1])
    assert err <= 1e-12 and err <= 16 * UNIT_ROUNDOFF * svals[0], (sigma, svals[-1])


class TestToeplitzBuildSigmaMin:
    @pytest.mark.parametrize("builder", ["closed_form", "quadrature"])
    def test_dense_svd_of_the_exported_matrix(self, tmp_path, monkeypatch, builder):
        # a quadrature build takes the dense SVD of its exported matrix; a closed-form
        # build the trend's route, here the bidiagonal one, with that SVD as its oracle
        seen, banded = [], []
        original, band = cli.smallest_singular_value, lapack.bidiagonal_sigma
        monkeypatch.setattr(cli, "smallest_singular_value", lambda op: seen.append(op) or original(op))
        monkeypatch.setattr(
            lapack, "bidiagonal_sigma", lambda *a, n, **k: banded.append(n) or band(*a, n=n, **k)
        )
        extra = {"quadrature": QUADRATURE} if builder == "quadrature" else {}
        n = 64 if builder == "closed_form" else 8  # half-width 1 is banded from N = 48
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, build_config(SYMBOL, n, builder, **extra)), str(outdir))
        exported = matrix_from_json(outdir / "matrix.json")
        report = json.loads((outdir / "report.json").read_text())
        if builder == "quadrature":
            assert len(seen) == 1 and seen[0].builder == builder and banded == []
            np.testing.assert_array_equal(seen[0].matrix, exported.matrix)
            assert report["sigma_min"] == original(exported)
        else:
            assert seen == [] and banded == [n]
            assert_near_dense_svd(report["sigma_min"], exported.matrix)

    @pytest.mark.parametrize(
        "g, route",
        [
            ({"type": "polynomial", "coeffs": [2.0, 1.0, 0.3]}, "bidiagonal_sigma"),
            ({"type": "rational", "num": [1.0, 0.5], "den": [2.0, -0.5]}, "pencil_sigma"),
            ({"type": "principal_power", "plus_exponent": 1.0, "minus_exponent": -1.0},
             "_sigma_min"),
        ],
        ids=["polynomial", "rational", "power"],
    )
    def test_closed_form_routes_match_the_dense_svd(self, tmp_path, monkeypatch, g, route):
        # the trend's route table: a narrow polynomial band, a narrow rational pencil, and
        # the rotated real SVD of the power symbol's section (DECISIONS.md entries 2, 5, 7)
        calls = []
        for module, name in ((lapack, "bidiagonal_sigma"), (lapack, "pencil_sigma"),
                             (analysis, "_sigma_min")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, f=original, k=name, **kw: calls.append(k) or f(*a, **kw)
            )
        outdir = tmp_path / "out"
        config = build_config({"c": 1.0, "d": 0.5, "g": g}, 128)
        run_scenario(write_config(tmp_path, config), str(outdir))
        assert calls == [route]
        report = json.loads((outdir / "report.json").read_text())
        assert_near_dense_svd(report["sigma_min"], matrix_from_json(outdir / "matrix.json").matrix)

    def test_closed_form_takes_the_dense_svd_where_lapack_is_refused(self, tmp_path, monkeypatch):
        # without numpy's OpenBLAS bound, the trend's route table serves the narrow band
        # by the dense SVD of the section, and the build succeeds
        monkeypatch.setattr(lapack, "_ROUTINES", "refused")
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, build_config(SYMBOL, 64)), str(outdir))
        report = json.loads((outdir / "report.json").read_text())
        assert_near_dense_svd(report["sigma_min"], matrix_from_json(outdir / "matrix.json").matrix)

    def test_closed_form_build_leaves_scipy_linalg_unloaded(self, tmp_path):
        # every workload scenario, of every kind, the closed-form build and the spectral
        # trend among them, binds its banded LAPACK from numpy's OpenBLAS (DECISIONS.md
        # entry 19) and takes its Gauss-Legendre rule from numpy (entry 6): no run maps
        # SciPy's OpenBLAS or imports any scipy module, and SciPy is not a run-time
        # dependency
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("no /proc/self/maps to read the mapped libraries from")
        code = f"""
import importlib.util, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("_workloads", {WORKLOADS_PY!r})
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from berglab.cli import SCHEMA, run_scenario
kinds = set()
for workload in workloads.WORKLOADS:
    for config in workloads.scenarios(workload, 7):
        kinds.add(config["kind"])
        expect = config.pop("expect", None)
        try:
            run_scenario(config, {str(tmp_path)!r} + "/" + workload + "-" + config["name"])
        except Exception as exc:
            assert type(exc).__name__ == expect, exc
        else:
            assert expect is None, config["name"]
with open("/proc/self/maps") as maps:
    mapped = maps.read()
print("scipy.libs/libscipy_openblas" in mapped, "numpy.libs/libscipy_openblas64_" in mapped)
print(kinds == set(SCHEMA), [m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=subprocess_env())
        assert proc.stdout.split() == ["False", "True", "True", "[]"]

    def test_build_export_leaves_numpy_polynomial_unloaded(self, tmp_path):
        # numpy.polynomial is imported where a series is evaluated or a radial rule
        # built (DECISIONS.md entry 19): the benchmark's build_export scenarios need
        # neither, and a polynomial trend does
        code = f"""
import importlib.util, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("_workloads", {WORKLOADS_PY!r})
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from berglab.cli import run_scenario
for config in workloads.scenarios("build_export", 7):
    run_scenario(config, {str(tmp_path)!r} + "/" + config["name"])
print("numpy.polynomial" in sys.modules)
from berglab.analysis import invertibility_verdict
from berglab.symbols import HarmonicSymbol, PolynomialSymbol
invertibility_verdict(HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0])), (8, 16, 32))
print("numpy.polynomial" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=subprocess_env())
        assert proc.stdout.split() == ["False", "True"]


class TestManifestTimings:
    @pytest.mark.parametrize(
        "writer, config",
        [
            ("write_matrix", build_config(SYMBOL, 8)),
            ("write_grid", {"name": "g", "kind": "berezin_grid", "route": "harmonic_closed_form",
                              "symbol": SYMBOL, "grid": GRID}),
            ("_write_json", build_config(SYMBOL, 8)),
        ],
    )
    def test_file_writing_is_counted_under_write(self, tmp_path, monkeypatch, writer, config):
        original = getattr(cli, writer)

        def slow(*args):
            time.sleep(0.25)
            return original(*args)

        monkeypatch.setattr(cli, writer, slow)
        manifest = run_scenario(write_config(tmp_path, config), str(tmp_path / "out"))
        timings = manifest.timings_s
        assert list(timings) == ["parse", "compute", "write"]
        assert timings["write"] >= 0.25
        assert 0.0 <= timings["compute"] < 0.25

    def test_hash_streams_files_larger_than_a_chunk(self, tmp_path):
        data = np.random.default_rng(5).bytes(2 * cli._HASH_CHUNK + 12345)
        for size in (0, 1, cli._HASH_CHUNK, len(data)):
            path = tmp_path / f"f{size}"
            path.write_bytes(data[:size])
            assert cli._sha256(path) == hashlib.sha256(data[:size]).hexdigest()

    def test_hashing_is_counted_under_write(self, tmp_path, monkeypatch):
        original = cli._sha256

        def slow(path):
            time.sleep(0.1)
            return original(path)

        monkeypatch.setattr(cli, "_sha256", slow)
        manifest = run_scenario(write_config(tmp_path, build_config(SYMBOL, 8)),
                                str(tmp_path / "out"))
        # matrix.json, matrix.csv and report.json
        assert manifest.timings_s["write"] >= 0.3
        assert manifest.timings_s["compute"] < 0.1


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path, invertibility_config())
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(path, str(a))
        run_scenario(path, str(b))
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        del ma["timings_s"], mb["timings_s"]
        assert ma == mb

    def test_theorem_check_deterministic_by_seed(self, tmp_path):
        config = {
            "name": "t32",
            "kind": "theorem_check",
            "check": "3.2",
            "count": 10,
            "matrix_size": 6,
            "s": 1.5,
            "vector_trials": 100,
            "seed": 3,
        }
        path = write_config(tmp_path, config)
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(path, str(a))
        run_scenario(path, str(b))
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_example35_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # N = 1024 takes lapack.dense_band_sigma; at b = 32 every compact-WY block it
        # applies is a multiple of 32 wide, and kept its bits at 1 and 2 threads
        path = write_config(tmp_path, example35_config(1.0, [128, 256, 512, 1024]))
        reports = []
        for threads in ("1", "2"):
            outdir = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "berglab.cli", "run", str(path),
                 "--output-dir", str(outdir)],
                capture_output=True, check=True,
                env=dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads),
            )
            reports.append((outdir / "report.json").read_bytes())
        assert reports[0] == reports[1]


INVERTIBILITY_KEYS = [
    "verdict", "inf_estimate", "argmin", "sizes", "sigma_min", "drift", "stabilized",
    "case_tag", "seed", "symbol_tag", "s", "sandwich", "thresholds", "notes", "name", "kind",
]
TREND_KEYS = ["sizes", "sigma_min", "stabilized", "drift", "drift_threshold", "stabilization_rule"]


class TestReportLayout:
    """report.json key order, which the report dataclasses' field order sets."""

    def report(self, tmp_path, config):
        outdir = tmp_path / "out"
        run_scenario(write_config(tmp_path, config), str(outdir))
        return json.loads((outdir / "report.json").read_text())

    def test_invertibility_analytic(self, tmp_path):
        report = self.report(tmp_path, invertibility_config())
        assert list(report) == INVERTIBILITY_KEYS
        assert list(report["thresholds"]) == ["inf_positive", "sigma_positive", "drift"]
        assert report["s"] is None and report["sandwich"] is None
        assert len(report["argmin"]) == 2

    def test_invertibility_general_s(self, tmp_path):
        config = invertibility_config()
        config["symbol"] = {**config["symbol"], "c": [2.0, 1.0], "d": 0.5}
        report = self.report(tmp_path, config)
        assert list(report) == INVERTIBILITY_KEYS
        assert report["case_tag"] == "general_s"
        assert report["s"] == [4.0, 2.0]
        assert list(report["sandwich"]) == [
            "s_modulus", "inf_g", "inf_combo", "lower", "upper", "holds"]

    def test_example_3_5(self, tmp_path):
        report = self.report(
            tmp_path, {"name": "e", "kind": "example_3_5", "t": 0.5, "schedule": [8, 16, 32]})
        assert list(report) == [
            "t", "modulus_bound", "factor_bound", "grid_min", "grid_min_plus", "grid_min_minus",
            "bounds_hold", "sizes", "residuals", "trend", "name", "kind",
        ]
        assert list(report["trend"]) == TREND_KEYS
        assert report["trend"]["stabilization_rule"] == "last relative step below drift_threshold"

    def test_shift_demo(self, tmp_path):
        config = {"name": "s", "kind": "theorem_check", "check": "shift_demo", "n": 8,
                  "s": [2.0, -1.0], "seed": 0}
        report = self.report(tmp_path, config)
        assert list(report) == [
            "name", "kind", "check", "seed", "n", "s", "witness_adjoint_norm",
            "witness_mix_norm", "window_ratio_adjoint", "window_ratio_mix",
        ]
        assert report["s"] == [2.0, -1.0]

    def test_mix_check(self, tmp_path):
        report = self.report(tmp_path, mix_config("3.1", s=[0.25, 0.5]))
        assert list(report) == [
            "name", "kind", "check", "seed", "count", "matrix_size", "s", "passes", "all_pass",
            "min_margin",
        ]
        assert report["s"] == [0.25, 0.5]


def test_write_json_renders_complex_as_pairs(tmp_path):
    path = tmp_path / "x.json"
    _write_json(path, {"z": 1.5 - 2j, "w": np.complex128(3 + 4j), "zs": (1j, None)})
    assert json.loads(path.read_text()) == {"z": [1.5, -2.0], "w": [3.0, 4.0],
                                            "zs": [[0.0, 1.0], None]}
    with pytest.raises(TypeError, match="set"):
        _write_json(path, {"bad": {1, 2}})


class TestExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path, invertibility_config())
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 0

    def test_validation_error(self, tmp_path, capsys):
        config = invertibility_config()
        del config["symbol"]["c"]
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        assert "'c'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rational_pole_in_disc(self, tmp_path, capsys, command):
        # den 1 - 2z puts a pole at z = 0.5; the run used to exit 0 with
        # a NaN inf_estimate in report.json
        config = invertibility_config()
        config["symbol"]["g"] = {"type": "rational", "num": [1.0], "den": [1.0, -2.0]}
        path = write_config(tmp_path, config)
        outdir = tmp_path / "o"
        args = [command, str(path)] + (["--output-dir", str(outdir)] if command == "run" else [])
        assert main(args) == 2
        assert "closed unit disc" in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([64, 32, 16], "strictly increasing"),
            ([16, 32], "at least 3"),
            ([0, 16, 32], "at least 1"),
        ],
    )
    def test_bad_schedule(self, tmp_path, capsys, command, schedule, message):
        # validate used to accept these and exit 0 while run exited 2
        path = write_config(tmp_path, invertibility_config(schedule=schedule))
        outdir = tmp_path / "o"
        args = [command, str(path)] + (["--output-dir", str(outdir)] if command == "run" else [])
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    def test_rational_pole_outside_disc_accepted(self, tmp_path):
        config = invertibility_config()
        config["symbol"]["g"] = {"type": "rational", "num": [1.0], "den": [1.0, -1.0 / 1.05]}
        assert main(["validate", str(write_config(tmp_path, config))]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_not_utf8(self, tmp_path, capsys, command):
        # a UnicodeDecodeError is a ValueError raised before parsing: still a config error
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"name": "\xff"}')
        outdir = tmp_path / "o"
        args = [command, str(path)] + (["--output-dir", str(outdir)] if command == "run" else [])
        assert main(args) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "nope.json: No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_is_a_directory(self, tmp_path, capsys, command):
        # an IsADirectoryError traceback, exit 1
        outdir = tmp_path / "o"
        args = [command, str(tmp_path)] + (["--output-dir", str(outdir)] if command == "run" else [])
        assert main(args) == 2
        assert f"cannot read config {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_output_dir_through_a_file(self, tmp_path, capsys, sub):
        # a FileExistsError or NotADirectoryError traceback, exit 1
        (tmp_path / "taken").write_text("")
        outdir = tmp_path / "taken" / sub
        path = write_config(tmp_path, invertibility_config())
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 2
        assert f"cannot create output directory {outdir}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["report.json", "manifest.json", "matrix.csv"])
    def test_directory_in_place_of_an_output_file(self, tmp_path, capsys, name):
        # an IsADirectoryError traceback from the removal of earlier outputs, exit 1
        outdir = tmp_path / "o2"
        (outdir / name / "inner").mkdir(parents=True)
        (outdir / "matrix.json").write_text("stale")
        path = write_config(tmp_path, build_config(SYMBOL, 8))
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 2
        assert f"cannot write {outdir / name}: it is a directory" in capsys.readouterr().err
        # the directory is left alone, and so is everything else: nothing ran
        assert (outdir / name / "inner").is_dir()
        assert (outdir / "matrix.json").read_text() == "stale"

    def test_directory_of_another_kind_s_output_is_left_alone(self, tmp_path):
        # an invertibility run writes no matrix.json, so a directory of that name is no
        # obstacle; the removal of earlier outputs skips it
        outdir = tmp_path / "o"
        (outdir / "matrix.json").mkdir(parents=True)
        path = write_config(tmp_path, invertibility_config())
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 0
        assert (outdir / "matrix.json").is_dir() and (outdir / "report.json").is_file()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_numerical_refusal(self, tmp_path, capsys):
        # matrix route at |z| = 0.98 with a small truncation: the tail
        # estimate exceeds the budget and the run refuses with exit 3
        config = {
            "name": "refuse",
            "kind": "berezin_grid",
            "route": "matrix",
            "n": 64,
            "tail_tol": 1e-6,
            "symbol": {"c": 1.0, "d": 0.0, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
            "grid": {"radii": [0.98], "angles": 4},
        }
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 3
        assert "tail" in capsys.readouterr().err

    def test_overflowing_coanalytic_ratio_is_left_out(self, tmp_path):
        # c/d = 1e310 overflows while phi and every sigma_min are finite: the run exited 3,
        # "report.json holds non-finite values"
        config = invertibility_config()
        config["symbol"].update(c=1e300, d=1e-10)
        outdir = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, config)), "--output-dir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["s"] is None and report["sandwich"] is None
        assert report["case_tag"] == "general_s"
        assert all(1e300 < x < 1.1e300 for x in report["sigma_min"])

    def test_overflowing_sandwich_is_left_out(self, tmp_path):
        # s = 1e308 is finite but (|s| + 1) inf|g| overflows: the run exited 3, "report.json
        # holds non-finite values"; inf|phi| >= (|c| - |d|) inf|g| > 0, so T_phi is invertible
        config = invertibility_config()
        config["symbol"].update(c=1e300, d=1e-8, g={"type": "polynomial", "coeffs": [5.0, 1.0]})
        config["grid"] = {"radii": [0.0, 0.5, 0.9], "angles": 32}
        outdir = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, config)), "--output-dir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["s"] == [1e308, 0.0] and report["sandwich"] is None
        assert report["verdict"] == "invertible_likely"

    def test_example35_refuses_extreme_t(self, tmp_path):
        path = write_config(tmp_path, example35_config(25.0, [16, 32, 64]))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, invertibility_config())
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out


def mix_config(check, **overrides):
    config = {"name": "t", "kind": "theorem_check", "check": check, "count": 2,
              "matrix_size": 4, "s": 0.5, "seed": 1}
    if check == "3.2":
        config.update(s=2.0, vector_trials=5)
    config.update(overrides)
    return config


def grid_config(route, **overrides):
    config = {"name": "g", "kind": "berezin_grid", "route": route, "symbol": SYMBOL, "grid": GRID}
    config.update(overrides)
    return config


#: each berezin_grid route with its own fields
ROUTE_FIELDS = {
    "integral": {"quadrature": QUADRATURE},
    "matrix": {"n": 16, "tail_tol": 1e-6},
    "harmonic_closed_form": {},
}
EDGE_GRID = {"radii": [0.5, 1 - 2**-53], "angles": 8}


def with_symbol(**fields):
    config = invertibility_config()
    config["symbol"] = {**SYMBOL, **fields}
    return config


def run_both(tmp_path, text):
    """Exit codes of validate and run on one config text."""
    path = tmp_path / "scenario.json"
    path.write_text(text)
    outdir = tmp_path / "o"
    shutil.rmtree(outdir, ignore_errors=True)
    codes = (main(["validate", str(path)]), main(["run", str(path), "--output-dir", str(outdir)]))
    return codes, (outdir / "report.json").exists()


class TestSchemaRefusals:
    """Configs that validate accepted while run refused or crashed, or that
    run accepted with a field it ignored or a non-finite number."""

    @pytest.mark.parametrize(
        "config, field",
        [
            pytest.param({"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 0,
                          "symbol": SYMBOL}, "config.n", id="build-n0"),
            pytest.param(grid_config("matrix", n=0, tail_tol=1e-6), "config.n", id="matrix-n0"),
            pytest.param(mix_config("3.1", s=1.5), "config.s", id="3.1-s"),
            pytest.param(mix_config("3.1", count=0), "config.count", id="count0"),
            pytest.param(mix_config("3.2", vector_trials=0), "config.vector_trials", id="trials0"),
            pytest.param({"name": "s", "kind": "theorem_check", "check": "shift_demo", "n": 4,
                          "s": 2.0, "seed": 0}, "config.n", id="shift-n4"),
            pytest.param(mix_config("3.3", matrix_size=0), "config.matrix_size", id="size0"),
            pytest.param(mix_config("3.1", seed=-1), "config.seed", id="seed-negative"),
            pytest.param(grid_config("integral", quadrature=QUADRATURE, n=4), "'n'",
                         id="integral-n"),
            pytest.param(grid_config("integral", quadrature=QUADRATURE, tail_tol=1e-6),
                         "'tail_tol'", id="integral-tail_tol"),
            pytest.param(grid_config("matrix", n=16, tail_tol=1.0, quadrature=QUADRATURE),
                         "'quadrature'", id="matrix-quadrature"),
            pytest.param(grid_config("harmonic_closed_form", n=16), "'n'", id="closed-n"),
            pytest.param(grid_config("harmonic_closed_form", tail_tol=1.0), "'tail_tol'",
                         id="closed-tail_tol"),
            pytest.param(grid_config("harmonic_closed_form", quadrature=QUADRATURE),
                         "'quadrature'", id="closed-quadrature"),
            pytest.param(invertibility_config(grid={"radii": [0.0, float("nan")], "angles": 8}),
                         "config.grid.radii[1]", id="nan-radius"),
            # 1 - 2^-53 < 1, but the node at angle pi / 4 rounds onto the circle
            pytest.param(invertibility_config(grid=EDGE_GRID), "config.grid",
                         id="edge-invertibility"),
            *(pytest.param(grid_config(route, grid=EDGE_GRID, **fields), "config.grid",
                           id=f"edge-{route}") for route, fields in ROUTE_FIELDS.items()),
            pytest.param(invertibility_config(thresholds={"inf_positive": float("nan"),
                                                          "sigma_positive": 1e-6, "drift": 0.05}),
                         "config.thresholds.inf_positive", id="nan-threshold"),
            *(pytest.param(invertibility_config(thresholds={**THRESHOLDS, key: value}),
                           f"config.thresholds.{key}", id=f"{key}-{value}")
              for key in THRESHOLDS for value in (0.0, -1.0)),
            pytest.param(with_symbol(c=float("inf")), "config.symbol.c", id="inf-c"),
            pytest.param(with_symbol(d=[0.5, float("-inf")]), "config.symbol.d", id="inf-d-pair"),
            pytest.param(with_symbol(g={"type": "polynomial", "coeffs": [2.0, 10**400]}),
                         "config.symbol.g.coeffs[1]", id="int-overflow-coeff"),
            pytest.param(with_symbol(g={"type": "principal_power", "plus_exponent": float("nan"),
                                        "minus_exponent": 0.0}),
                         "config.symbol.g.plus_exponent", id="nan-exponent"),
            pytest.param({"name": "e", "kind": "example_3_5", "t": float("inf"),
                          "schedule": [4, 8, 16]}, "config.t", id="inf-t"),
            # run exited 3, "kernel tail estimate 0.000e+00 exceeds -1.0e+00"
            *(pytest.param(grid_config("matrix", n=16, tail_tol=value), "config.tail_tol",
                           id=f"tail_tol-{value}") for value in (0.0, -1.0)),
            pytest.param(invertibility_config(schedule=5), "config.schedule", id="schedule-5"),
            pytest.param(with_symbol(g=[2.0, 1.0]), "config.symbol.g", id="g-list"),
            pytest.param([invertibility_config()], "config must be an object", id="config-list"),
            pytest.param(invertibility_config(grid=[0.5]), "config.grid", id="grid-list"),
            pytest.param(invertibility_config(output_dir=5), "config.output_dir",
                         id="output_dir-int"),
            # validate accepted it, and run exited 3 with "embedded null byte"
            pytest.param(invertibility_config(output_dir="o\0x"), "config.output_dir",
                         id="output_dir-nul"),
            pytest.param(grid_config("poisson"), "config.route", id="unknown-route"),
        ],
    )
    def test_validate_and_run_refuse(self, tmp_path, capsys, config, field):
        codes, wrote = run_both(tmp_path, json.dumps(config))
        assert codes == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(field in line for line in err)
        assert not wrote

    def test_overflowing_literal_refused(self, tmp_path, capsys):
        # json.loads reads 1e999 as inf
        text = json.dumps(invertibility_config()).replace("0.05", "1e999")
        assert run_both(tmp_path, text) == ((2, 2), False)
        assert capsys.readouterr().err.count("config.thresholds.drift") == 2

    def test_memory_exhaustion_exits_3(self, tmp_path, capsys):
        # the N = 10**7 complex matrix is 1.42 PiB, beyond any 64-bit user
        # address space, so numpy refuses it without allocating; a smaller
        # oversize N could actually be mapped
        config = {"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 10**7,
                  "symbol": SYMBOL}
        assert run_both(tmp_path, json.dumps(config)) == ((0, 3), False)
        assert "error: " in capsys.readouterr().err

    def test_grid_too_large_to_allocate_exits_3(self, tmp_path):
        # validate builds no node of a grid inside radius 1 - 2^-46; run needs 2^40 nodes,
        # 16 TiB, which an uncapped process might map, so both run in a child whose
        # address space is capped, as tools/contract_search.py caps its own
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(grid_config("harmonic_closed_form",
                                               grid={**GRID, "angles": 2**40})))
        run = ["run", str(path), "--output-dir", str(tmp_path / "o")]
        code = f"""
import resource
from berglab.cli import main
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
print("exit codes", main(["validate", {str(path)!r}]), main({run!r}))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(subprocess_env(), OPENBLAS_NUM_THREADS="1"))
        assert proc.stdout.splitlines()[-1] == "exit codes 0 3"
        assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(with_symbol(c=1e300, d=0.0, g={"type": "polynomial", "coeffs": [1e300]}),
                         id="invertibility"),
            pytest.param(grid_config("harmonic_closed_form", symbol={
                "c": 1e300, "d": 1e300, "g": {"type": "polynomial", "coeffs": [1e300, 1.0]}}),
                         id="berezin_grid"),
            # a finite matrix whose normality_defect overflows to inf - inf: report.json
            # refuses the NaN, and the matrix files written before it are removed
            pytest.param({"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 4,
                          "symbol": {"c": 1e200, "d": 0.0,
                                     "g": {"type": "polynomial", "coeffs": [1.0, 1.0]}}},
                         id="toeplitz_build"),
            # infinite entries: the operator refuses them where it is built, before any file
            pytest.param(build_config({"c": 1e300, "d": 0.0,
                                       "g": {"type": "polynomial", "coeffs": [1e10, 1.0]}}, 4),
                         id="toeplitz_build-infinite-entries"),
        ],
    )
    def test_non_finite_result_exits_3(self, tmp_path, capsys, config):
        # finite inputs whose results overflow: no file may carry NaN or Infinity
        assert run_both(tmp_path, json.dumps(config)) == ((0, 3), False)
        assert "non-finite" in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize(
        "route, c, message",
        [
            # the norm proxy is inf: refused for it, not for the NaN estimate it gives
            # at z = 0, where the kernel tail is 0
            pytest.param("matrix", 1e300, "operator norm proxy inf", id="matrix"),
            # phi overflows on the rule's nodes, and complex arithmetic on inf gives NaN:
            # the sample is refused for its value where it is built
            pytest.param("integral", 1e308, "non-finite |value| nan at z = 0j", id="integral"),
        ],
    )
    def test_berezin_overflow_exits_3(self, tmp_path, capsys, route, c, message):
        # an overflow is a numerical refusal (3), not a fault of the config (2)
        config = grid_config(route, symbol={**SYMBOL, "c": c}, **ROUTE_FIELDS[route])
        assert run_both(tmp_path, json.dumps(config)) == ((0, 3), False)
        assert message in capsys.readouterr().err

    def test_failed_run_removes_earlier_manifest(self, tmp_path):
        # a refused rerun into the same directory must not leave the first
        # run's manifest listing files that are gone
        config = {"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 4,
                  "symbol": {"c": 1.0, "d": 0.0,
                             "g": {"type": "polynomial", "coeffs": [1.0, 1.0]}}}
        outdir = tmp_path / "o"
        args = ["run", str(tmp_path / "scenario.json"), "--output-dir", str(outdir)]
        write_config(tmp_path, config)
        assert main(args) == 0
        assert (outdir / "manifest.json").exists()
        config["symbol"]["c"] = 1e200
        write_config(tmp_path, config)
        assert main(args) == 3
        assert not any(outdir.iterdir())

    def test_run_of_another_kind_removes_earlier_files(self, tmp_path):
        # a reused output directory holds only the files its manifest lists,
        # plus files no run writes
        build = {"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 4,
                 "symbol": {"c": 1.0, "d": 0.0,
                            "g": {"type": "polynomial", "coeffs": [1.0, 1.0]}}}
        example = {"name": "e", "kind": "example_3_5", "t": 1.0, "schedule": [8, 16, 32]}
        outdir = tmp_path / "o"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("kept")
        for config in (build, example):
            write_config(tmp_path, config)
            assert main(["run", str(tmp_path / "scenario.json"), "--output-dir", str(outdir)]) == 0
        listed = [o["path"] for o in json.loads((outdir / "manifest.json").read_text())["outputs"]]
        assert listed == ["report.json"]
        assert sorted(f.name for f in outdir.iterdir()) == ["manifest.json", "notes.txt", "report.json"]
        assert (outdir / "notes.txt").read_text() == "kept"

    def test_seed_parses_where_only_echoed(self):
        # bench/workloads.py sends it to invertibility and shift_demo
        assert parse_scenario(invertibility_config(seed=0)).seed == 0
        shift = {"name": "s", "kind": "theorem_check", "check": "shift_demo", "n": 8, "s": 2.0}
        with pytest.raises(ConfigError, match="'seed'"):
            parse_scenario(shift)
        assert parse_scenario({**shift, "seed": 0}).seed == 0

    def test_scenario_carries_only_its_variant_fields(self):
        sc = parse_scenario(grid_config("harmonic_closed_form"))
        assert set(vars(sc)) == {"name", "kind", "route", "output_dir", "symbol", "grid"}


# out-of-domain, wrong-typed and borderline values; all small, so that a
# value that happens to be valid still runs in milliseconds
BAD = [None, "x", True, -1, 0, 1, 3, 7, 0.5, 1.0, 1.5, -2.5, float("nan"), float("inf"),
       1e308, -1e308, 1e-320, 5e-324, [1e308, 1e308],
       [], {}, [1, 2, 3], [0.5, 2.0], "matrix", "3.3", "quadrature", "rational"]


def _s(moduli):
    """s as a number or a [re, im] pair, its modulus drawn from ``moduli``."""
    return st.tuples(st.sampled_from(moduli), st.sampled_from([0.0, 0.7, math.pi])).map(
        lambda ra: ra[0] if ra[1] == 0.0 else [ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])]
    )


@st.composite
def small_configs(draw):
    """A valid config of any kind and variant of SCHEMA, with small sizes."""
    g = draw(st.sampled_from([
        {"type": "polynomial", "coeffs": [2.0, 1.0]},
        {"type": "polynomial", "coeffs": [[1.0, 0.5], 0.0, 0.3]},
        {"type": "rational", "num": [1.0, 0.5], "den": [2.0, -0.5]},
        {"type": "principal_power", "plus_exponent": 0.5, "minus_exponent": -0.5},
    ]))
    c = draw(st.sampled_from([1.0, [0.5, 0.5], 0]))
    symbol = {"c": c, "d": draw(st.sampled_from([0.5, 0])), "g": g}
    n = draw(st.integers(1, 32))
    schedule = sorted(draw(st.sets(st.integers(1, 32), min_size=3, max_size=4)))
    grid = {"radii": sorted(draw(st.sets(st.sampled_from([0.0, 0.3, 0.6, 0.9]), min_size=1))),
            "angles": draw(st.sampled_from([4, 8]))}
    quadrature = {"radial": draw(st.integers(2, 8)), "angular": draw(st.sampled_from([8, 16]))}
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(sorted(SCHEMA)))
    config = {"name": "p", "kind": kind}
    if kind == "toeplitz_build":
        config.update(builder="closed_form", symbol=symbol, n=n)
        if draw(st.booleans()):
            config.update(builder="quadrature", quadrature=quadrature)
    elif kind == "berezin_grid":
        route = draw(st.sampled_from(sorted(SCHEMA[kind][1])))
        config.update(route=route, symbol=symbol, grid=grid)
        if config["route"] == "integral":
            config["quadrature"] = quadrature
        elif config["route"] == "matrix":
            config.update(n=n, tail_tol=draw(st.sampled_from([1e-6, 10.0])))
    elif kind == "invertibility":
        thresholds = {"inf_positive": 1e-3, "sigma_positive": 1e-6, "drift": 0.05}
        config.update(symbol=symbol, schedule=schedule, grid=grid, thresholds=thresholds, seed=seed)
    elif kind == "example_3_5":
        config.update(t=draw(st.floats(-25, 25)), schedule=schedule)
    else:
        check = config["check"] = draw(st.sampled_from(sorted(SCHEMA[kind][1])))
        if check == "shift_demo":
            config.update(n=draw(st.integers(8, 32)), s=draw(_s([1.01, 2.0])), seed=seed)
        else:
            s = {"3.1": _s([0.0, 0.5, 0.99]), "3.2": _s([1.01, 2.0]), "3.3": _s([0.5, 2.0])}[check]
            config.update(count=draw(st.integers(1, 3)), matrix_size=draw(st.integers(1, 6)),
                          s=draw(s), seed=seed)
            if check == "3.2":
                config["vector_trials"] = draw(st.integers(1, 16))
    return config


def _leaves(node, path=()):
    """Paths to every value inside a config, objects and lists included."""
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        yield from _leaves(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A small valid config, or one with a single field replaced, removed or added."""
    # sampled_from hands out the same objects each time: mutate a copy
    config = copy.deepcopy(draw(small_configs()))
    action = draw(st.sampled_from(["none", "replace", "remove", "add"]))
    if action == "none":
        return config, True
    path = draw(st.sampled_from([p for p in _leaves(config) if p]))
    *head, last = path
    parent = config
    for key in head:
        parent = parent[key]
    if action == "replace":
        parent[last] = draw(st.sampled_from(BAD))
    elif action == "remove" and isinstance(parent, dict):
        del parent[last]
    elif isinstance(parent, dict):
        parent["unexpected"] = 1
    return config, False


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_configs())
def test_validate_passes_iff_run_succeeds_or_refuses(tmp_path, case):
    config, valid = case
    (validated, ran), _ = run_both(tmp_path, json.dumps(config))
    if valid:
        assert validated == 0, config
    assert (validated == 0) == (ran in (0, 3)), config


#: configs that once escaped the exit-code contract, each with the exit codes of validate
#: and run and the cause they must name.  phi = c (2 + z) with |c| near the float maximum,
#: whose values and section overflow, was refused for a wrong cause or with a traceback
#: (exit 1).  A size numpy cannot index passed validate, and run exited 1, or 2 after
#: validate had accepted it: each is now refused by the size rule.  A ValueError numpy
#: raises at run time exited 2, not 3.
HUGE_SYMBOL = {**SYMBOL, "c": [0.7e308, 0.7e308], "d": 0}
HUGE = 2**63
CONTRACT_REGRESSIONS = {
    "closed-form modulus overflow": (
        grid_config("harmonic_closed_form", symbol=HUGE_SYMBOL), 3,
        "non-finite |value| inf at z = 0j",
    ),
    "matrix-route section overflow": (
        grid_config("matrix", symbol=HUGE_SYMBOL, **ROUTE_FIELDS["matrix"]), 3,
        "operator norm proxy inf at N = 16: the section overflowed",
    ),
    "radial nodes 2^63": (
        grid_config("integral", quadrature={**QUADRATURE, "radial": HUGE}), 2,
        f"config.quadrature: radial_nodes must be at most {sys.maxsize}",
    ),
    "angular nodes 2^63": (
        grid_config("integral", quadrature={**QUADRATURE, "angular": HUGE}), 2,
        f"config.quadrature: angular_nodes must be at most {sys.maxsize}",
    ),
    "quadrature build n 10^400": (
        build_config(SYMBOL, 10**400, "quadrature", quadrature=QUADRATURE), 2,
        f"config.n: n must be at most {sys.maxsize}",
    ),
    "grid angles 2^63": (
        grid_config("harmonic_closed_form", grid={**GRID, "angles": HUGE}), 2,
        f"config.grid: angles_per_radius must be at most {sys.maxsize}",
    ),
    "closed-form build n 2^63": (
        build_config(SYMBOL, HUGE), 2, f"config.n: n must be at most {sys.maxsize}"
    ),
    "schedule entry 2^63": (
        invertibility_config(schedule=[16, 32, HUGE]), 2,
        f"config.schedule: schedule sizes must be at most {sys.maxsize}",
    ),
    "closed-form build n 2^32": (build_config(SYMBOL, 2**32), 3, "array is too big"),
    "theorem_check count 2^40": (
        mix_config("3.1", count=2**40, matrix_size=8), 2,
        "config: 3.66e+16 work units exceed the ceiling of 1e+10",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_REGRESSIONS))
def test_contract_regressions_refuse_with_their_cause(tmp_path, capsys, case):
    config, code, cause = CONTRACT_REGRESSIONS[case]
    validated = 0 if code == 3 else 2  # a refusal after parsing is numerical
    assert run_both(tmp_path, json.dumps(config)) == ((validated, code), False)
    assert cause in capsys.readouterr().err


PIPELINE_CONFIGS = [
    build_config(SYMBOL, 8),
    grid_config("harmonic_closed_form"),
    invertibility_config(),
    mix_config("3.1"),
    {"name": "e", "kind": "example_3_5", "t": 1.0, "schedule": [8, 16, 32]},
]


@pytest.mark.parametrize("config", PIPELINE_CONFIGS, ids=lambda c: c["kind"])
def test_pipelines_return_their_files_and_write_nothing(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    pipeline, names = cli._PIPELINES[config["kind"]]
    report, export = pipeline(parse_scenario(config))
    assert list(tmp_path.iterdir()) == []
    assert report["kind"] == config["kind"]
    # one (writer, data) pair for all the declared names, matrix.json and matrix.csv by
    # write_matrix; none where no file is declared
    writer = {"toeplitz_build": "write_matrix", "berezin_grid": "write_grid"}.get(config["kind"])
    if writer is None:
        assert names == () and export == ()
    else:
        assert export[0].__name__ == writer


class TestExample35Command:
    """The Example 3.5 study, run as every scenario is: ``berglab run`` of its config."""

    def run(self, tmp_path, schedule):
        path = write_config(tmp_path, example35_config(1.0, schedule))
        outdir = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 0
        return outdir

    def test_writes_report_with_exact_factorization(self, tmp_path):
        outdir = self.run(tmp_path, [16, 32, 64])
        report = json.loads((outdir / "report.json").read_text())
        assert report["bounds_hold"] is True
        assert max(report["residuals"]) <= 1e-12
        assert report["grid_min"] >= report["modulus_bound"]

    def test_writes_a_manifest_like_run(self, tmp_path):
        outdir = self.run(tmp_path, [8, 16, 32])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["scenario"] == {"name": "example35-t1", "kind": "example_3_5", "t": 1.0,
                                        "schedule": [8, 16, 32]}
        data = (outdir / "report.json").read_bytes()
        assert manifest["outputs"] == [{"path": "report.json",
                                        "sha256": hashlib.sha256(data).hexdigest(),
                                        "bytes": len(data)}]
        assert sorted(f.name for f in outdir.iterdir()) == ["manifest.json", "report.json"]

    def test_is_no_subcommand(self, tmp_path, capsys):
        # ``run`` and ``validate`` are the only commands; argparse exits 2 on any other
        args = ["example35", "--t", "1", "--schedule", "8,16,32", "--output-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "invalid choice: 'example35'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, invertibility_config())
    # pytest's pythonpath setting does not reach a subprocess
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "berglab.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
