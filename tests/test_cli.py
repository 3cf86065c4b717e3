"""Tests for the command-line entry points and report plumbing."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import torsionlab
from torsionlab import cli
from torsionlab.analytic import ModelGeometry, geometry_to_json
from torsionlab.cli import format_report, main, run_torsion, run_verify
from torsionlab.complexes import MetricComplex, complex_to_json
from torsionlab.instances import random_invertible
from torsionlab.morse import (
    arc_data,
    double,
    morse_to_json,
    split_circle_data,
    thom_smale,
    three_column_double,
)
from torsionlab.spectral import total_complex

LOG2 = float(np.log(2.0))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTorsionCommand:
    def test_two_term_complex(self, tmp_path):
        path = write(tmp_path, "two.json", complex_to_json(
            MetricComplex([1, 1], [np.array([[2.0]])], [np.eye(1), np.eye(1)])))
        report = run_torsion(path, "complex")
        assert report["values"]["torsion_degree0"] == pytest.approx(-LOG2, abs=1e-9)
        assert main(["torsion", path, "--kind", "complex"]) == 0

    def test_zero_complex(self, tmp_path):
        path = write(tmp_path, "zero.json", complex_to_json(
            MetricComplex([0, 0], [np.zeros((0, 0))], [np.zeros((0, 0))] * 2)))
        assert run_torsion(path, "complex")["values"]["torsion_degree0"] == 0.0

    def test_circle_geometry(self, tmp_path):
        path = write(tmp_path, "circle.json",
                     geometry_to_json(ModelGeometry("circle", 2.0)))
        report = run_torsion(path, "geometry")
        assert report["values"]["torsion_degree0"] == pytest.approx(-LOG2, abs=1e-12)

    def test_morse_and_double_kinds(self, tmp_path):
        U = np.array([[np.exp(0.9j)]])
        path = write(tmp_path, "morse.json", morse_to_json(split_circle_data(U)))
        expected = -np.log(np.abs(1 - np.exp(0.9j)))
        report = run_torsion(path, "morse")
        assert report["values"]["torsion_degree0"] == pytest.approx(expected, abs=1e-10)
        path = write(tmp_path, "double.json",
                     morse_to_json(double(arc_data(rank=1))))
        report = run_torsion(path, "double")
        assert set(report["values"]) == {"torsion_degree0",
                                         "equivariant_identity",
                                         "equivariant_reflection"}

    def test_malformed_input_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not valid json")
        assert main(["torsion", path, "--kind", "complex"]) == 2
        assert main(["torsion", str(tmp_path / "missing.json"),
                     "--kind", "complex"]) == 2

    @pytest.mark.parametrize("bad", ["nan_metric", "huge_differential"])
    def test_non_finite_complex_exits_2(self, tmp_path, bad):
        h = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        v = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        if bad == "nan_metric":
            h[1] = h[1].copy()
            h[1][0, 1] = np.nan
        else:
            v[0, 0] = 1e200
        path = write(tmp_path, f"{bad}.json", complex_to_json(MetricComplex([2, 2], [v], h)))
        assert main(["torsion", path, "--kind", "complex"]) == 2

    @pytest.mark.parametrize("bad", ["morse_transport", "double_transport",
                                     "holonomy", "nan_length", "inf_length"])
    def test_non_finite_data_exits_2(self, tmp_path, capsys, bad):
        if bad in ("morse_transport", "double_transport"):
            kind = bad.split("_")[0]
            datum = (split_circle_data(np.array([[np.exp(0.9j)]])) if kind == "morse"
                     else double(arc_data(rank=1)))
            doc = json.loads(morse_to_json(datum))
            doc["instantons"][0]["transport"]["re"][0][0] = float("nan")
        else:
            kind = "geometry"
            doc = json.loads(geometry_to_json(ModelGeometry("circle", 2.0)))
            if bad == "holonomy":
                doc["holonomy"]["im"][0][0] = float("nan")
            else:
                doc["length"] = float("nan" if bad == "nan_length" else "inf")
        path = write(tmp_path, f"{bad}.json", json.dumps(doc))
        assert main(["torsion", path, "--kind", kind]) == 2
        assert "non-finite or overflowing" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, tmp_path):
        doc = {"kind": "circle", "length": 1.0, "rank": 1,
               "holonomy": {"re": [[2.0]], "im": [[0.0]]}}
        path = write(tmp_path, "nonunitary.json", json.dumps(doc))
        assert main(["torsion", path, "--kind", "geometry"]) == 3

    def test_every_library_exception_exits_2_or_3(self, monkeypatch, capsys):
        # every exception type a torsionlab module defines reaches main() as
        # a data error (exit 3) or malformed input (exit 2), not a traceback
        defined = []
        for info in pkgutil.iter_modules(torsionlab.__path__, "torsionlab."):
            if info.name.endswith(".__main__"):  # importing it runs the CLI
                continue
            module = importlib.import_module(info.name)
            defined += [c for _, c in inspect.getmembers(module, inspect.isclass)
                        if issubclass(c, Exception) and c.__module__ == module.__name__]
        assert len(defined) >= 9
        for exc in defined:
            assert issubclass(exc, cli.INVARIANT_ERRORS + (ValueError,)), exc

            def raise_it(*args, **kwargs):
                raise exc("probe")

            monkeypatch.setattr(cli, "run_verify", raise_it)
            assert main(["verify", "finite"]) in (2, 3), exc
            assert "probe" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError])
    def test_numerical_failure_exits_3(self, exc, monkeypatch, capsys):
        # LinAlgError is a ValueError, yet a numerical failure, not bad input
        def raise_it(*args, **kwargs):
            raise exc("probe")

        monkeypatch.setattr(cli, "run_verify", raise_it)
        assert main(["verify", "finite"]) == 3
        assert "probe" in capsys.readouterr().err


class TestVerifyCommand:
    def test_suites_pass(self):
        for suite in ("spectral", "morse", "analytic", "gluing"):
            report = run_verify(suite, seed=3)
            assert report["verdict"] == "pass", report

    def test_morse_differential_check_measures_d_squared(self, monkeypatch):
        # the suite's first draws, replayed: ten split circles, each read as
        # its Thom-Smale complex and the total complex of its three columns
        report = run_verify("morse", seed=5)
        entry = next(c for c in report["checks"]
                     if c["name"] == "differential_squares_to_zero")
        rng, worst, compositions = np.random.default_rng(5), 0.0, 0
        for _i in range(10):
            M = split_circle_data(random_invertible(rng, int(rng.integers(1, 4))))
            for E in (thom_smale(M), total_complex(three_column_double(M))):
                square, sl = E.v_total() @ E.v_total(), E.block_slices()
                for q in range(len(sl) - 2):
                    compositions += 1
                    worst = max(worst, np.linalg.norm(square[sl[q + 2], sl[q]]))
        assert compositions >= 10
        assert entry["value"] == pytest.approx(worst, abs=1e-15)
        assert entry["tolerance"] == 1e-12 and entry["verdict"] == "pass"
        # a total complex whose d^2 is 1 fails the check
        monkeypatch.setattr(cli, "total_complex", lambda D: MetricComplex(
            [1, 1, 1], [np.ones((1, 1))] * 2, [np.eye(1)] * 3))
        entry = next(c for c in run_verify("morse", seed=5)["checks"]
                     if c["name"] == "differential_squares_to_zero")
        assert entry["value"] == 1.0 and entry["verdict"] == "fail"

    def test_exit_code_zero_on_pass(self, capsys):
        assert main(["verify", "morse", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_failure_exit_code(self):
        # an absurdly tight tolerance forces check failures -> exit 1
        report = run_verify("gluing", seed=0, tolerance=1e-30)
        assert report["verdict"] == "fail"
        assert main(["verify", "gluing", "--seed", "0",
                     "--tolerance", "1e-30"]) == 1

    def test_deterministic_reports(self):
        a = format_report(run_verify("morse", seed=11), "json")
        b = format_report(run_verify("morse", seed=11), "json")
        assert a == b
        c = format_report(run_verify("morse", seed=12), "json")
        assert a != c

    def test_json_report_is_valid(self):
        doc = json.loads(format_report(run_verify("analytic", seed=2), "json"))
        assert doc["command"] == "verify"
        assert all(c["verdict"] == "pass" for c in doc["checks"])

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(torsionlab.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-m", "torsionlab", "verify", "morse", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout

    def test_finite_suite_does_not_import_scipy(self):
        # scipy serves only the closed zeta route, which imports it itself
        src = os.path.dirname(os.path.dirname(os.path.abspath(torsionlab.__file__)))
        code = ("import sys\n"
                "from torsionlab import cli, glue\n"
                "assert cli.main(['verify', 'finite', '--seed', '3']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
