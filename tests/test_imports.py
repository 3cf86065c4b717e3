"""Every import in ``src/`` and ``tests/`` is used, and the linear-algebra
routes and the full f' product stay where they belong (standard-library
``ast`` only)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported, hence used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert [u for f in files for u in unused_imports(f)] == []


def linalg_calls(path):
    """Names f of every ``np.linalg.f(...)`` call in the file."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) == "np.linalg"}


def test_one_rank_policy_and_one_eigenvalue_route():
    # singular values are cut only by the rank policy in complexes.py, and
    # computed only by the one decomposition that a complex's store holds;
    # hodge's eigenvalue route reads singular values, and neither it nor
    # the modules built on it keep an eigen solver
    files = {f.name: linalg_calls(f) for f in sorted((ROOT / "src").rglob("*.py"))}
    assert sorted(name for name, calls in files.items() if "svd" in calls) == ["complexes.py"]
    tree = ast.parse((ROOT / "src" / "torsionlab" / "complexes.py").read_text())
    callers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "np.linalg.svd"}
    assert callers == {"_svd_factors"}
    for name in ("hodge.py", "morse.py", "spectral.py", "glue.py"):
        assert not {c for c in files[name] if c.startswith("eig")}, name


def test_one_metric_frame_and_one_span_cut():
    # metric frames come from complexes.metric_frame alone (instances.py,
    # the random-instance generator, inverts its own change-of-basis
    # matrices); span membership is complexes.solve_in_span's cut alone
    files = {f.name: linalg_calls(f) for f in sorted((ROOT / "src").rglob("*.py"))}
    for call in ("cholesky", "inv"):
        assert sorted(name for name, calls in files.items()
                      if call in calls and name != "instances.py") == ["complexes.py"], call
    for name in ("spectral.py", "glue.py"):
        assert "lstsq" not in files[name], name
        tree = ast.parse((ROOT / "src" / "torsionlab" / name).read_text())
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and n.value == 1e-8], name


def test_torsion_integrands_never_form_f_prime():
    # the full product (1 + 2a^2) e^{a^2} is the tests' reference alone:
    # complexes reads its supertrace through algebra.f_prime_supertrace
    tree = ast.parse((ROOT / "src" / "torsionlab" / "complexes.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
    assert "f_prime" not in names
    calls = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)
             and ast.unparse(n.func).split(".")[-1] == "matrix_function"
             and any(isinstance(a, ast.Constant) and a.value == "f_prime"
                     for a in n.args + [k.value for k in n.keywords])]
    assert calls == []


def slice_stores(node):
    """Subscripts under ``node`` written through a slice (``a[i:j] = ...``)."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Subscript)
            and isinstance(n.ctx, ast.Store)
            and any(isinstance(s, ast.Slice) for s in ast.walk(n.slice))]


def test_morse_places_every_block_through_one_helper():
    # a generator's fiber is placed in morse.py by _place alone
    tree = ast.parse((ROOT / "src" / "torsionlab" / "morse.py").read_text())
    place = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_place"]
    assert len(place) == 1
    assert slice_stores(tree) == slice_stores(place[0]) != []


def test_glue_builds_no_complex_by_hand():
    # glue's graded complexes are laid out by spectral._graded_sum
    tree = ast.parse((ROOT / "src" / "torsionlab" / "glue.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and ast.unparse(n.func) == "MetricComplex"]
