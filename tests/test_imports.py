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


def test_library_does_not_import_scipy():
    # the runtime is numpy and the standard library; scipy is a test reference
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {n}"
                      for n in names if n.split(".")[0] == "scipy"]
    assert found == []


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


def test_holonomy_fixed_spaces_and_class_bases_follow_the_rank_policy():
    # analytic takes ker(U - I) from complexes.rank_split, with no eigenvector
    # or angle cut of its own; hodge cuts class bases at each matrix's own
    # largest singular value, as betti() does, with no second scale; and no
    # rank reader in complexes.py takes a scale
    files = {f.name: linalg_calls(f) for f in sorted((ROOT / "src").rglob("*.py"))}
    assert not {"eig", "qr"} & files["analytic.py"]
    tree = ast.parse((ROOT / "src" / "torsionlab" / "analytic.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == 1e-12]
    assert "norm" not in files["hodge.py"]
    tree = ast.parse((ROOT / "src" / "torsionlab" / "complexes.py").read_text())
    readers = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and f.name in ("numerical_rank", "ranked_svd", "rank_split")]
    assert len(readers) == 5
    assert not [f.name for f in readers if "scale" in {a.arg for a in f.args.args}]


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


def test_verify_suites_fold_through_one_helper():
    # cli._fold alone folds a check's residuals over its cases, and lets a
    # NaN through; no function keeps a worst-so-far accumulator, whose
    # max(0.0, nan) would read 0.0, and every suite goes through _fold
    tree = ast.parse((ROOT / "src" / "torsionlab" / "cli.py").read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    stores = [f"{f.name}: {n.id}" for f in functions for n in ast.walk(f)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
              and n.id.startswith("worst")]
    folds = [f"{f.name}: {ast.unparse(n)}" for f in functions for n in ast.walk(f)
             if isinstance(n, ast.Call) and ast.unparse(n.func) == "max"
             and any(isinstance(a, ast.Name) and a.id.startswith("worst")
                     for arg in n.args for a in ast.walk(arg))]
    assert stores == [] and folds == []
    suites = [f for f in functions if f.name.startswith("suite_")]
    assert len(suites) == 5
    assert all(any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_fold"
                   for n in ast.walk(f)) for f in suites)
