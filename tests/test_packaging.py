"""Packaging checks: the ``py.typed`` marker must actually ship, the
linter must stay off the product's import graph, and numpy is the one
runtime dependency.

``pyproject.toml`` references the marker via ``[tool.setuptools.package-data]``;
these tests catch the classic failure where the file exists in the repo
but is silently dropped from the built distribution (or never existed at
all), which would turn every downstream ``mypy`` run against the
installed package into a no-op.
"""

import ast
import importlib
import os
import subprocess
import sys
import tarfile
import zipfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_MARKER = REPO_ROOT / "src" / "repro" / "py.typed"
#: the process-pool package deleted under ROADMAP 3(c)
GONE = "perf"


def _build(kind, out_dir):
    """Build an sdist or wheel via the PEP 517 backend, in a subprocess
    so the backend's cwd requirement doesn't disturb the test runner."""
    code = (
        "import setuptools.build_meta as bm, sys\n"
        f"print(bm.build_{kind}(sys.argv[1]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(out_dir)],
        cwd=REPO_ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        return None, result.stderr
    return out_dir / result.stdout.strip().splitlines()[-1], None


def test_py_typed_marker_exists_in_tree():
    """pyproject's package-data points at src/repro/py.typed — it must
    exist (an empty file is the PEP 561 convention)."""
    assert SRC_MARKER.is_file()


def test_pyproject_declares_py_typed_package_data():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "py.typed" in text


def test_sdist_includes_py_typed(tmp_path):
    artifact, err = _build("sdist", tmp_path)
    assert artifact is not None, f"sdist build failed:\n{err}"
    with tarfile.open(artifact) as tar:
        names = tar.getnames()
    assert any(n.endswith("src/repro/py.typed") for n in names), names
    assert not any(f"repro/{GONE}" in n for n in names), names


def test_wheel_includes_py_typed(tmp_path):
    """Build a real wheel and check the marker lands inside it.

    Skipped (not failed) where the environment cannot build wheels at
    all — old setuptools without the bundled ``wheel`` backend; CI
    installs the pinned dev extra and always runs this.
    """
    artifact, err = _build("wheel", tmp_path)
    if artifact is None:
        assert err is not None
        if "wheel" in err.lower() or "No module named" in err:
            pytest.skip("environment cannot build wheels "
                        "(setuptools without wheel support)")
        pytest.fail(f"wheel build failed:\n{err}")
    with zipfile.ZipFile(artifact) as wheel:
        names = wheel.namelist()
    assert "repro/py.typed" in names, names
    assert not any(f"repro/{GONE}" in n for n in names), names


def test_the_process_pool_package_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module(f"repro.{GONE}")


def test_numpy_is_the_only_runtime_dependency():
    """Importing every product module pulls in no networkx, and
    ``[project].dependencies`` declares numpy alone.  Run in a fresh
    interpreter so modules other tests imported cannot hide an import."""
    code = (
        "import importlib, pathlib, sys\n"
        "root = pathlib.Path(sys.argv[1])\n"
        "for path in sorted(root.joinpath('repro').rglob('*.py')):\n"
        "    parts = path.relative_to(root).with_suffix('').parts\n"
        "    if parts[1:2] == ('analysis',):\n"
        "        continue\n"
        "    if parts[-1] == '__init__':\n"
        "        parts = parts[:-1]\n"
        "    importlib.import_module('.'.join(parts))\n"
        "print('networkx' in sys.modules)\n"
    )
    src = REPO_ROOT / "src"
    result = subprocess.run(
        [sys.executable, "-c", code, str(src)], cwd=REPO_ROOT,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == ["numpy"]


def _imported_modules(path, package):
    """Absolute dotted names a source file imports, at any scope."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - (node.level - 1)] \
                if node.level else []
            prefix = base + (node.module.split(".") if node.module else [])
            # `from .. import analysis` names the module in the alias
            for alias in node.names:
                yield ".".join(prefix + [alias.name])


def test_product_modules_do_not_import_the_linter():
    """``repro.analysis`` reads source text and is not TIPSY: no product
    module may import it (ROADMAP 3(b)).  Only the CLI root dispatches
    to it.  Pure AST walk — nothing under ``src/`` is executed."""
    root = REPO_ROOT / "src"
    offenders = []
    for path in sorted((root / "repro").rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[1] == "analysis" or parts == ["repro", "__main__"]:
            continue
        package = parts[:-1]
        offenders += [
            f"{path.relative_to(REPO_ROOT)} imports {name}"
            for name in _imported_modules(path, package)
            if (name + ".").startswith("repro.analysis.")]
    assert not offenders, offenders


def test_no_product_module_builds_record_objects_from_columns():
    """An aggregated hour stays columns from the aggregator into the
    window table and down the shard pipes (ROADMAP 3(a)); only
    ``pipeline/records.py``, which defines the view, may name
    ``.to_records()``.  Tests, examples and the benchmark may call it."""
    root = REPO_ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "pipeline" / "records.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_records"]
    assert not offenders, offenders


def test_no_two_bare_test_modules_share_a_name():
    """pytest imports a test module outside a package by its basename,
    so two such modules of one name under ``tests/`` and ``benchmarks/``
    cannot be collected in one run ("import file mismatch")."""
    seen = {}
    clashes = []
    for root in ("tests", "benchmarks"):
        for path in sorted((REPO_ROOT / root).rglob("test_*.py")):
            if (path.parent / "__init__.py").exists():
                continue
            first = seen.setdefault(path.name, path)
            if first != path:
                clashes.append(f"{first.relative_to(REPO_ROOT)} and "
                               f"{path.relative_to(REPO_ROOT)}")
    assert not clashes, clashes
