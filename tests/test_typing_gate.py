"""The strict-typing ratchet, enforceable without mypy installed.

CI runs real ``mypy`` (pinned in the dev extra) as the authoritative
gate; these tests keep the two invariants it depends on from regressing
in environments where mypy is absent:

* every function in a ratcheted package stays fully annotated
  (arguments and returns — the AST-level core of
  ``disallow_untyped_defs``/``disallow_incomplete_defs``);
* no bare generics (``Dict``/``List``/``Tuple`` without parameters —
  the AST-level core of ``disallow_any_generics``).
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: packages under the strict ratchet — keep in sync with the
#: [[tool.mypy.overrides]] strict block in pyproject.toml.  Every
#: package is ratcheted now; new packages start (and stay) here.
STRICT_PACKAGES = ("util", "topology", "bgp", "pipeline",
                   "analysis", "core", "obs", "cms", "telemetry",
                   "traffic", "store", "experiments", "serve")

#: typing names that are meaningless without parameters
GENERIC_NAMES = frozenset({
    "dict", "list", "set", "frozenset", "tuple",
    "Dict", "List", "Set", "FrozenSet", "Tuple", "Type",
    "Sequence", "Iterable", "Iterator", "Mapping", "MutableMapping",
    "Callable", "Generator", "Deque", "DefaultDict", "Counter",
})


def strict_files():
    out = []
    for package in STRICT_PACKAGES:
        root = REPO_ROOT / "src" / "repro" / package
        out.extend(sorted(p for p in root.rglob("*.py")
                          if "__pycache__" not in p.parts))
    assert out, "strict packages missing from the tree?"
    return out


def _unannotated(tree):
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        for index, arg in enumerate(named):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                problems.append(
                    f"line {node.lineno}: {node.name}(... {arg.arg} ...) "
                    f"argument unannotated")
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                problems.append(
                    f"line {node.lineno}: {node.name}(*{star.arg}) "
                    f"unannotated")
        if node.returns is None and node.name != "__init__":
            problems.append(
                f"line {node.lineno}: {node.name} return unannotated")
    return problems


def _bare_generics(tree):
    subscripted = set()
    # a module-local class that shadows a typing name (e.g. an own
    # `Counter`) is not the generic — annotations naming it are fine
    local_classes = {node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value,
                                                          ast.Name):
            subscripted.add(id(node.value))

    def annotations():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = (args.posonlyargs + args.args + args.kwonlyargs
                         + [a for a in (args.vararg, args.kwarg) if a])
                for arg in every:
                    if arg.annotation is not None:
                        yield arg.annotation
                if node.returns is not None:
                    yield node.returns
            elif isinstance(node, ast.AnnAssign):
                yield node.annotation

    problems = []
    for annotation in annotations():
        for node in ast.walk(annotation):
            if (isinstance(node, ast.Name) and node.id in GENERIC_NAMES
                    and node.id not in local_classes
                    and id(node) not in subscripted):
                problems.append(
                    f"line {node.lineno}: bare generic `{node.id}`")
    return problems


@pytest.mark.parametrize(
    "path", strict_files(),
    ids=lambda p: str(p.relative_to(REPO_ROOT / "src")))
def test_strict_package_stays_fully_annotated(path):
    tree = ast.parse(path.read_text())
    problems = _unannotated(tree) + _bare_generics(tree)
    assert not problems, f"{path}:\n  " + "\n  ".join(problems)


def test_pyproject_commits_the_ratchet():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.mypy]" in text
    assert "disallow_untyped_defs" in text
    for package in STRICT_PACKAGES:
        assert f'"repro.{package}.*"' in text, (
            f"{package} missing from the strict ratchet block")


def test_mypy_passes_when_available():
    """Run the real gate when mypy is installed (always true in CI)."""
    if shutil.which("mypy") is None:
        try:
            import mypy  # noqa: F401
        except ImportError:
            pytest.skip("mypy not installed in this environment")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
