#!/usr/bin/env python
"""Documentation checker: markdown links, fenced CLI examples, and the
file paths that source docstrings and comments cite.

Run from the repo root (CI runs it in the ``docs`` job)::

    PYTHONPATH=src python tools/check_docs.py

Two families of checks over ``README.md`` and ``docs/*.md``:

1. **Links.**  Every relative markdown link must resolve to a file
   inside the repository, and every ``#anchor`` (same-file or
   cross-file) must match a heading in its target.  External links
   (``http(s)://``, ``mailto:``) are skipped — CI must not depend on
   the network — and so are GitHub-virtual paths that resolve outside
   the repo root (the README's ``../../actions/...`` badge).
2. **CLI examples.**  Inside fenced ``bash`` / ``console`` / ``sh``
   blocks, every ``repro <subcommand>`` invocation must name a real
   subcommand, and every ``--flag`` it passes must exist on that
   subcommand's parser.  The truth source is
   :func:`repro.__main__.build_parser` itself, so examples can never
   drift from the CLI silently.

And one over ``src/repro/**/*.py``:

3. **Cited paths.**  Every repo-relative ``tests/…``, ``docs/…``,
   ``benchmarks/…``, ``examples/…`` or ``tools/…`` ``.py``/``.md`` path
   named in a docstring or a comment must exist, so a renamed test or
   doc cannot leave the code pointing at nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: fence info strings whose contents are shell examples worth checking
_SHELL_LANGS = frozenset({"bash", "console", "sh", "shell"})

_FENCE_RE = re.compile(r"^(```+|~~~+)\s*([A-Za-z0-9_-]*)\s*$")
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
_CITED_PATH_RE = re.compile(
    r"(?<![\w/.\-])((?:tests|docs|benchmarks|examples|tools)/"
    r"[\w./\-]*\.(?:py|md))\b")


def doc_files() -> List[Path]:
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md"))


def split_fences(text: str) -> Tuple[str, List[Tuple[str, List[str]]]]:
    """Separate prose from fenced code blocks.

    Returns (prose with code blocks blanked out, list of
    (language, block lines)).  Link checks run on the prose only;
    CLI checks run on the shell-language blocks only.
    """
    prose: List[str] = []
    blocks: List[Tuple[str, List[str]]] = []
    fence: str = ""
    language: str = ""
    body: List[str] = []
    for line in text.splitlines():
        match = _FENCE_RE.match(line.strip())
        if fence:
            if match and match.group(1)[0] == fence[0] \
                    and len(match.group(1)) >= len(fence):
                blocks.append((language, body))
                fence, language, body = "", "", []
            else:
                body.append(line)
            prose.append("")
        elif match:
            fence, language, body = match.group(1), match.group(2), []
            prose.append("")
        else:
            prose.append(line)
    if fence:  # unterminated fence: keep what we saw
        blocks.append((language, body))
    return "\n".join(prose), blocks


def github_anchor(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation,
    spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path, cache: Dict[Path, Set[str]]) -> Set[str]:
    if path not in cache:
        prose, _ = split_fences(path.read_text(encoding="utf-8"))
        cache[path] = {
            github_anchor(m.group(1))
            for line in prose.splitlines()
            if (m := _HEADING_RE.match(line))
        }
    return cache[path]


def check_links(path: Path, prose: str,
                anchor_cache: Dict[Path, Set[str]]) -> Iterator[str]:
    prose = re.sub(r"`[^`]*`", "", prose)  # drop inline code spans
    for lineno, line in enumerate(prose.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            file_part, _, anchor = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                try:
                    resolved.relative_to(REPO_ROOT)
                except ValueError:
                    continue  # GitHub-virtual path (e.g. the CI badge)
                if not resolved.exists():
                    yield (f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                           f"broken link `{target}` "
                           f"({resolved.relative_to(REPO_ROOT)} missing)")
                    continue
            else:
                resolved = path
            if anchor and resolved.suffix == ".md":
                if anchor not in anchors_of(resolved, anchor_cache):
                    yield (f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                           f"link `{target}` names anchor `#{anchor}` "
                           f"not found in "
                           f"{resolved.relative_to(REPO_ROOT)}")


def cli_surface() -> Dict[str, Set[str]]:
    """Subcommand -> accepted option strings, from the parser itself."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.__main__ import build_parser

    surface: Dict[str, Set[str]] = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface[name] = {
                    opt for sub_action in sub._actions
                    for opt in sub_action.option_strings}
    return surface


def shell_commands(body: List[str]) -> Iterator[str]:
    """Logical commands in a shell block: prompts stripped, backslash
    continuations joined, comments and output lines dropped."""
    pending = ""
    for raw in body:
        line = raw.strip()
        if line.startswith("$"):
            line = line[1:].strip()
        elif not pending and ("=" not in line.split(" ")[0]
                              and not line.startswith(("python", "repro",
                                                       "pip", "git", "mypy",
                                                       "pytest", "pre-commit",
                                                       "PYTHONPATH"))):
            continue  # console output, not a command
        line = re.sub(r"(?<!\S)#.*$", "", line).rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        command = (pending + line).strip()
        pending = ""
        if command:
            yield command


def repro_invocation(command: str) -> List[str]:
    """The argv after ``repro`` for a repro CLI invocation, else []."""
    tokens = [t for t in command.split() if "=" not in t or
              not re.match(r"^[A-Z_][A-Z0-9_]*=", t)]
    for shape in (["python", "-m", "repro"], ["repro"]):
        if tokens[:len(shape)] == shape and len(tokens) > len(shape):
            return tokens[len(shape):]
    return []


def check_cli_blocks(path: Path, blocks: List[Tuple[str, List[str]]],
                     surface: Dict[str, Set[str]]) -> Iterator[str]:
    rel = path.relative_to(REPO_ROOT)
    for language, body in blocks:
        if language.lower() not in _SHELL_LANGS:
            continue
        for command in shell_commands(body):
            argv = repro_invocation(command)
            if not argv:
                continue
            subcommand = argv[0]
            if subcommand.startswith("-"):
                continue  # e.g. `python -m repro --help`
            if subcommand not in surface:
                yield (f"{rel}: example names unknown subcommand "
                       f"`repro {subcommand}` (known: "
                       f"{', '.join(sorted(surface))})")
                continue
            known = surface[subcommand]
            for token in argv[1:]:
                if not token.startswith("--"):
                    continue
                flag = token.split("=")[0]
                if flag not in known:
                    yield (f"{rel}: `repro {subcommand}` example uses "
                           f"unknown flag `{flag}`")


def docstrings_and_comments(text: str) -> Iterator[Tuple[int, str]]:
    """(first line number, text) of each docstring and comment."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield node.body[0].lineno, docstring
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def check_cited_paths(path: Path) -> Iterator[str]:
    rel = path.relative_to(REPO_ROOT)
    for first, text in docstrings_and_comments(
            path.read_text(encoding="utf-8")):
        for offset, line in enumerate(text.splitlines()):
            for match in _CITED_PATH_RE.finditer(line):
                if not (REPO_ROOT / match.group(1)).exists():
                    yield (f"{rel}:{first + offset}: cites "
                           f"`{match.group(1)}`, which does not exist")


def main() -> int:
    surface = cli_surface()
    anchor_cache: Dict[Path, Set[str]] = {}
    problems: List[str] = []
    checked = 0
    for path in doc_files():
        prose, blocks = split_fences(path.read_text(encoding="utf-8"))
        problems.extend(check_links(path, prose, anchor_cache))
        problems.extend(check_cli_blocks(path, blocks, surface))
        checked += 1
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        problems.extend(check_cited_paths(path))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s) in "
              f"{checked} file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {checked} files, links and CLI examples OK; "
          "paths cited in src/repro exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
