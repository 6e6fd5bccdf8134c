"""The repro-lint engine: file discovery, context building, suppression.

The engine owns everything that is not rule logic: walking the argument
paths for ``*.py`` files, parsing each one once into a shared
:class:`FileContext` (AST, comment map, import tables, hot-path
markers), dispatching the rule set from :mod:`repro.analysis.rules`, and
applying ``# repro-lint: disable=...`` pragmas.

Pragma grammar::

    # repro-lint: disable=RL003 float64 accumulator for Eq. 5 stability
    # repro-lint: disable=RL001,RL005 fixture exercises both rules

The comma-separated rule ids are followed by a mandatory free-text
reason.  A pragma suppresses matching violations on its own line and —
when it is a standalone comment line — on the next line.  A pragma with
no reason suppresses nothing and is itself reported as ``RL000
bare-pragma``: unexplained suppressions are how contracts rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .rules import RULES, Rule, Violation

__all__ = [
    "FileContext",
    "FileReport",
    "LintReport",
    "Linter",
    "lint_paths",
    "lint_source",
]

PRAGMA_RE = re.compile(r"repro-lint:\s*disable=(\S+)(?:\s+(.*\S))?\s*$")
HOTPATH_RE = re.compile(r"#\s*repro:\s*hotpath\b")


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    #: normalized posix-style path used for rule scoping and reporting
    rel: str
    source: str
    tree: ast.Module
    #: lineno -> full comment text (including the leading ``#``)
    comments: dict[int, str] = field(default_factory=dict)
    #: top-level module names bound by ``import X`` / ``import X.Y``
    imports: set[str] = field(default_factory=set)
    #: name -> source module for ``from M import name``
    from_imports: dict[str, str] = field(default_factory=dict)
    #: linenos of ``def`` statements marked ``# repro: hotpath``
    hotpath_defs: set[int] = field(default_factory=set)
    #: linenos whose only content is a comment
    comment_only_lines: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class _Pragma:
    lineno: int
    rule_ids: tuple[str, ...]
    reason: str


@dataclass
class FileReport:
    """Lint outcome for one file."""

    rel: str
    violations: list[Violation]
    suppressed: int = 0

    def format_lines(self) -> list[str]:
        return [v.format(self.rel) for v in self.violations]


@dataclass
class LintReport:
    """Aggregate outcome over every scanned file."""

    files: list[FileReport] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def violations(self) -> list[Violation]:
        return [v for f in self.files for v in f.violations]

    @property
    def suppressed(self) -> int:
        return sum(f.suppressed for f in self.files)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_lines(self) -> list[str]:
        return [line for f in self.files for line in f.format_lines()]


def _normalize_rel(path: Path, root: Path | None) -> str:
    p = path
    if root is not None:
        try:
            p = path.resolve().relative_to(root.resolve())
        except ValueError:
            p = path
    return p.as_posix()


def build_context(source: str, rel: str, path: Path | None = None) -> FileContext:
    """Parse one file into the shared rule-facing context.

    Raises :class:`SyntaxError` when the source does not parse; the
    caller converts that into a reported violation.
    """
    tree = ast.parse(source, filename=rel)
    ctx = FileContext(
        path=path if path is not None else Path(rel),
        rel=rel,
        source=source,
        tree=tree,
    )
    _collect_comments(ctx)
    _collect_imports(ctx)
    _collect_hotpath_defs(ctx)
    return ctx


def _collect_comments(ctx: FileContext) -> None:
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(ctx.source).readline))
    except tokenize.TokenError:  # unterminated strings etc.; AST parsed, so rare
        return
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        lineno = tok.start[0]
        ctx.comments[lineno] = tok.string
        line = tok.line.strip()
        if line.startswith("#"):
            ctx.comment_only_lines.add(lineno)


def _collect_imports(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.imports.add(alias.name.split(".")[0])
                if alias.asname:
                    ctx.imports.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                ctx.from_imports[alias.asname or alias.name] = node.module


def _collect_hotpath_defs(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # marker sits on the def line or the line directly above it
        # (above any decorators, too, so both placements work)
        candidates = {node.lineno, node.lineno - 1}
        if node.decorator_list:
            first = min(d.lineno for d in node.decorator_list)
            candidates.update({first - 1})
        for lineno in candidates:
            comment = ctx.comments.get(lineno)
            if comment and HOTPATH_RE.search(comment):
                ctx.hotpath_defs.add(node.lineno)
                break


def _collect_pragmas(ctx: FileContext) -> tuple[list[_Pragma], list[Violation]]:
    pragmas: list[_Pragma] = []
    bare: list[Violation] = []
    for lineno, comment in ctx.comments.items():
        m = PRAGMA_RE.search(comment)
        if not m:
            continue
        rule_ids = tuple(r for r in m.group(1).split(",") if r)
        reason = (m.group(2) or "").strip()
        if not reason:
            bare.append(
                Violation(
                    rule_id="RL000",
                    rule_name="bare-pragma",
                    lineno=lineno,
                    col=0,
                    message=(
                        "suppression pragma without a reason; write "
                        "'# repro-lint: disable=<ids> <why>' (the reason is "
                        "mandatory, and the bare pragma suppresses nothing)"
                    ),
                )
            )
            continue
        pragmas.append(_Pragma(lineno=lineno, rule_ids=rule_ids, reason=reason))
    return pragmas, bare


def _suppression_map(
    ctx: FileContext, pragmas: list[_Pragma]
) -> dict[int, set[str]]:
    suppress: dict[int, set[str]] = {}
    for p in pragmas:
        lines = [p.lineno]
        if p.lineno in ctx.comment_only_lines:
            lines.append(p.lineno + 1)
        for lineno in lines:
            suppress.setdefault(lineno, set()).update(p.rule_ids)
    return suppress


class Linter:
    """Run a rule set over files or in-memory sources."""

    def __init__(
        self, rules: Sequence[Rule] | None = None, root: Path | None = None
    ) -> None:
        self.rules: tuple[Rule, ...] = tuple(rules) if rules is not None else RULES
        self.root = root

    # -- discovery --------------------------------------------------------

    @staticmethod
    def iter_python_files(paths: Iterable[Path]) -> list[Path]:
        files: list[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                    and not any(part.startswith(".") for part in p.parts)
                )
            elif path.suffix == ".py":
                files.append(path)
        return files

    # -- entry points -----------------------------------------------------

    def lint_paths(self, paths: Iterable[Path]) -> LintReport:
        report = LintReport()
        for path in self.iter_python_files(paths):
            rel = _normalize_rel(path, self.root)
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                report.files.append(
                    FileReport(
                        rel=rel,
                        violations=[
                            Violation("RL000", "unreadable", 1, 0, str(exc))
                        ],
                    )
                )
                continue
            report.files.append(self.lint_source(source, rel, path=path))
            report.files_scanned += 1
        return report

    def lint_source(
        self, source: str, rel: str, path: Path | None = None
    ) -> FileReport:
        """Lint one in-memory source blob as if it lived at ``rel``.

        ``rel`` drives rule scoping (e.g. ``src/repro/nn/kernels.py``
        opts into RL003), which is what the fixture tests lean on.
        """
        try:
            ctx = build_context(source, rel, path=path)
        except SyntaxError as exc:
            return FileReport(
                rel=rel,
                violations=[
                    Violation(
                        "RL000",
                        "syntax-error",
                        exc.lineno or 1,
                        (exc.offset or 1) - 1,
                        f"file does not parse: {exc.msg}",
                    )
                ],
            )
        pragmas, bare = _collect_pragmas(ctx)
        suppress = _suppression_map(ctx, pragmas)
        raw: list[Violation] = []
        for rule in self.rules:
            if rule.applies(ctx):
                raw.extend(rule.check(ctx))
        kept: list[Violation] = list(bare)
        suppressed = 0
        for v in raw:
            if v.rule_id in suppress.get(v.lineno, ()):  # pragma matched
                suppressed += 1
            else:
                kept.append(v)
        kept.sort(key=lambda v: (v.lineno, v.col, v.rule_id))
        return FileReport(rel=rel, violations=kept, suppressed=suppressed)


def lint_paths(
    paths: Iterable[Path], rules: Sequence[Rule] | None = None
) -> LintReport:
    """Module-level convenience wrapper used by the CLI and tests."""
    return Linter(rules=rules).lint_paths(paths)


def lint_source(
    source: str, rel: str, rules: Sequence[Rule] | None = None
) -> FileReport:
    """Lint an in-memory snippet under a virtual path (fixture tests)."""
    return Linter(rules=rules).lint_source(source, rel)
