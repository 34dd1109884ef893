"""Load lintable programs from files.

``repro lint`` accepts two kinds of input:

* a source file in the paper's language (any extension but ``.py``,
  or ``-`` for stdin) — one program per file;
* a Python module (``.py``) — the convention used by ``examples/``.
  The module is imported and searched for embedded programs: module
  attributes that are :class:`~repro.lang.ast.Program` instances,
  zero-required-argument module-level callables whose name suggests a
  program factory (``figure3_program``, ``*_looped`` ...), and string
  constants that parse as programs.  This lets ``repro lint
  examples/synchronization_channel.py`` analyse the actual Figure 3
  AST the example demonstrates.

Parse and validation failures inside an embedded candidate are
*skipped* (an example may hold deliberately broken fragments); for a
paper-language file they are reported as ``RPL001``/``RPL002``
diagnostics so the CLI can present them uniformly.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import LanguageError, LoadError, ReproError
from repro.lang.ast import Program, Stmt
from repro.staticlint.diagnostics import Diagnostic, Span, make

#: Callable names worth probing for an embedded program.
_FACTORY_NAME = re.compile(r"(_program$|_looped$|^program_|^build_)")


@dataclass
class LintUnit:
    """One lintable program and where it came from."""

    path: str
    name: str
    subject: Optional[Union[Program, Stmt]]
    #: Loader-level diagnostics (parse/validation errors).
    problems: List[Diagnostic]

    @property
    def label(self) -> str:
        """``path`` or ``path:name`` when a file holds several programs."""
        return self.path if not self.name else f"{self.path}:{self.name}"


def load_units(path: str) -> List[LintUnit]:
    """All lintable programs found at ``path`` (see module docstring)."""
    if path.endswith(".py"):
        return _load_python(path)
    return [_load_source(path)]


def _load_source(path: str) -> LintUnit:
    """Parse a paper-language file; failures become diagnostics."""
    from repro.lang.parser import parse_program, read_source
    from repro.lang.validate import validate_program

    source = read_source(path)
    try:
        program = parse_program(source)
    except LanguageError as exc:
        span = Span(exc.line or 0, exc.column or 0, exc.line or 0, exc.column or 0)
        return LintUnit(path, "", None, [make(
            "RPL001", f"parse error: {exc}", span=span, pass_name="loader",
        )])
    problems = validate_program(program)
    if problems:
        diags = []
        for problem in problems:
            loc = getattr(problem, "loc", None)
            span = (Span(loc.line, loc.column, loc.line, loc.column)
                    if loc else Span(0, 0, 0, 0))
            diags.append(make(
                "RPL002", f"validation: {problem}", span=span,
                pass_name="loader",
            ))
        return LintUnit(path, "", None, diags)
    return LintUnit(path, "", program, [])


def _load_python(path: str) -> List[LintUnit]:
    """Import a Python module and harvest its embedded programs."""
    from repro.lang.parser import parse_program, parse_statement

    module_name = "_repro_lint_" + re.sub(r"\W", "_", path)
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise LoadError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    # register before exec so dataclasses/typing lookups resolve
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException as exc:
        sys.modules.pop(module_name, None)
        raise LoadError(f"importing {path} failed: {exc!r}") from exc

    units: List[LintUnit] = []
    seen_sources = set()
    for attr in sorted(vars(module)):
        if attr.startswith("_"):
            continue
        value = getattr(module, attr)
        if isinstance(value, Program):
            units.append(LintUnit(path, attr, value, []))
        elif isinstance(value, str) and ("begin" in value or ":=" in value):
            program = None
            for parse in (parse_program, parse_statement):
                try:
                    program = parse(value)
                    break
                except ReproError:
                    continue
            if program is not None and value not in seen_sources:
                seen_sources.add(value)
                units.append(LintUnit(path, attr, program, []))
        elif callable(value) and _FACTORY_NAME.search(attr):
            try:
                signature = inspect.signature(value)
            except (TypeError, ValueError):
                continue
            if any(
                p.default is inspect.Parameter.empty
                and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
                for p in signature.parameters.values()
            ):
                continue
            try:
                produced = value()
            except Exception:
                continue
            if isinstance(produced, (Program, Stmt)):
                units.append(LintUnit(path, attr, produced, []))
    sys.modules.pop(module_name, None)
    if not units:
        units.append(LintUnit(path, "", None, []))
    return units
