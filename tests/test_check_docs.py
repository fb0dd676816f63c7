"""``docs/CHECK.md``'s code tables agree with the code.

Every ``code=`` / ``severity=`` pair under ``src/repro/check`` — as
keywords of a ``Diagnostic(...)`` or as the first two arguments of the
plan pass's ``_emit(...)`` — whose code is literal (or a module-level
string constant) must be a row of a code table, with the same severity,
and every ``PX2xx`` / ``PX3xx`` row must be emitted somewhere.  The
model pass's ``PX1xx`` codes come from issue kinds, not such pairs, and
are documented by range.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEVERITIES = {"ERROR": "error", "WARNING": "warning", "INFO": "info"}
ROW = re.compile(r"^\| `(PX\d{3})` \| (error|warning|info) \|", re.MULTILINE)


def _literal(node: ast.expr, constants: dict[str, str]) -> str | None:
    """A string constant, or a module-level name bound to one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _emitted() -> dict[str, set[str]]:
    """code -> severities, over every pair in ``src/repro/check``."""
    found: dict[str, set[str]] = {}
    for file in sorted((ROOT / "src/repro/check").rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            code, severity = keywords.get("code"), keywords.get("severity")
            if code is None and len(node.args) >= 2:
                code, severity = node.args[0], node.args[1]
            code = _literal(code, constants) if code is not None else None
            if code is None or not re.fullmatch(r"PX\d{3}", code):
                continue
            name = getattr(severity, "id", None)
            assert name in SEVERITIES, f"{file.name}:{node.lineno}: severity of {code}"
            found.setdefault(code, set()).add(SEVERITIES[name])
    return found


def test_code_tables_match_the_emitted_severities():
    documented = {
        code: severity
        for code, severity in ROW.findall(
            (ROOT / "docs/CHECK.md").read_text(encoding="utf-8")
        )
    }
    emitted = _emitted()
    problems = [
        f"{code}: emitted as {sorted(severities)}, documented as "
        f"{documented.get(code, 'no row')}"
        for code, severities in sorted(emitted.items())
        if not code.startswith("PX1") and severities != {documented.get(code)}
    ]
    problems += [
        f"{code}: documented, never emitted"
        for code in sorted(documented)
        if code.startswith(("PX2", "PX3")) and code not in emitted
    ]
    assert not problems, "\n".join(problems)
