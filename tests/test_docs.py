"""Backticked `<module>.<name>` references in the README and the package's
docstrings must name what the code holds, so a renamed or deleted function
cannot stay documented, and the README's `sawnet` command lines must parse.
ROADMAP.md and perfbench/ are not checked: they name benchmark metrics such
as `models.forwards`, not attributes."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from sawnet.cli import build_parser
from sawnet.models import WeightBundle

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sawnet"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.(\w+)")


def docstrings(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""


def references():
    texts = [("README.md", (ROOT / "README.md").read_text(encoding="utf-8"))]
    texts += [(path.name, doc) for path in sorted(PACKAGE.glob("*.py")) for doc in docstrings(path)]
    return [(where, *m.groups()) for where, text in texts for m in REFERENCE.finditer(text)]


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(f"sawnet.{module}"), name):
        return True
    # `bundle.` also stands for a WeightBundle, as in `bundle.plan`
    return module == "bundle" and (hasattr(WeightBundle, name)
                                   or name in WeightBundle.__dataclass_fields__)


def test_every_reference_resolves():
    refs = references()
    assert len(refs) >= 40  # the pattern still finds the references
    assert [f"{where}: `{module}.{name}`" for where, module, name in refs
            if not resolves(module, name)] == []


def readme_commands():
    """The `sawnet ...` lines of the README's bash blocks, as argument lists."""
    blocks = re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("sawnet ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 6  # the pattern still finds the walkthrough
    parser, failed = build_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:  # a usage error
            failed.append(shlex.join(argv))
    assert failed == []
