"""Every public function and class of the package has a user outside the
tests: package code outside its own definition (in any module of
``src/fractal_tutte``), or the README's code.  Code that only tests call
belongs in ``tests/helpers.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fractal_tutte"


def _read_names(node):
    """Every name that the code under node reads, bare or as an
    attribute; import statements are not reads."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _readme_code_names():
    """The identifiers in the README's code blocks and inline code."""
    parts = (ROOT / "README.md").read_text().split("```")
    code = parts[1::2] + [span for prose in parts[::2]
                          for span in re.findall(r"`([^`]+)`", prose)]
    return set(re.findall(r"\w+", "\n".join(code)))


def test_every_public_name_has_a_user_outside_the_tests():
    nodes = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    reads = [_read_names(node) for node in nodes]
    documented = _readme_code_names()
    unused = []
    for i, node in enumerate(nodes):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            used = set().union(*reads[:i], *reads[i + 1:])
            if node.name not in used | documented:
                unused.append(node.name)
    assert not unused, f"public, with no user outside the tests: {unused}"
