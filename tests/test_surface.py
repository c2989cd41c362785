"""Every name that src/toruspoly defines has a caller.

A module-level def or class, or a non-dunder method, counts as used when
an ast.Name or ast.Attribute of that name occurs in src/toruspoly outside
its own body and outside __init__.py, or when the name occurs as a word in
tests/test_acceptance.py or perfbench/*.py (perfbench/spans.py names the
kernels it wraps in strings).  Names only the other tests reach are either
deleted or listed in ALLOWED with the reason they stay.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toruspoly"

ALLOWED = {
    "catalog.mother_p": "the paper's example P(x) = |x|/2 on F_2",
    "catalog.mother_q": "the paper's example Q(x) = |x|/4 on F_2, with pQ = P",
    "poly.enumerate_polys": "the documented public stream of polynomials, "
                            "whose cap message explore prints",
    "forms.MultilinearForm.evaluate": "the one-point evaluator that the "
                                      "tests compare eval_batch against",
}


def _definitions():
    """(qualified name, name, module, first line, last line) per definition."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((f"{path.stem}.{node.name}", node.name, path.stem,
                        node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name,
                     path.stem, sub.lineno, sub.end_lineno)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__")
                             and sub.name.endswith("__")))
    return out


def _references():
    """{name: [(module, line), ...]} of every Name and Attribute in src."""
    out = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((path.stem, node.lineno))
    return out


def unused_names():
    refs = _references()
    texts = [ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    words = set(re.findall(r"\w+", "\n".join(p.read_text() for p in texts)))
    return [qual for qual, name, module, first, last in _definitions()
            if name not in words
            and all(m == module and first <= line <= last
                    for m, line in refs.get(name, []))]


def test_every_name_has_a_caller():
    unused = [name for name in unused_names() if name not in ALLOWED]
    assert not unused, ("names with no caller in src/toruspoly, "
                        f"tests/test_acceptance.py or perfbench/: {unused}")


def test_every_allowed_name_still_lacks_a_caller():
    # a name that gains a caller leaves the list
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(unused_names()))
