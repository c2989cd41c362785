"""Every name that src/toruspoly defines has a caller.

A module-level def or class counts as used when an ast.Name or
ast.Attribute of that name occurs in src/toruspoly outside its own body
and outside __init__.py, or when the name occurs as a word in
tests/test_acceptance.py or perfbench/*.py (perfbench/spans.py names the
kernels it wraps in strings).

A non-dunder method C.name counts as used, outside its own body, on
  * self.name or cls.name inside the body of C, resolved through C's
    bases, and also counted for every subclass of C that overrides name;
  * C.name, or mod.C.name, anywhere in src, resolved through C's bases;
  * x.name for any other x, when C is the only class in src that defines
    name and no builtin type (BUILTIN_TYPES) has a method of that name;
and in tests/test_acceptance.py or perfbench/*.py on the text C.name, or
on the word name under the same two conditions.  An x.name whose name
several classes, or a class and a builtin type, define resolves to none of
them: the owner is listed in SHADOWED with the src function that really
calls it, and the test checks that this function's body still reads
.name.  Names only the other tests reach are either deleted or listed in
ALLOWED with the reason they stay.
"""

import ast
import itertools
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toruspoly"
TEXTS = [ROOT / "tests" / "test_acceptance.py",
         *sorted((ROOT / "perfbench").glob("*.py"))]

ALLOWED = {
    "catalog.mother_p": "the paper's example P(x) = |x|/2 on F_2",
    "catalog.mother_q": "the paper's example Q(x) = |x|/4 on F_2, with pQ = P",
    "poly.enumerate_polys": "the documented public stream of polynomials, "
                            "whose cap message explore prints",
    "poly.CanonicalForm.eval": "the one-point evaluator that the tests "
                               "compare eval_table against",
}

# x.name never resolves to a src class when these types have a method name
BUILTIN_TYPES = (str, bytes, int, float, list, tuple, dict, set,
                 np.ndarray, np.generic)
BUILTIN_METHODS = {name for t in BUILTIN_TYPES for name in dir(t)}

# owner.method -> the src function (module.qualname) whose body calls it
# through a receiver that several classes' methods share a name with
SHADOWED = {
    "core.TorusValue.as_fraction": "norms.BoundedFunction.from_json",
    "core.TorusValue.to_json": "poly.CanonicalForm.to_json",
    "core.ExactExpectation.is_zero": "cubes.equidistribution_report",
    "core.ExactExpectation.as_fraction": "forms.naive_bias",
    "forms.MultilinearForm.scale": "suites._suite_symprod",
    "norms.BoundedFunction.mean": "norms.gowers_power",
    "norms.BoundedFunction.scale": "suites._norm_properties",
    "poly.CanonicalForm.degree": "poly.NCPoly.degree",
    "poly.CanonicalForm.to_json": "poly.NCPoly.to_json",
    "poly.NCPoly.to_json": "cli._poly_payload",
    "poly.NCPoly.eval": "cli._eval",
    "poly.NCPoly.is_zero": "weighted.Factor.validate",
    "poly.NCPoly.degree": "forms.dk_extract",
    "suites.CheckRecord.to_json": "suites.SuiteReport.to_json",
    "suites.SuiteReport.to_bytes": "cli._verify",
    "suites.SuiteReport.add": "suites._suite_lucas",
    "weighted.WeightedPoly.to_json": "cli._wroot",
    "weighted.Factor.degree": "suites._suite_weighted",
}


def _is_method(node):
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _parse(src):
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(src).glob("*.py"))
            if path.name != "__init__.py"}


def _classes(trees):
    """{class name: (module, ClassDef)}; class names are unique in src."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                assert node.name not in out, f"two classes named {node.name}"
                out[node.name] = (module, node)
    return out


def _definitions(trees):
    """(qualified name, name, module, first line, last line) per definition."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((f"{module}.{node.name}", node.name, module,
                        node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{module}.{node.name}.{sub.name}", sub.name,
                            module, sub.lineno, sub.end_lineno)
                           for sub in node.body if _is_method(sub))
    return out


class _Owners:
    """Which classes a method reference resolves to."""

    def __init__(self, classes):
        self.methods = {name: {sub.name for sub in node.body if _is_method(sub)}
                        for name, (_, node) in classes.items()}
        self.bases = {name: [b.id for b in node.bases
                             if isinstance(b, ast.Name) and b.id in classes]
                      for name, (_, node) in classes.items()}
        self.definers = {}
        for cls, names in self.methods.items():
            for name in names:
                self.definers.setdefault(name, set()).add(cls)

    def mro(self, cls):
        out = [cls]
        for base in self.bases[cls]:
            out += [c for c in self.mro(base) if c not in out]
        return out

    def inherited(self, cls, name):
        """The class whose name an attribute lookup on cls finds."""
        return {next((c for c in self.mro(cls) if name in self.methods[c]),
                     None)} - {None}

    def on_self(self, cls, name):
        """self.name inside cls: the inherited method and every override."""
        return self.inherited(cls, name) | {
            c for c in self.methods
            if cls in self.mro(c) and name in self.methods[c]}

    def unique(self, name):
        definers = self.definers.get(name, set())
        return set(definers) if len(definers) == 1 and (
            name not in BUILTIN_METHODS) else set()

    def in_text(self, text):
        """Methods that a text of tests or benchmarks names."""
        words = set(re.findall(r"\w+", text))
        pairs = {pair for chain in re.findall(r"\w+(?:\.\w+)+", text)
                 for pair in itertools.pairwise(chain.split("."))}
        out = set()
        for cls, names in self.methods.items():
            for name in names:
                if (cls, name) in pairs or (name in words
                                            and self.unique(name)):
                    out.add((cls, name))
        return out


def _method_uses(trees, classes, owners):
    """{(class, method): [(module, line), ...]} of every resolved use."""
    out = {}

    def visit(node, module, cls):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            cls = node.name
        if isinstance(node, ast.Attribute):
            recv, name = node.value, node.attr
            if isinstance(recv, ast.Attribute):
                recv_name = recv.attr
            else:
                recv_name = recv.id if isinstance(recv, ast.Name) else None
            if cls and isinstance(recv, ast.Name) and recv_name in ("self", "cls"):
                found = owners.on_self(cls, name)
            elif recv_name in classes:
                found = owners.inherited(recv_name, name)
            else:
                found = owners.unique(name)
            for owner in found:
                out.setdefault((owner, name), []).append((module, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls)

    for module, tree in trees.items():
        visit(tree, module, None)
    return out


def unused_names(src=SRC, texts=TEXTS):
    """Qualified names of src's definitions that nothing uses."""
    trees = _parse(src)
    classes = _classes(trees)
    owners = _Owners(classes)
    text = "\n".join(Path(p).read_text() for p in texts)
    words = set(re.findall(r"\w+", text))
    named = owners.in_text(text)
    names = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.setdefault(node.attr, []).append((module, node.lineno))
    methods = _method_uses(trees, classes, owners)
    out = []
    for qual, name, module, first, last in _definitions(trees):
        parts = qual.split(".")
        if len(parts) == 3:
            key = (parts[1], name)
            if key in named:
                continue
            uses = methods.get(key, [])
        else:
            if name in words:
                continue
            uses = names.get(name, [])
        if all(m == module and first <= line <= last for m, line in uses):
            out.append(qual)
    return out


def _function(src, qual):
    """The ast node of module.function or module.Class.method in src."""
    module, *path = qual.split(".")
    node = ast.parse((Path(src) / f"{module}.py").read_text())
    for part in path:
        node = next(sub for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef))
                    and sub.name == part)
    return node


def test_every_name_has_a_caller():
    unused = [name for name in unused_names()
              if name not in ALLOWED and name not in SHADOWED]
    assert not unused, ("names with no caller in src/toruspoly, "
                        f"tests/test_acceptance.py or perfbench/: {unused}")


def test_every_allowed_name_still_lacks_a_caller():
    # a name that gains a resolved caller leaves the lists
    unused = set(unused_names())
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & unused)
    assert sorted(SHADOWED) == sorted(set(SHADOWED) & unused)


def test_every_shadowed_name_has_its_caller():
    for owner, caller in SHADOWED.items():
        name = owner.rsplit(".", 1)[1]
        body = _function(SRC, caller)
        assert any(isinstance(node, ast.Attribute) and node.attr == name
                   for node in ast.walk(body)), f"{caller} no longer reads .{name}"


def test_resolver_on_a_synthetic_package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "shapes.py").write_text(
        "class Base:\n"
        "    def area(self):\n"
        "        return self._check()\n"
        "    def _check(self):\n"
        "        return 0\n"
        "    def grow(self):\n"
        "        return 1\n"
        "\n"
        "class Square(Base):\n"
        "    def _check(self):\n"
        "        return 1\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
        "    def corners(self):\n"
        "        return 4\n"
        "    def label(self):\n"
        "        return 's'\n"
        "\n"
        "class Circle:\n"
        "    def label(self):\n"
        "        return 'c'\n"
        "    def grow(self):\n"
        "        return 2\n"
        "    def split(self):\n"
        "        return 3\n")
    (pkg / "use.py").write_text(
        "from .shapes import Circle, Square\n"
        "\n"
        "def main(x):\n"
        "    s = Square.build()\n"
        "    return s.area() + x.corners() + len(x.label()) + x.split()\n"
        "\n"
        "def unused(): return Circle\n")
    unused = set(unused_names(pkg, texts=[]))
    # Base._check and Square._check are both reached by self._check in
    # Base; Square.build through the class; Base.area and Square.corners
    # through their unique names; label is shadowed, split is a str
    # method too, and grow and the module's functions have no use
    assert unused == {"shapes.Square.label", "shapes.Circle.label",
                      "shapes.Circle.split", "shapes.Base.grow",
                      "shapes.Circle.grow", "use.main", "use.unused"}
