"""The package carries no definition, and no attribute set on self, that
only tests reach."""

import ast
import collections
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "milnork"

# Definitions and attributes that no other line of src/ uses and that
# stay, with the reason.
KEPT = {
    "base": "the subgroup an exported DeltaSet describes",
    "canonical_certificate": "perfbench/tracing.py wraps it by name",
    "cocycle": "the replay of an h2 basis vector, the oracle of the h2 tests",
    "h2_predicted_dim": "the H2 full budget step of CI imports it",
    "levels": "perfbench/tracing.py reads it for the tower_levels metric",
    "member_index": "NotPreserving's witness for callers",
}


class _Scan(ast.NodeVisitor):
    """The functions, classes and methods of one module, with their class,
    the attributes it sets on self, and every name the module reads outside
    the definition of that name: as a Name, or as an Attribute or an
    import, so a re-export counts."""

    def __init__(self, module):
        self.module = module
        self.defs = []
        self.stored = []
        self.names = collections.Counter()
        self.attributes = collections.Counter()
        self._inside = []
        self._classes = [None]

    def _define(self, node):
        self.defs.append((self.module, self._classes[-1], node.name,
                          node.lineno))
        self._inside.append(node.name)
        is_class = isinstance(node, ast.ClassDef)
        self._classes.append(node.name if is_class else None)
        if is_class:
            # an alias in a class body, such as name = other_method
            self.defs += [(self.module, node.name, t.id, stmt.lineno)
                          for stmt in node.body
                          if isinstance(stmt, ast.Assign)
                          and isinstance(stmt.value, ast.Name)
                          for t in stmt.targets if isinstance(t, ast.Name)]
        self.generic_visit(node)
        self._classes.pop()
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, uses, name):
        if name not in self._inside:
            uses[name] += 1

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._use(self.names, node.id)

    def visit_Attribute(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._use(self.attributes, node.attr)
        elif isinstance(node.value, ast.Name) and node.value.id == "self":
            self.stored.append((self.module, node.attr, node.lineno))
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(self.attributes, node.name.rpartition(".")[2])


def _overrides(module, cls_name, name):
    """Whether the method overrides one of a base class, whose own callers
    reach it, as argparse reaches ArgumentParser.error."""
    cls = getattr(importlib.import_module("milnork." + module), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _unused():
    """The definitions and the attributes set on self that no other line
    of src/ reads, by name: a method or an attribute is read only as an
    attribute, so a local variable of the same name does not count for
    it."""
    defs, stored = [], []
    names, attributes = collections.Counter(), collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        defs += scan.defs
        stored += scan.stored
        names += scan.names
        attributes += scan.attributes
    unused = {name: "%s.py:%d" % (module, line)
              for module, cls, name, line in defs
              if not attributes[name] and (cls or not names[name])
              and not (name.startswith("__") and name.endswith("__"))
              and not (cls and _overrides(module, cls, name))}
    unused.update((name, "%s.py:%d" % (module, line))
                  for module, name, line in stored if not attributes[name])
    return unused


def test_every_definition_is_used_in_src():
    unused = _unused()
    extra = sorted("%s %s" % (where, name) for name, where in unused.items()
                   if name not in KEPT)
    assert not extra, "reached from no other line of src/: " + ", ".join(extra)
    # a kept name that src/ came to use, or that went, leaves the list
    assert sorted(unused) == sorted(KEPT)
