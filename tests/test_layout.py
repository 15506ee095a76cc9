"""Source-layout guards: every public function and class of the package is
referenced by the package, the benchmark harness or the repo tools, so no
entry point exists for tests or demos alone; and each configurable value has
one key that sets it."""

import ast
import dataclasses
from pathlib import Path

from rxgb import cli, gbdt

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rxgb"
# Code whose references keep a public name alive: the package, the benchmark
# harness (its own tests included) and the repo tools. tests/ and demos/ do
# not count.
CALLER_DIRS = ("src", "perfbench", "tools")


def _names(node):
    """Every identifier node references: Name ids, Attribute attrs, imported
    names and aliases, and string constants that are identifiers (the
    benchmark names its pause points as strings)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


def test_every_public_function_and_class_is_referenced_outside_tests_and_demos():
    # A name counts when a top-level statement other than its own definition
    # references it, so a recursive call or a self-reference keeps nothing.
    defs = []
    uses = {}
    for path in sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            key = (path, stmt.lineno)
            uses[key] = set(_names(stmt))
            if (path.parent == PACKAGE
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs.append((stmt.name, key))
    assert {"xnor_conv2d", "conv2d_forward"} <= {name for name, _ in defs}
    unused = sorted(
        f"{key[0].stem}.{name}" for name, key in defs
        if not any(name in names for other, names in uses.items() if other != key))
    assert not unused, f"public names referenced only by tests or demos: {unused}"


def test_each_config_key_sets_one_value():
    # A DEFAULTS key outside gbdt.* that cli.py never reads as cfg["..."]
    # sets nothing; the gbdt.* keys go to GBDTConfig by suffix, so they must
    # be its fields, less n_classes, which the CLI fixes. A field no key sets
    # is a second, unreachable way to set a value.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    reads = {sub.slice.value for sub in ast.walk(tree)
             if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
             and sub.value.id == "cfg" and isinstance(sub.slice, ast.Constant)}
    plain = {key for key in cli.DEFAULTS if not key.startswith("gbdt.")}
    assert plain <= reads, f"keys cli.py never reads: {sorted(plain - reads)}"
    suffixes = {key[len("gbdt."):] for key in cli.DEFAULTS if key.startswith("gbdt.")}
    fields = {f.name for f in dataclasses.fields(gbdt.GBDTConfig)} - {"n_classes"}
    assert suffixes == fields
