"""Every public name of the package has a caller outside the tests.

A top-level function, class or method of ``src/cherednik`` that only its own
tests call is surface to delete, not to keep: this test parses the package
with ``ast`` and fails on any such name.  A reference is a name, an attribute
or a string constant in ``src/`` (not ``__init__.py``, whose re-exports call
nothing), ``scripts/`` or ``perfbench/``; the string case keeps the names
``perfbench/tracer.py`` binds by string, such as ``strip_row``.  A method or
property is reached only through an attribute (``.name``) or a string: a bare
name of the same spelling is a local variable, not a reference to it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cherednik"

# References kept on purpose, each an independent check that only tests run
KEPT = {
    "GradedKernel.check_ideal_property": "x_i ker B[d] lies in ker B[d+1], checked against the engine",
    "GradedKernel.check_sn_invariance": "ker B[d] is S_n-stable, checked against the engine",
    "closed_form_t0": "the paper's t=0 series, which the acceptance tests compare",
    "closed_form_t1_p2": "the paper's t=1, p=2 series, which the acceptance tests compare",
}


def definitions():
    """(module, qualified name) of every top-level function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.stem, f"{node.name}.{sub.name}"


def references() -> tuple[set[str], set[str]]:
    """(bare names, attributes and string constants) referenced outside the tests."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_no_public_name_is_called_only_by_tests():
    names, attrs = references()
    unused = [
        f"{module}.{name}"
        for module, name in definitions()
        if not is_dunder(name.rsplit(".", 1)[-1])
        and name.rsplit(".", 1)[-1] not in (attrs if "." in name else names | attrs)
        and name not in KEPT
    ]
    assert unused == []


def test_kept_names_still_exist():
    # an entry for a deleted name would keep nothing and hide nothing
    names = {name for _, name in definitions()}
    assert set(KEPT) <= names
