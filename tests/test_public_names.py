"""Every public module-level name in holospin has a use in the program: it
is referenced in src/, scripts/ or perfbench/ beyond its own definition.
A helper that only tests call is a helper that changes nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holospin"
PROGRAM = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# public names kept without a caller in the program, each for its reason
EXEMPT = {
    # test oracles: the path-ordered product of the sampled connection checks
    # the quadrature's gate, the z prediction checks propagation (criterion 06)
    "path_ordered_exponential",
    "predicted_final_state_z",
    # a pre-propagation adiabaticity diagnostic is planned for it (ROADMAP item 4)
    "adiabaticity_ratio",
}


def _public_definitions(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _references(tree: ast.Module) -> set:
    """Names read as variables or attributes, plus string constants (the
    benchmark tracer patches functions by name)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller():
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        defined |= _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    for directory in PROGRAM:
        for path in sorted(directory.rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = defined - referenced
    assert unused <= EXEMPT, f"public names no program code uses: {sorted(unused - EXEMPT)}"
    # an exemption whose name gained a caller, or lost its definition, is stale
    assert EXEMPT <= unused, f"stale exemptions: {sorted(EXEMPT - unused)}"
