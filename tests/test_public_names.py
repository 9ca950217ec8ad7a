"""Every public module-level name in holospin has a use in the program: it
is referenced in src/, scripts/ or perfbench/ beyond its own definition.
A helper that only tests call is a helper that changes nothing.  Likewise
every dataclass field is read as an attribute somewhere in the program."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holospin"
PROGRAM = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# public names kept without a caller in the program, each for its reason
EXEMPT = {
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


def _dataclass_fields(tree: ast.Module) -> set:
    """(class, field) for every annotated field of a @dataclass class."""
    fields = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        fields.update((node.name, item.target.id) for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return fields


def _attribute_loads(tree: ast.Module) -> set:
    """Attribute names read as `x.name`; string constants do not count, since
    a field name can also be a config key."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    fields, loaded = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        fields |= _dataclass_fields(ast.parse(path.read_text(encoding="utf-8")))
    for directory in PROGRAM:
        for path in sorted(directory.rglob("*.py")):
            loaded |= _attribute_loads(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in loaded)
    assert not unread, f"dataclass fields no program code reads: {unread}"


def _defaulted_parameters(tree: ast.Module) -> set:
    """(function, parameter, positional index or None) for every parameter
    with a default; a method's index does not count ``self``."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    params = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        offset = 1 if id(node) in methods else 0
        params.update((node.name, a.arg, i - offset)
                      for i, a in enumerate(positional) if i >= first)
        params.update((node.name, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return params


def _passed_arguments(tree: ast.Module) -> set:
    """(function name, keyword or positional index) for every call; a call
    that unpacks ``*args`` or ``**kwargs`` is recorded as passing "*" or "**"."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                      for i, arg in enumerate(node.args))
        passed.update((name, "**" if kw.arg is None else kw.arg) for kw in node.keywords)
    return passed


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter that no program call sets is a constant in
    disguise; calls are matched by function name, as the guards above do."""
    params, passed = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        params |= _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    for directory in PROGRAM:
        for path in sorted(directory.rglob("*.py")):
            passed |= _passed_arguments(ast.parse(path.read_text(encoding="utf-8")))
    fixed = sorted(f"{func}.{param}" for func, param, index in params
                   if not {(func, param), (func, index), (func, "*"), (func, "**")} & passed)
    assert not fixed, f"parameters no program call sets (make them constants): {fixed}"
