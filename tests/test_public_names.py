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


def _call_arguments(tree: ast.Module) -> list:
    """(function name, {keyword or positional index: argument node}) for
    every call; a call that unpacks ``*args`` or ``**kwargs`` has the key
    "*" or "**"."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = {"*" if isinstance(arg, ast.Starred) else i: arg
                for i, arg in enumerate(node.args)}
        args.update(("**" if kw.arg is None else kw.arg, kw.value) for kw in node.keywords)
        calls.append((name, args))
    return calls


def _parameters_and_calls() -> tuple:
    params, calls = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        params |= _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    for directory in PROGRAM:
        for path in sorted(directory.rglob("*.py")):
            calls += _call_arguments(ast.parse(path.read_text(encoding="utf-8")))
    return params, calls


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter that no program call sets is a constant in
    disguise; calls are matched by function name, as the guards above do."""
    params, calls = _parameters_and_calls()
    passed = {(name, key) for name, args in calls for key in args}
    fixed = sorted(f"{func}.{param}" for func, param, index in params
                   if not {(func, param), (func, index), (func, "*"), (func, "**")} & passed)
    assert not fixed, f"parameters no program call sets (make them constants): {fixed}"


def _literal(node) -> str | None:
    """The node's source form if it is a literal, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def test_no_argument_is_a_constant():
    """A defaulted parameter that every program call sets, always to the same
    literal, is a constant in disguise too; a call that omits it uses the
    default, and one that unpacks arguments may pass anything."""
    params, calls = _parameters_and_calls()
    constant = []
    for func, param, index in params:
        values = set()
        for name, args in calls:
            if name != func:
                continue
            if "*" in args or "**" in args:
                values.add(None)
            else:
                node = args.get(param, args.get(index))
                values.add(None if node is None else _literal(node))
        if len(values) == 1 and None not in values:
            constant.append(f"{func}.{param} = {values.pop()}")
    assert not constant, f"parameters every program call sets to one literal: {sorted(constant)}"


def test_every_default_is_taken_by_some_program_call():
    """A defaulted parameter that every program call sets is required in
    disguise: its default only restates what the callers pass.  A call that
    unpacks arguments may omit it, and a parameter no call reaches is the
    business of the guard above."""
    params, calls = _parameters_and_calls()
    always_set = []
    for func, param, index in params:
        matching = [args for name, args in calls if name == func]
        if matching and all("*" not in args and "**" not in args
                            and (param in args or index in args) for args in matching):
            always_set.append(f"{func}.{param}")
    assert not always_set, (f"defaults no program call takes (make them required): "
                            f"{sorted(always_set)}")


def _unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never mentions; an
    import line marked ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_no_unused_imports():
    found = []
    for directory in (ROOT / "src", ROOT / "tests", ROOT / "scripts"):
        for path in sorted(directory.rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}: {name}"
                      for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, f"imports nothing uses: {found}"


# the benchmark tracer patches the envelope methods under these old class
# names (ROADMAP item 3); the one line in pulses that binds them to
# Envelope must be their only use, so that they can go with the tracer's
# change
TRACER_ALIASES = ("GaussianPulse", "TwoPartPulse", "ConstantPulse")
ALIAS_LINE = "GaussianPulse = TwoPartPulse = ConstantPulse = Envelope"


def test_tracer_aliases_occur_only_on_their_line():
    found, alias_lines = [], []
    for directory in (ROOT / "src", ROOT / "tests", ROOT / "scripts"):
        for path in sorted(directory.rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                where = f"{path.relative_to(ROOT)}:{number}"
                if line == ALIAS_LINE:
                    alias_lines.append(where)
                elif any(name in line for name in TRACER_ALIASES):
                    found.append(where)
    assert not found, f"tracer-only names used outside their alias line: {found}"
    assert len(alias_lines) == 1 and alias_lines[0].startswith("src/holospin/pulses.py:"), \
        alias_lines
