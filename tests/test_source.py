"""Source-level guards over the library modules."""

import ast
import importlib
import importlib.util
from pathlib import Path

import matroidlab
from matroidlab.errors import SearchCapExceeded

PACKAGE = Path(matroidlab.__file__).parent


def test_no_assert_in_the_library():
    # `python -O` strips assert statements, so no invariant may live in one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _wraps_masks(arg: ast.expr) -> bool:
    """Is `arg` a `map(<x>.from_mask, ...)` call, or a generator or list whose
    element is a `Subset(...)` call?"""
    if isinstance(arg, ast.Call):
        return (
            isinstance(arg.func, ast.Name)
            and arg.func.id == "map"
            and bool(arg.args)
            and isinstance(arg.args[0], ast.Attribute)
            and arg.args[0].attr == "from_mask"
        )
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
        elt = arg.elt
        return (
            isinstance(elt, ast.Call)
            and isinstance(elt.func, ast.Name)
            and elt.func.id == "Subset"
        )
    return False


def test_masks_become_a_family_only_through_from_masks():
    # `SetFamily.from_masks` range-checks and sorts the masks itself; a
    # family built from hand-wrapped subsets builds each member twice
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "SetFamily"
        and any(_wraps_masks(arg) for arg in node.args)
    ]
    assert found == []


def _reads_environment(node: ast.AST) -> bool:
    """Is `node` an `os.environ` or `os.getenv` reference, or a name imported
    as one of them from `os`?"""
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(
            alias.name in ("environ", "getenv") for alias in node.names
        )
    return False


def test_no_module_reads_the_environment():
    # every setting of the library is a parameter or a constant; a knob read
    # from the environment changes results where no caller can see it
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_environment(node)
    ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The names a module imports and never reads, with their lines."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (name, line) for name, line in imported.items() if name not in used
    )


def test_no_library_module_imports_a_name_it_never_uses():
    # `__init__.py` imports to re-export; any other module that imports a
    # name it never reads keeps a dead alias alive, which callers may then
    # import from the wrong place
    modules = sorted(
        path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in modules
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


# the one lowest-bit walk kept outside setalgebra.py, with the figure of the
# comment that gives the reason: it must stay in the function's source
INLINE_BIT_WALKS = {"matroid.py:expansion_masks": "read 1-5% slower"}


def _lowest_bit_walks(func: ast.AST) -> bool:
    """Does `func` hold a `while x:` loop that reads `x & -x`?"""
    for loop in ast.walk(func):
        if not (isinstance(loop, ast.While) and isinstance(loop.test, ast.Name)):
            continue
        x = loop.test.id
        for node in ast.walk(loop):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
                left, right = node.left, node.right
                if (
                    isinstance(left, ast.Name)
                    and left.id == x
                    and isinstance(right, ast.UnaryOp)
                    and isinstance(right.op, ast.USub)
                    and isinstance(right.operand, ast.Name)
                    and right.operand.id == x
                ):
                    return True
    return False


def _is_submask_step(node: ast.AST) -> bool:
    """Is `node` `(x - 1) & y`, either way round, with `y` a name or attribute
    other than `x`?  `x & (x - 1)` clears the lowest bit of `x`, and
    `(x - 1) & ~y` takes the bits below `x` outside `y`; neither walks the
    submasks of `y`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for dec, mask in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(dec, ast.BinOp)
            and isinstance(dec.op, ast.Sub)
            and isinstance(dec.left, ast.Name)
            and isinstance(dec.right, ast.Constant)
            and dec.right.value == 1
            and isinstance(mask, (ast.Name, ast.Attribute))
            and not (isinstance(mask, ast.Name) and mask.id == dec.left.id)
        ):
            return True
    return False


def test_setalgebra_owns_the_bit_and_submask_walks():
    # `_single_bits` and `_bit_indices` are the one bit walk, `_submasks` the
    # one submask walk; a loop written out again elsewhere is a second
    # implementation of the same step
    modules = sorted(
        path for path in PACKAGE.rglob("*.py") if path.name != "setalgebra.py"
    )
    assert modules
    walks, steps = {}, []  # walks: "module:function" -> its source
    for path in modules:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and _lowest_bit_walks(func):
                name = f"{path.relative_to(PACKAGE)}:{func.name}"
                walks[name] = ast.get_source_segment(text, func)
        steps += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_submask_step(node)
        ]
    assert sorted(walks) == sorted(INLINE_BIT_WALKS)
    for name, figure in INLINE_BIT_WALKS.items():
        assert figure in walks[name], name
    assert steps == []


def _sites(tree: ast.Module, hit) -> list[str]:
    """The enclosing function ("" at module level) of each node of the tree
    for which `hit(node)` holds."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append(func)
            visit(child, func)

    visit(tree, "")
    return found


def _named(expr: ast.expr) -> str | None:
    """The name of an exception given by name or by attribute."""
    return getattr(expr, "id", getattr(expr, "attr", None))


def _raises(name: str):
    """Is a node a `raise name(...)` or a `raise name`?"""
    def hit(node: ast.AST) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _named(exc) == name

    return hit


def _catches(names: set[str]):
    """Is a node an except clause naming one of `names`, or a bare one?"""
    def hit(node: ast.AST) -> bool:
        if not isinstance(node, ast.ExceptHandler):
            return False
        if node.type is None:
            return True
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(_named(t) in names for t in types)

    return hit


def _library_sites(hit) -> list[str]:
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return [
        f"{path.relative_to(PACKAGE)}:{func}"
        for path in modules
        for func in _sites(ast.parse(path.read_text(encoding="utf-8")), hit)
    ]


def test_only_the_minimality_search_raises_its_cap():
    # a report's capped rows are the exhaustive minimality search refusing a
    # matroid with too many bases, and nothing else; a second bound raising
    # `SearchCapExceeded` elsewhere must change this list
    assert _library_sites(_raises("SearchCapExceeded")) == ["classify.py:_minimality_search"]


def test_only_the_registry_sweep_catches_the_cap():
    # no classifier and no CLI path meets the cap, so only `verify` tallies
    # a cap hit; a handler of `SearchCapExceeded`, of a class it derives
    # from, or of everything, anywhere else must change this list
    names = {cls.__name__ for cls in SearchCapExceeded.__mro__}
    assert _library_sites(_catches(names)) == ["harness.py:verify"]


def _names(name: str):
    """Is a node a read, an attribute or an import of `name`?"""
    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.alias):
            return node.name == name
        return isinstance(node, (ast.Name, ast.Attribute)) and _named(node) == name

    return hit


def test_only_classify_reads_the_flag_of_flats():
    # the classifiers' witnesses and `thm_334` read one function,
    # `classify._flag_transversals`; a second reader of the flag blocks is a
    # second copy of the flag reduction and must change this list
    assert _library_sites(_names("_flag_blocks")) == ["classify.py:_flag_transversals"]


def _writes_memo(node: ast.AST) -> bool:
    """Does a node assign to `<x>._facts` or into `<x>._facts[...]`, or call
    a method of `<x>._facts` other than `get`?"""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        return _named(owner) == "_facts" and node.func.attr != "get"
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "_facts":
            return True
    return False


def test_the_memo_decorator_is_the_one_memo():
    # every fact is a `build(m)` under `matroid.memo_fact`, whose misses
    # alone store into a matroid's memo; besides them only the constructors
    # set the slot (`from_bases` seeds it with the expansion map its
    # validation built), and no `_fact` method is left to call
    assert sorted(set(_library_sites(_writes_memo))) == [
        "matroid.py:_miss", "matroid.py:_trusted", "matroid.py:from_bases",
    ]
    assert _library_sites(_names("_fact")) == []


HARNESS = PACKAGE / "harness.py"


def _is_call_of(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and _named(node.func) == name


def _top_level_sites(hit) -> list[str]:
    """The module-level definition ("" for a module-level statement) of each
    node of each library module for which `hit(node)` holds."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return [
        f"{path.relative_to(PACKAGE)}:{getattr(top, 'name', '')}"
        for path in modules
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if hit(node)
    ]


def test_every_checker_registers_once_at_its_definition():
    # a check is one `_check_*` function under `@_theorem(id, statement, ...)`,
    # and its place in harness.py is its place in the report; a checker with
    # no decorator would never run, and one with two would run twice
    tree = ast.parse(HARNESS.read_text(encoding="utf-8"))
    checkers = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
    ]
    assert checkers
    found = {
        node.name: sum(_is_call_of(d, "_theorem") for d in node.decorator_list)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    assert {name: n for name, n in found.items() if n} == {
        node.name: 1 for node in checkers
    }


def test_only_the_registration_decorator_builds_a_check():
    # `TheoremCheck(` written anywhere else is a check declared away from its
    # checker, which the report order no longer follows
    assert _top_level_sites(lambda node: _is_call_of(node, "TheoremCheck")) == [
        "harness.py:_theorem"
    ]


def test_the_registry_is_assigned_where_declared_and_where_frozen():
    # declared as an empty list above the first checker, appended to only by
    # `_theorem`, and frozen into a tuple below the last checker
    def writes(node: ast.AST) -> bool:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return any(_named(t) == "_REGISTRY" for t in targets)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return _named(node.func.value) == "_REGISTRY"
        return False

    assert _top_level_sites(writes) == ["harness.py:", "harness.py:_theorem", "harness.py:"]
    tree = ast.parse(HARNESS.read_text(encoding="utf-8"))
    declared, frozen = (
        node for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and writes(node)
    )
    assert isinstance(declared, ast.AnnAssign)
    assert isinstance(declared.value, ast.List) and declared.value.elts == []
    assert _is_call_of(frozen.value, "tuple")
    assert [_named(arg) for arg in frozen.value.args] == ["_REGISTRY"]
    lines = [
        node.lineno for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
    ]
    assert declared.lineno < min(lines) and max(lines) < frozen.lineno


PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _resolves(module, name: str) -> bool:
    """Is `name` an attribute of `module`, or a submodule of it when it is a
    package (`from matroidlab import cli` imports the module on demand)?"""
    if hasattr(module, name):
        return True
    return hasattr(module, "__path__") and (
        importlib.util.find_spec(f"{module.__name__}.{name}") is not None
    )


def test_every_name_the_benchmark_imports_resolves():
    # every benchmark child imports these names at start; one removed from
    # the library fails every child, which only the slow benchmark gates
    # would show otherwise
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    imported = [
        (node.module, alias.name)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("matroidlab", "matroidlab.errors")
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not _resolves(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_exported_name_resolves_once():
    exported = matroidlab.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not _resolves(matroidlab, name)] == []
