"""Source hygiene checks that need only the stdlib."""

import ast
from pathlib import Path

import sl3shear
from sl3shear.cli import _parse_spec
from sl3shear.laminations import PERIPHERAL_KINDS, QUADRILATERAL_KINDS, TRIANGLE_KINDS
from sl3shear.surface import IdealTriangulation, MarkedSurfaceSpec, build
from sl3shear.verify import _FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src" / "sl3shear"


def _unused_imports(path):
    """Names a module imports but never reads, as ``(line, name)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_have_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _function_imports(path):
    """``(function, module)`` for each import statement inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found += [(fn.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((fn.name, "." * node.level + (node.module or "")))
    return found


def test_modules_import_at_the_top():
    """No import sits inside a function: the modules import one another
    at the top, with no cycle to break."""
    local = {p.name: _function_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in local.items() if found} == {}


def _module_caches(path):
    """Uses of ``functools.lru_cache`` or ``functools.cache``, as
    ``(line, name)``: imported by name or read off the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("lru_cache", "cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append((node.lineno, node.attr))
    return found


def test_no_module_level_caches():
    """Derived data is memoized on the object it derives from (a
    triangulation's ``memo``, a picture's cached properties), so it dies
    with that object; a module-level cache would keep every triangulation
    it ever saw alive."""
    found = {p.name: _module_caches(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _callables(tree):
    """``(line, name)`` of the module-level functions and classes of a
    module, and of the methods of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return found


def _constants(tree):
    """``(line, name)`` of the module-level constants of a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def _names_read(tree):
    """Every name a module reads as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_private_name_is_unread():
    """Every private name the package defines is read somewhere in it, as
    a name or an attribute; one that nothing reads is dead code."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = {
        name: [
            (line, d) for line, d in _callables(tree) + _constants(tree)
            if d.startswith("_") and not d.startswith("__") and d not in read
        ]
        for name, tree in trees.items()
    }
    assert {name: found for name, found in unread.items() if found} == {}


BENCHMARKS = SRC.parent.parent / "benchmarks"

# The paper's own constructions, which the tests and golden records check
# as such though no library module calls them: the ensemble map on
# laminations and the peripheral chain it adds, and the traveler routes.
PAPER_CONSTRUCTIONS = {
    "geometric_ensemble",
    "add_peripheral_chain",
    "traveler_trace",
}


def test_no_public_name_without_a_library_caller():
    """Every public function, class and method of the package is read, as
    a name, an attribute or an import, by a module of the package other
    than ``__init__.py`` or by a file under ``benchmarks/``, unless it is
    one of ``PAPER_CONSTRUCTIONS``.  Code that only the tests call belongs
    in the tests.  An attribute matches by its name alone, so a method
    passes when any object's attribute of that name is read: a method
    ``check`` would pass on ``args.check``, and one named ``replace`` on
    ``dataclasses.replace``."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    readers = modules + sorted(BENCHMARKS.rglob("*.py"))
    assert modules and len(readers) > len(modules)
    read = set().union(*(_names_read(ast.parse(p.read_text(), filename=str(p))) for p in readers))
    uncalled = {}
    for p in modules:
        tree = ast.parse(p.read_text(), filename=str(p))
        found = [
            (line, name) for line, name in _callables(tree)
            if not name.startswith("_") and name not in read | PAPER_CONSTRUCTIONS
        ]
        if found:
            uncalled[p.name] = found
    assert uncalled == {}


def _raised(tree):
    """The names of the exceptions a module raises by name: ``raise E``,
    ``raise E(...)``, or either through a module attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def _subclasses(cls):
    """``cls`` and every class derived from it, however deep."""
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _subclasses(sub)
    return out


def test_exported_errors_are_raised():
    """Every ``Sl3Error`` subclass the package exports is raised by a
    module of the package, or is a base of one that is (as
    ``SurfaceError`` is): the package exports no error it cannot raise."""
    names = set().union(*(_raised(ast.parse(p.read_text(), filename=str(p))) for p in SRC.glob("*.py")))
    raised = [cls for cls in _subclasses(sl3shear.Sl3Error) if cls.__name__ in names]
    exported = [
        obj for obj in map(vars(sl3shear).get, sl3shear.__all__)
        if isinstance(obj, type) and issubclass(obj, sl3shear.Sl3Error)
    ]
    assert len(exported) > 1 and raised
    assert sorted(e.__name__ for e in exported if not any(issubclass(r, e) for r in raised)) == []


def test_one_stepper():
    """One class of the package defines ``turn``: reconstruction, traveler
    tracing and gluing walk strands through one stepper, and differ only
    in the picture, pins and step cap they give it.  A state's direction
    picks its step, so no class defines ``cross_back`` or ``turn_back``."""
    methods = [
        (p.name, node.name, f.name)
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef)
    ]
    steppers = [(module, cls) for module, cls, name in methods if name == "turn"]
    assert len(steppers) == 1, steppers
    assert [m for m in methods if m[2] in ("cross_back", "turn_back")] == []


def test_a_flip_sets_the_attributes_of_a_build():
    """``_flip`` builds its triangulation by hand, attribute by attribute;
    it sets exactly the instance attributes ``__init__`` sets, in the same
    order, before either has derived its vertex table."""
    for spec in (MarkedSurfaceSpec.polygon(5), MarkedSurfaceSpec.punctured_polygon(3, 2)):
        built = build(spec)
        tri = IdealTriangulation(built.tri_sides, slot_l={e: built.slots(e)[0] for e in built.edges})
        flipped, _ = tri._flip(tri.interior_edges[0])
        assert "_vertex_table" not in vars(tri)
        assert list(vars(flipped)) == list(vars(tri))


def _json_encoder_uses(path):
    """``(module, function)`` for each use of ``json``'s encoder (``dump``,
    ``dumps`` or ``JSONEncoder``) in a module, the function being the
    innermost one around it, or None at module level."""
    encoders = {"dump", "dumps", "JSONEncoder"}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr in encoders
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((path.name, where))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((path.name, where) for alias in node.names if alias.name in encoders)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_one_json_writer():
    """``json``'s encoder is called in one place of the package,
    ``io.dump``, so every document it writes has one layout."""
    uses = [use for p in sorted(SRC.glob("*.py")) for use in _json_encoder_uses(p)]
    assert uses == [("io.py", "dump")]


def test_verify_lists_no_kind_family():
    """``verify`` reads the component kinds from the families of
    ``laminations``: no tuple, list or set literal in it names two kinds
    or more.  A single kind, such as a pinned table row's, may be named."""
    kinds = set(TRIANGLE_KINDS) | set(QUADRILATERAL_KINDS) | set(PERIPHERAL_KINDS)
    path = SRC / "verify.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and sum(isinstance(e, ast.Constant) and e.value in kinds for e in node.elts) > 1
    ]
    assert found == []


def test_each_fixture_spec_builds_its_fixture():
    """The CLI ``--spec`` that ``verify`` prints with a fixture's
    counterexample parses to that fixture's spec, so one CLI call
    reproduces the counterexample."""
    assert _FIXTURES
    for name, (spec, text) in _FIXTURES.items():
        assert _parse_spec(text) == spec, name
