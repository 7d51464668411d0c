"""Import hygiene: the package imports without numpy, importing the
package alone loads none of its modules, no module imports a name it
never uses, no dataclass writes its own constructor, a session builds
its circuit and message plan in one place, and every public name of
the package, and every public member of its classes, has a reader
outside the tests."""

import ast
import subprocess
import sys
from pathlib import Path

import blindbargain


def test_import_loads_no_numpy():
    # a fresh interpreter, so modules the test run already loaded do not count;
    # the cli imports every other module of the package, and builds its
    # argument parser on first use, not at import
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, blindbargain\n"
            "assert [m for m in sys.modules if m.startswith('blindbargain.')] == []\n"
            "import blindbargain.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "assert blindbargain.cli.build_parser.cache_info().currsize == 0",
        ],
        check=True,
        timeout=60,
    )


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(blindbargain.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_import_check_flags_an_unused_name():
    assert _unused_imports("import secrets\nimport os\nos.getcwd()\n") == ["secrets (line 1)"]


def _dataclasses_with_init(source: str) -> list[str]:
    """Classes decorated with ``dataclass`` that write their own ``__init__``.

    A dataclass declares its fields once; a hand-written constructor
    declares them a second time, with defaults of its own.
    """
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            for d in decorators
        ):
            continue
        if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body):
            flagged.append(f"{node.name} (line {node.lineno})")
    return flagged


def test_no_dataclass_writes_its_own_init():
    package = Path(blindbargain.__file__).parent
    flagged = {
        path.name: classes
        for path in sorted(package.glob("*.py"))
        if (classes := _dataclasses_with_init(path.read_text(encoding="utf-8")))
    }
    assert flagged == {}


def test_dataclass_init_check_flags_a_hand_written_constructor():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Twice:\n    x: int\n\n"
        "    def __init__(self, x=0):\n        object.__setattr__(self, 'x', x)\n\n\n"
        "@dataclasses.dataclass\nclass Also:\n    def __init__(self):\n        pass\n\n\n"
        "@dataclass\nclass Once:\n    x: int = 0\n\n"
        "    def __post_init__(self):\n        pass\n\n\n"
        "class Plain:\n    def __init__(self):\n        pass\n"
    )
    assert _dataclasses_with_init(source) == ["Twice (line 6)", "Also (line 14)"]


def _functions_where(source: str, matches) -> list[str]:
    """The function (``Class.method``) around each node ``matches`` accepts,
    in source order; ``<module>`` for a node outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def _builds_circuit(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "build_mechanism_circuit") or (
        isinstance(func, ast.Attribute) and func.attr == "build_mechanism_circuit"
    )


def _assigns_plan(node: ast.AST) -> bool:
    # a store to ``x.plan`` itself; ``x.plan[key] = ...`` only reads it
    return (
        isinstance(node, ast.Attribute) and node.attr == "plan" and isinstance(node.ctx, ast.Store)
    )


def test_a_session_builds_its_circuit_and_plan_in_one_place():
    # the profile fixes the circuit and every message's length, so each
    # side builds both once, when its session starts
    package = Path(blindbargain.__file__).parent
    protocol = (package / "protocol.py").read_text(encoding="utf-8")
    assert _functions_where(protocol, _builds_circuit) == ["_Session.__init__"]
    plans = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _functions_where(path.read_text(encoding="utf-8"), _assigns_plan))
    }
    assert plans == {"protocol.py": ["_Session.__init__"]}


def test_one_place_check_flags_a_second_plan_assignment():
    source = (
        "from blindbargain import circuit\n\n\n"
        "class Session:\n"
        "    plan: dict\n\n"
        "    def __init__(self, channel):\n"
        "        channel.plan = plan_of(circuit.build_mechanism_circuit())\n\n"
        "    def run(self):\n"
        "        self.channel.plan[1] = 0\n"
        "        self.channel.plan = {}\n\n\n"
        "def replan(channel):\n"
        "    channel.plan, spare = {}, build_mechanism_circuit()\n"
    )
    assert _functions_where(source, _assigns_plan) == ["Session.__init__", "Session.run", "replan"]
    assert _functions_where(source, _builds_circuit) == ["Session.__init__", "replan"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent

# public names and class members (``Class.member``) of the package that
# only the tests read, each with why it stays
KEPT_FOR_TESTS = {
    "outcome_real": "exact-rational mechanism, the oracle of outcome_fixed and the circuit",
    "eval_plain": "plaintext circuit evaluation, the oracle of garbled evaluation",
    "encode_inputs": "packs reports and draws into circuit input bits for eval_plain",
    "ot_transfer": "runs the three OT flows in one process, so OT is tested without sockets",
    "load_transcript": "reads back what persist_transcript writes",
    "SessionTranscript.payload_digests": "the per-message digests the golden transcripts pin",
    "Gate.in_a": "a field of the Circuit.gates view that tests walk; settlement reads table rows",
    "Gate.in_b": "a field of the Circuit.gates view that tests walk; settlement reads table rows",
    "BenchCell.times_ms": "the samples behind median_ms, which show warmup reps are left out",
    "GarbledMaterial.output_labels": "the garbler's output pairs, checked against the commitments",
}


def _read_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a tree reads: bare names, attributes and from-imports, minus ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _test_only_names(modules: dict[str, str], outside: list[str]) -> list[str]:
    """Public top-level functions and classes of ``modules`` that nothing reads.

    A name counts as read when another module of ``modules``, a source in
    ``outside``, or its own module outside its own definition reads it.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: _read_names(tree) for name, tree in trees.items()}
    outside_reads = set().union(*(_read_names(ast.parse(source)) for source in outside))
    unread = []
    for name, tree in trees.items():
        others = outside_reads.union(*(r for other, r in reads.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in others:
                continue
            if node.name not in _read_names(tree, skip=node):
                unread.append(node.name)
    return sorted(unread)


def _attributes(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attribute names a tree reads (``x.name``), minus those inside ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in skipped
    }


def _test_only_members(modules: dict[str, str], outside: list[str]) -> list[str]:
    """Public methods, properties and fields of classes in ``modules`` that nothing reads.

    A member counts as read when ``.member`` appears in another module of
    ``modules``, in a source in ``outside``, or in its own module outside
    its own definition.  Results read ``Class.member``.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: _attributes(tree) for name, tree in trees.items()}
    outside_reads = set().union(*(_attributes(ast.parse(source)) for source in outside))
    unread = []
    for name, tree in trees.items():
        others = outside_reads.union(*(r for other, r in reads.items() if other != name))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    member = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    member = node.target.id
                else:
                    continue
                if member.startswith("_") or member in others:
                    continue
                if member not in _attributes(tree, skip=node):
                    unread.append(f"{cls.name}.{member}")
    return sorted(unread)


def _package_and_perfbench() -> tuple[dict[str, str], list[str]]:
    package = Path(blindbargain.__file__).parent
    modules = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    outside = [path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py")]
    return modules, outside


def test_every_public_name_has_a_reader_outside_the_tests():
    modules, outside = _package_and_perfbench()
    kept = sorted(name for name in KEPT_FOR_TESTS if "." not in name)
    assert _test_only_names(modules, outside) == kept


def test_every_public_member_has_a_reader_outside_the_tests():
    modules, outside = _package_and_perfbench()
    kept = sorted(name for name in KEPT_FOR_TESTS if "." in name)
    assert _test_only_members(modules, outside) == kept


def test_every_name_kept_for_tests_is_read_by_a_test():
    # a kept name no test reads has no reader at all and should be deleted
    tests = set().union(
        *(_read_names(ast.parse(path.read_text(encoding="utf-8"))) for path in TESTS.glob("*.py"))
    )
    unread = [name for name in KEPT_FOR_TESTS if name.rpartition(".")[2] not in tests]
    assert unread == []


def test_test_only_check_flags_an_unread_name():
    modules = {
        "a.py": "def used():\n    pass\n\n\ndef lonely():\n    return lonely\n",
        "b.py": "from a import used\n\n\nclass Kept:\n    pass\n\n\nKept()\n",
    }
    assert _test_only_names(modules, []) == ["lonely"]
    assert _test_only_names(modules, ["a.lonely()"]) == []


def test_test_only_member_check_flags_an_unread_member():
    modules = {
        "a.py": (
            "class Box:\n    size: int\n    spare: int\n\n"
            "    def grow(self):\n        return self.grow\n\n"
            "    @property\n    def area(self):\n        return self.size\n"
        ),
        "b.py": "def use(box):\n    return box.area\n",
    }
    # size is read in its own module outside its definition, area by b.py;
    # grow reads only itself
    assert _test_only_members(modules, []) == ["Box.grow", "Box.spare"]
    assert _test_only_members(modules, ["box.spare + box.grow()"]) == []
