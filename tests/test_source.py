"""Rules on the package source, checked by parsing ``src/mvdr/*.py``.

Every output file is opened by ``hashing.open_output``, which replaces its
target whole, and every input file by the line reader or ``FramedReader``.
Only ``write_framed`` and ``FramedReader`` compute a CRC-32, and the
checkpoint and index loaders leave the file's path in their errors to
``FramedReader``. Only ``cli.main`` reads a config file and checks
settings, and a metric spec is checked where ``metrics`` is parsed.
The package keeps no process-global state: no memo decorator, and no
module-level dict, list or set that a function changes. A
``FeatureTable`` parameter never has a default: the caller owns the table.
Every module-level import is used, and every module-level function and
class is named somewhere besides its own definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mvdr"


def _mode(call: ast.Call) -> str | None:
    """The mode string of an ``open`` call; None when it is not a literal."""
    node = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if node is None:
        # open(file, mode) and io.open(file, mode); path.open(mode)
        method = isinstance(call.func, ast.Attribute) and not isinstance(call.func.value, ast.Name)
        index = 0 if method else 1
        if len(call.args) <= index:
            return "r"
        node = call.args[index]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _calls() -> Iterator[tuple[str, ast.Call]]:
    """(module.qualified.function, call) for every call in the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            scope, up = [], parents.get(node)
            while up is not None:
                if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scope.append(up.name)
                up = parents.get(up)
            yield ".".join([path.stem, *reversed(scope)]), node


def _name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _file_opens() -> list[tuple[str, str | None]]:
    """(module.qualified.function, mode) for every call that opens a file."""
    found = []
    for where, call in _calls():
        name = _name(call)
        if name == "open":
            found.append((where, _mode(call)))
        elif name in ("write_text", "write_bytes", "read_text", "read_bytes"):
            found.append((where, name[:1]))
    return found


def _writes(mode: str | None) -> bool:
    return mode is None or any(flag in mode for flag in "wax+")


def test_only_open_output_opens_files_for_writing():
    writers = [(where, mode) for where, mode in _file_opens() if _writes(mode)]
    assert writers == [("hashing.open_output", "wb")]


def test_only_the_line_reader_and_framed_reader_open_inputs():
    readers = sorted(where for where, mode in _file_opens() if not _writes(mode))
    assert readers == ["corpus._read_lines", "hashing.FramedReader.__init__"]


def test_only_the_framed_file_computes_crc32():
    """The CRC-32 footer is written by ``write_framed`` and checked by
    ``FramedReader``; no other code computes one."""
    found = sorted({where for where, call in _calls() if _name(call) == "crc32"})
    assert found == [
        "hashing.FramedReader.__init__",
        "hashing.write_framed",
    ]


def test_no_framed_file_error_formats_the_path():
    """``FramedReader`` puts the path in front of every ``ValueError``
    raised in its block, so no function in ``encoder.py`` or ``index.py``
    formats a path into an error message: it would name the file twice."""
    found = []
    for name in ("encoder.py", "index.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                found += [
                    f"{name}:{node.lineno}"
                    for part in ast.walk(node)
                    if isinstance(part, ast.FormattedValue) and "path" in ast.unparse(part.value)
                ]
    assert found == []


def test_only_main_reads_the_config_and_checks_settings():
    """Every command gets its settings from ``cli.main``, checked before the
    command runs; no command resolves them itself."""
    found = sorted(where for where, call in _calls() if _name(call) in ("_settings", "parse_config"))
    assert found == ["cli.main", "cli.main"]


def test_metric_specs_are_checked_where_metrics_is_parsed():
    """A flag's or config line's parser checks its specs, so an error names
    the flag or the line; only the metric code itself parses a spec again."""
    found = sorted(where for where, call in _calls() if _name(call) == "parse_metric_spec")
    assert found == ["cli._parse_metrics", "evaluation.compute_metric"]


_MEMO_DECORATORS = {"lru_cache", "cache"}
_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "reverse", "setdefault", "sort", "update",
}


def _is_container(node: ast.expr) -> bool:
    """A dict, list or set display, comprehension or constructor call."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")
    return False


def _module_containers(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None and _is_container(node.value):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _local_names(func: ast.AST) -> set[str]:
    """Parameters and plain names that ``func`` binds, less its globals."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {arg.arg for arg in params if arg is not None}
    declared = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def _mutated_names(func: ast.AST) -> set[str]:
    """Module names that ``func`` mutates in place or rebinds as globals."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name):
                names.add(node.func.value.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                    names.add(target.value.id)
    return names - _local_names(func)


def test_no_memo_decorators():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in _MEMO_DECORATORS:
                    found.append(f"{path.stem}.{node.name}")
    assert found == []


def test_no_function_mutates_module_level_containers():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared = _module_containers(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.stem}.{name}" for name in sorted(_mutated_names(node) & shared)]
    assert found == []


def _names_in(annotation: ast.expr | None) -> set[str]:
    """Every name an annotation mentions, string annotations included."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(annotation)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_feature_table_parameter_has_a_default():
    """A stage featurizes through the one table it made from the params it
    encodes with, so no function makes a table of its own when none is given."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
            found += [
                f"{path.stem}.{node.name}({arg.arg})"
                for arg in defaulted
                if "FeatureTable" in _names_in(arg.annotation)
            ]
    assert found == []


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every name a module-level import binds."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in string annotations and in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _names_in(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_every_module_level_import_is_used():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        found += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree).items()
            if name not in used
        ]
    assert found == []


def test_every_module_level_definition_is_named_elsewhere():
    # a word match anywhere in the Python files of src/, tests/ or perfbench/,
    # outside the definition's own line
    words = Counter(
        word
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own_line = re.findall(r"\w+", lines[node.lineno - 1]).count(node.name)
                if words[node.name] <= own_line:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
