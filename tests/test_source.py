"""Rules on the package source, checked by parsing ``src/mvdr/*.py``.

Every output file is opened by ``hashing.open_output``, which replaces its
target whole, and every input file by the line reader or ``FramedReader``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvdr"


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


def _file_opens() -> list[tuple[str, str | None]]:
    """(module.qualified.function, mode) for every call that opens a file."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = _mode(node)
            elif name in ("write_text", "write_bytes", "read_text", "read_bytes"):
                mode = name[:1]
            else:
                continue
            scope, up = [], parents.get(node)
            while up is not None:
                if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scope.append(up.name)
                up = parents.get(up)
            found.append((".".join([path.stem, *reversed(scope)]), mode))
    return found


def _writes(mode: str | None) -> bool:
    return mode is None or any(flag in mode for flag in "wax+")


def test_only_open_output_opens_files_for_writing():
    writers = [(where, mode) for where, mode in _file_opens() if _writes(mode)]
    assert writers == [("hashing.open_output", "wb")]


def test_only_the_line_reader_and_framed_reader_open_inputs():
    readers = sorted(where for where, mode in _file_opens() if not _writes(mode))
    assert readers == ["corpus._read_lines", "hashing.FramedReader.__init__"]
