"""The package's public surface: no definition or constant without a reader,
and the README's library example runs and prints what it says."""

import ast
import io
import re
import tokenize
from pathlib import Path

import spectralt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectralt"
TRACER = ROOT / "perfbench" / "tracer.py"


def _references(tree, skip):
    """Names that `tree` reads, imports or takes as an attribute, outside the
    subtree `skip`; string constants are not references."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _traced_names():
    """The functions the benchmark's tracer wraps by name (its STAGES keys,
    'module:qualname'); they stay while it names them."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "STAGES":
            return {key.split(":")[1] for key in ast.literal_eval(node.value)}
    raise AssertionError("no STAGES in the tracer")


def test_every_public_definition_has_a_reader():
    """Each public top-level def or class of the package is read somewhere in
    it outside its own body (an import into spectralt/__init__, its export,
    counts), or wrapped by the benchmark's tracer."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    traced = _traced_names()
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    assert len(defs) > 50  # the walk found the package
    unread = [
        f"{name}:{node.name}"
        for name, node in defs
        if node.name not in traced
        and not any(node.name in _references(tree, node) for tree in trees.values())
    ]
    assert unread == []


def _private_definitions(tree):
    """The private top-level defs and classes of a module, and the private
    methods of its top-level classes; dunder names are not private."""
    def private(node):
        return (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")
        )

    for node in tree.body:
        if private(node):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from filter(private, node.body)


def test_every_private_definition_has_a_reader():
    """Each private top-level def or class, and each private method, of the
    package is read somewhere in it outside its own body; tests and the
    benchmark do not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = [(name, node) for name, tree in trees.items() for node in _private_definitions(tree)]
    assert len(defs) > 50  # the walk found the package
    unread = [
        f"{name}:{node.name}"
        for name, node in defs
        if not any(node.name in _references(tree, node) for tree in trees.values())
    ]
    assert unread == []


def _constants(tree):
    """(name, statement) for each UPPER_CASE name a module-level assignment
    of the module binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        yield name.id, node


def test_every_constant_has_a_reader():
    """Each module-level UPPER_CASE constant of the package is read somewhere
    in it outside its own assignment; tests and the benchmark do not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    constants = [(name, *const) for name, tree in trees.items() for const in _constants(tree)]
    assert len(constants) > 30  # the walk found the package
    unread = [
        f"{name}:{const}"
        for name, const, node in constants
        if not any(const in _references(tree, node) for tree in trees.values())
    ]
    assert unread == []


def _library_snippet():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert match is not None
    return match.group(1)


def test_readme_library_example():
    """Every expression line of the example whose comment states a value
    gives that value as its repr, where a '...' in the comment stands for
    any text."""
    snippet = _library_snippet()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(snippet).readline)
        if tok.type == tokenize.COMMENT
    }
    scope = {}
    checked = []
    for node in ast.parse(snippet).body:
        code = ast.get_source_segment(snippet, node)
        if not isinstance(node, ast.Expr):
            exec(code, scope)
            continue
        value = repr(eval(code, scope))
        stated = comments.get(node.end_lineno)
        if stated is None:
            continue
        pattern = ".*".join(map(re.escape, stated.split("...")))
        assert re.fullmatch(pattern, value), (code, value)
        checked.append(code)
    assert checked == ["cert.lambda1, cert.certified", "c4.edges", "st.lambda1(c4)"]
    assert scope["st"] is spectralt
