import ast
import pathlib

import gaussdual

PUBLIC = [
    "DimensionMismatch",
    "DualModel",
    "DualityCheck",
    "GaussDualError",
    "GenSpec",
    "InfeasibleStructure",
    "LadderModel",
    "LogDetReport",
    "ModelFormatError",
    "NotPositiveDefinite",
    "STRUCTURES",
    "SparseSymMatrix",
    "ValidationReport",
    "ZReport",
    "build_dual",
    "duality_check",
    "generate",
    "load_model",
    "local_logdets",
    "logdet_block_tridiagonal",
    "logdet_dense",
    "logdet_sigma_direct",
    "logdet_sigma_via_duality",
    "save_model",
    "validate",
    "z_constants",
]


def test_public_names_are_pinned_and_import():
    # A name added to or dropped from the package's surface is a decision:
    # change this list with it.
    assert sorted(gaussdual.__all__) == PUBLIC
    namespace = {}
    exec("from gaussdual import *", namespace)
    assert PUBLIC == sorted(n for n in namespace if not n.startswith("__"))


SRC = pathlib.Path(__file__).parent.parent / "src" / "gaussdual"


def _modules():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
    }
    assert trees, f"no modules under {SRC}"
    return trees


def _imported(tree):
    """Names bound by the module's imports, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _references(nodes, imports=True):
    """Names read and attributes taken, plus with ``imports`` the names
    imported from other modules."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif imports and isinstance(sub, ast.ImportFrom):
                names.update(a.name for a in sub.names)
    return names


def _defined(stmt):
    """Top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_import_is_used():
    # __init__ imports to re-export.
    unused = [
        f"{name}: {imp}"
        for name, tree in _modules().items()
        if name != "__init__.py"
        for imp in sorted(_imported(tree) - _references(tree.body, imports=False))
    ]
    assert unused == []


def test_every_private_top_level_name_is_used():
    # A private helper that only tests call is dead code; so is one that
    # only its own body calls.
    modules = _modules()
    refs = {name: [_references([s]) for s in t.body] for name, t in modules.items()}
    dead = []
    for name, tree in modules.items():
        others = [r for m, rs in refs.items() if m != name for r in rs]
        for i, stmt in enumerate(tree.body):
            own = [r for j, r in enumerate(refs[name]) if j != i]
            for private in _defined(stmt) - set().union(*others, *own):
                if private.startswith("_") and not private.startswith("__"):
                    dead.append(f"{name}: {private}")
    assert dead == []


def test_every_parameter_is_read():
    # A parameter that a function's body never reads, nested functions
    # included, is a knob nothing turns.
    unread = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
            }
            unread.extend(
                f"{name}: {node.name}({p.arg})"
                for p in params
                if p is not None and p.arg not in read
            )
    assert unread == []


def test_tolerances_are_read_only_in_linalg():
    # Each tolerance is decided in one place. Other modules take the
    # pivot floor from `linalg.pivot_floor` and the symmetry check from
    # `linalg._symmetric_part`, and import neither constant.
    readers = [
        f"{name}: {tol}"
        for name, tree in _modules().items()
        if name != "linalg.py"
        for tol in sorted({"PIVOT_RTOL", "SYMMETRY_RTOL"} & _references(tree.body))
    ]
    assert readers == []
