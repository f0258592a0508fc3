"""List the settings and public names of ``src/preydelay`` that only tests use.

Run from the repository root: ``python tests/default_audit.py``.  The
library's callers are the library itself, the CLI, the demos and the
benchmark: the code in ``src/``, ``demos/`` and ``perfbench/``.  A test alone
does not justify a setting or a name.

Settings: the script reads every call in those folders and matches it to a
definition by the callee's last name (``f(...)``, ``mod.f(...)``, a class by
its ``__init__`` or its base's).  ``tracer.call(name, fn, *args)`` counts as
a call of ``fn``, and a call with ``*args`` or ``**kwargs`` passes
everything.  The line ``defaulted parameters: ...`` counts the defaulted
parameters, the values a caller can set without being made to, and those
that no caller passes.

Public names: an entry of a module's ``__all__``, a name that the package's
``__init__`` imports, and a public method or property of a public class.
One is used where a name or an attribute of that name appears in the
callers' code; the line ``public names: ...`` counts those that only
``tests/`` uses.

The script exits 1 when a defaulted parameter outside ``KEPT`` is never
passed, or when a public name is used only by tests, so that an option or a
name that nothing but a test needs does not come back unnoticed.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "preydelay"
CALLERS = ("src", "demos", "perfbench")
# never passed, and kept: constant_history and constant_plus_sine_history
# take a label as their sibling constructors do, and the engine passes
# IntegrationError's trajectory through a variable (failure(...,
# trajectory=traj)), which the audit does not follow
KEPT = {("IntegrationError", "trajectory"),
        ("constant_history", "label"),
        ("constant_plus_sine_history", "label")}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def definitions() -> dict:
    """name -> [(file, positional parameters, defaulted parameters)]"""
    defs, classes = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                a = node.args
                pos = a.posonlyargs + a.args
                if scope is not tree and pos and pos[0].arg in ("self", "cls"):
                    pos = pos[1:]
                defaulted = [p.arg for p in pos[len(pos) - len(a.defaults):]
                             ] if a.defaults else []
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                if defaulted:
                    name = scope.name if node.name == "__init__" else node.name
                    defs.setdefault(name, []).append(
                        (path.name, [p.arg for p in pos], defaulted))
        classes += [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for cls in classes:  # a subclass without __init__ is built by its base's
        for base in cls.bases:
            if cls.name not in defs and _name(base) in defs:
                defs[cls.name] = defs[_name(base)]
    return defs


def _nodes(folders):
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text()))


def passed_parameters(defs: dict) -> dict:
    passed = {id(entries): set() for entries in defs.values()}
    for node in _nodes(CALLERS):
        if not isinstance(node, ast.Call):
            continue
        name, args = _name(node.func), list(node.args)
        if name == "call" and len(args) >= 2:
            name, args = _name(args[1]), args[2:]
        if name not in defs:
            continue
        star = (any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None for k in node.keywords))
        seen = passed[id(defs[name])]
        for _, pos, defaulted in defs[name]:
            seen.update(pos[:len(args)])
            seen.update(defaulted if star else ())
        seen.update(k.arg for k in node.keywords if k.arg)
    return passed


def public_names() -> dict:
    """name -> where it is defined or exported"""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(_name(t) == "__all__" for t in node.targets)):
                for entry in node.value.elts:
                    names.setdefault(entry.value, path.name)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                for alias in node.names:
                    if not (alias.asname or alias.name).startswith("_"):
                        names.setdefault(alias.asname or alias.name, path.name)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        names.setdefault(member.name,
                                         f"{path.name}: {node.name}")
    return names


def used_names(folders) -> set:
    return {_name(node) for node in _nodes(folders)
            if isinstance(node, (ast.Name, ast.Attribute))}


def main() -> int:
    defs = definitions()
    passed = passed_parameters(defs)
    total = never = 0
    unkept = []
    for entries in {id(e): e for e in defs.values()}.values():
        for file, _, defaulted in entries:
            total += len(defaulted)
            unused = [p for p in defaulted if p not in passed[id(entries)]]
            never += len(unused)
            if unused:
                name = next(n for n, e in defs.items() if e is entries)
                print(f"{file}: {name}({', '.join(unused)})")
                unkept += [f"{name}({p})" for p in unused
                           if (name, p) not in KEPT]
    print(f"defaulted parameters: {total}; never passed: {never}")
    names, used = public_names(), used_names(CALLERS)
    tested = used_names(["tests"])
    test_only = sorted(n for n in names if n not in used and n in tested)
    for name in test_only:
        print(f"{names[name]}: {name} is used only by tests")
    print(f"public names: {len(names)}; used only by tests: {len(test_only)}")
    if unkept:
        print(f"never passed and not kept: {', '.join(unkept)}")
    return 1 if unkept or test_only else 0


if __name__ == "__main__":
    sys.exit(main())
