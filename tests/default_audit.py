"""List the defaulted parameters of ``src/preydelay`` that no call passes.

Run from the repository root: ``python tests/default_audit.py``.  It reads
every call in ``src/``, ``demos/``, ``perfbench/`` and ``tests/`` and matches
it to a definition by the callee's last name (``f(...)``, ``mod.f(...)``, a
class by its ``__init__`` or its base's).  ``tracer.call(name, fn, *args)``
counts as a call of ``fn``, and a call with ``*args`` or ``**kwargs`` passes
everything.  The line ``defaulted parameters: ...`` counts the defaulted
parameters, the values a caller can set without being made to.  The script
exits 1 when a defaulted parameter outside ``KEPT`` is never passed, so that
an option nothing sets does not come back unnoticed.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# never passed, and kept: constant_plus_sine_history takes a label as its
# sibling constructors do, and the engine passes IntegrationError's
# trajectory through a variable (failure(..., trajectory=traj)), which the
# audit does not follow
KEPT = {("IntegrationError", "trajectory"),
        ("constant_plus_sine_history", "label")}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def definitions() -> dict:
    """name -> [(file, positional parameters, defaulted parameters)]"""
    defs, classes = {}, []
    for path in sorted((ROOT / "src" / "preydelay").glob("*.py")):
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


def passed_parameters(defs: dict) -> dict:
    passed = {id(entries): set() for entries in defs.values()}
    for folder in ("src", "demos", "perfbench", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
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
    if unkept:
        print(f"never passed and not kept: {', '.join(unkept)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
