"""Report which deferred modules a CLI start-up loaded.

    python tests/startup_imports.py [preydelay | preydelay.cli]
        checks after importing the module (``preydelay.cli`` by default)
    python tests/startup_imports.py SUBCOMMAND --config CFG --out DIR
        checks after running ``python -m preydelay SUBCOMMAND ...``

DEFERRED names, for each case, the modules that only other subcommands use
(or, for SciPy, only the tests), so that case must not import them.  Only
``simulate`` and ``verify`` integrate, so every other case must not generate
a step kernel either (``preydelay.engine._KERNELS`` stays empty); that counts
as one more loaded name, ``step kernel``.  Prints the loaded names and exits
1 if there are any.  Run it with ``src`` on ``PYTHONPATH`` or with the
package installed.  There is a case for each of the five subcommands.
"""
import runpy
import sys

_ANY = ("xml.sax", "concurrent.futures", "numpy.polynomial", "numpy.ma",
        "scipy", "preydelay._forkmap")
_NEVER = ("preydelay.analysis", "preydelay.svg", *_ANY)
_AT_START = ("numpy", "preydelay.stability", *_NEVER)

DEFERRED = {
    "preydelay": _AT_START,
    "preydelay.cli": _AT_START,
    "equilibria": _AT_START,
    "stability": _NEVER,
    "sweep": _NEVER,
    # the SVG chart is drawn when the config asks for one; NumPy loads only
    # for a tabulated history or an export of more than one block
    "simulate": ("numpy", "preydelay.stability", "preydelay.analysis", *_ANY),
    "verify": ("preydelay.svg", *_ANY),
}

# the cases that integrate, and so generate a step kernel
INTEGRATING = ("simulate", "verify")


def main(argv: list[str]) -> int:
    case = argv[0] if argv else "preydelay.cli"
    if case not in DEFERRED:
        print(f"no deferred set for {case!r}; cases: {', '.join(DEFERRED)}",
              file=sys.stderr)
        return 2
    if case.startswith("preydelay"):
        __import__(case)
    else:
        sys.argv = ["preydelay", *argv]
        try:
            runpy.run_module("preydelay", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            if exc.code:
                print(f"preydelay {' '.join(argv)} exited {exc.code}",
                      file=sys.stderr)
                return 2
    loaded = [name for name in DEFERRED[case] if name in sys.modules]
    engine = sys.modules.get("preydelay.engine")
    if case not in INTEGRATING and engine is not None and engine._KERNELS:
        loaded.append("step kernel")
    print(" ".join(loaded))
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
