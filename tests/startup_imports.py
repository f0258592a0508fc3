"""Report which deferred modules a CLI start-up loaded.

    python tests/startup_imports.py
        checks after ``import preydelay.cli``
    python tests/startup_imports.py equilibria --config CFG --out DIR
        checks after running ``python -m preydelay equilibria ...``

The modules in DEFERRED are used only by some subcommands (or, for SciPy, only
by the tests), so start-up and the subcommands that do not run them must not
import them.  Prints the ones that are loaded and exits 1 if there are any.
Run it with ``src`` on ``PYTHONPATH`` or with the package installed.
"""
import runpy
import sys

DEFERRED = ("preydelay.analysis", "preydelay.stability", "preydelay.svg",
            "xml.sax", "concurrent.futures", "numpy.polynomial", "scipy")


def main(argv: list[str]) -> int:
    if argv:
        sys.argv = ["preydelay", *argv]
        try:
            runpy.run_module("preydelay", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            if exc.code:
                print(f"preydelay {' '.join(argv)} exited {exc.code}",
                      file=sys.stderr)
                return 2
    else:
        import preydelay.cli  # noqa: F401
    loaded = [name for name in DEFERRED if name in sys.modules]
    print(" ".join(loaded))
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
