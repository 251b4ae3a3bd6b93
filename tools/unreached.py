"""Print the engine lines and functions of a geocl source tree that the
benchmark workloads and the gate's ablation modes never execute.

Usage (from any directory):

    python3 tools/unreached.py TREE

TREE is a checkout of this repository (the one to measure). In this
process, from TREE's ``src``, with one BLAS thread and no run outputs, the
tool runs at seed 1 each workload config of TREE's ``bench/run.py`` (a CSV
workload's data is written to a temporary directory first), then each of
``ABLATION_MODES`` from TREE's ``tests/test_acceptance.py`` on the default
config with ``epochs_main`` 1.

Only ``sys.settrace`` watches the runs: nothing is wrapped or replaced. The
engine's modules are imported under the trace, so their module and class
bodies count. A code object (module, class body, function, lambda or
comprehension) of ``src/geocl`` that ran gets one printed line per line of
its bytecode that never ran, as ``PATH:LINE NAME: SOURCE``; one that never
ran gets one line, ``PATH:LINE NAME: never called``, and a module never
imported one line, ``PATH:1 <module>: never imported``. A multi-line
statement can print more than one line. Code objects are named by
``co_qualname``, so the tool needs Python 3.11 or later. It takes about 3 s
on a 2-vCPU Xeon.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
from pathlib import Path


def code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def body(code) -> set:
    """The lines of ``code``'s own bytecode that a line event can mark: a
    function's first line is its entry, which none does."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/unreached.py TREE", file=sys.stderr)
        return 1
    tree = Path(argv[0]).resolve()
    package = tree / "src" / "geocl"
    sys.path[:0] = [str(tree / "src"), str(tree / "bench"), str(tree / "tests")]
    import run as bench_run  # TREE's bench/run.py: imports nothing numerical

    os.environ.update(bench_run.ONE_THREAD)  # before NumPy is first imported
    seed = 1
    prefix = str(package) + os.sep
    pending: dict = {}  # code object that ran -> its lines that have not

    def local(frame, event, arg):
        lines = pending[frame.f_code]
        lines.discard(frame.f_lineno)
        return local if lines else None  # a frame whose lines have all run is let go

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in pending:
            pending[code] = body(code)
        return local if pending[code] else None

    sys.settrace(trace)
    try:
        import test_acceptance as gate  # TREE's gate, and through it TREE's geocl
        from geocl import config, experiment

        with tempfile.TemporaryDirectory() as work:
            for name, spec in bench_run.WORKLOADS.items():
                cfg = bench_run.merge(spec["config"], {"seed": seed})
                if "csv" in spec:
                    data = Path(work) / name
                    gen = config.load_config(overrides={"seed": seed, "stream": spec["csv"]})
                    experiment.write_dataset_csv(gen, data)
                    cfg = bench_run.merge(cfg, {"stream": {"csv_path": str(data / "dataset.csv")}})
                experiment.run_experiment(config.load_config(overrides=cfg))
        for overrides in gate.ABLATION_MODES.values():
            cfg = bench_run.merge(overrides, {"seed": seed, "epochs_main": 1})
            experiment.run_experiment(config.load_config(overrides=cfg))
    finally:
        sys.settrace(None)

    def key(code):
        return code.co_filename, code.co_firstlineno, code.co_qualname

    by_key = {key(code): lines for code, lines in pending.items()}
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        where = path.relative_to(tree)
        module, *nested = code_objects(compile(source, str(path), "exec"))
        if key(module) not in by_key:
            print(f"{where}:1 <module>: never imported")
            continue
        for code in [module] + nested:
            lines = by_key.get(key(code))
            if lines is None:
                print(f"{where}:{code.co_firstlineno} {code.co_qualname}: never called")
            for line in sorted(lines or ()):
                print(f"{where}:{line} {code.co_qualname}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
