"""Print the library statements that the benchmark and CLI bodies never run.

Usage: PYTHONPATH=src python3 tools/traffic_lines.py [--skip MODULE.FUNC ...]

In one process, with a line tracer limited to the library's own files
(the branelab package on PYTHONPATH), imports the library, builds and runs
every operation of each workload of bench/workloads.py once, with its
check, at seeds 1, 2 and 3, then renders everything tools/cli_bodies.py
writes (into a temporary directory), the demos run in process through
runpy.  Prints, per module, each statement outside docstrings that never
ran, as `  <line>  <its first source line>`, under a line
`<module>: <never run> of <statements> statements never ran`, and a total
line last.

A statement counts as run when any line of it ran; for a compound
statement (def, class, if, for, while, with) only the lines of its header
count, its body being statements of its own.  `try:`, `global` and
`nonlocal` are not counted: they run no line of their own.

``--skip strings_gb.gb_symplectic_form`` traces nothing while that
function is on the stack, so the statements that only it reaches show as
never run.  Like op_hashes.py, the script writes no bytecode.
"""
import ast
import contextlib
import importlib.util
import io
import os
import pathlib
import runpy
import sys
import tempfile
from collections import defaultdict

sys.dont_write_bytecode = True      # before bench/ and the library load

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


class LineTracer:
    """Records the lines run in the files under ``lib``, except while a
    function named in ``skip`` (as (module stem, qualified name)) runs."""

    def __init__(self, lib, skip=()):
        self.prefix = str(lib) + os.sep
        self.skip = set(skip)
        self.ran = defaultdict(set)
        self.skipping = 0

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if self.skipping or not code.co_filename.startswith(self.prefix):
            return None
        stem = pathlib.Path(code.co_filename).stem
        if (stem, getattr(code, "co_qualname", code.co_name)) in self.skip:
            self.skipping += 1
            frame.f_trace_lines = False
            return self._leave
        lines = self.ran[code.co_filename]

        def record(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return record
        return record

    def _leave(self, frame, event, arg):
        if event == "return":
            self.skipping -= 1
        return self._leave


def _docstrings(tree):
    """The ids of the docstring expressions of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.add(id(body[0]))
    return out


def statements(path):
    """(first line, lines) of each counted statement of the file: the
    lines that run it, its header's for a compound statement."""
    tree = ast.parse(pathlib.Path(path).read_text())
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docs
                or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return sorted(out)


def run_traffic():
    """The bench workloads at SEEDS, then the CLI bodies and the demos."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for seed in SEEDS:
        for name in workloads._BUILDERS:
            done = {}
            for op in workloads.build(name, seed):
                value = op.call()
                error = op.check(value, done)
                if error:
                    sys.exit(f"{name} {op.name} at seed {seed}: {error}")
                done[op.name] = value
    spec = importlib.util.spec_from_file_location(
        "cli_bodies", ROOT / "tools" / "cli_bodies.py")
    cli_bodies = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_bodies)
    with tempfile.TemporaryDirectory() as out:
        cli_bodies.write_cli_outputs(out)
    for demo in sorted(cli_bodies.DEMOS.glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def main(argv):
    skip = []
    while argv:
        if argv[0] != "--skip" or len(argv) < 2 or "." not in argv[1]:
            sys.exit(__doc__.split("\n\n")[1])
        skip.append(tuple(argv[1].split(".", 1)))
        argv = argv[2:]
    lib = pathlib.Path(importlib.util.find_spec("branelab").origin).parent
    tracer = LineTracer(lib, skip)
    sys.settrace(tracer)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    never = counted = 0
    for path in sorted(lib.glob("*.py")):
        source = path.read_text().splitlines()
        stmts = statements(path)
        missed = [line for line, span in stmts
                  if not any(k in tracer.ran[str(path)] for k in span)]
        never, counted = never + len(missed), counted + len(stmts)
        print(f"{path.name}: {len(missed)} of {len(stmts)} statements "
              "never ran")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total: {never} of {counted} statements never ran")


if __name__ == "__main__":
    main(sys.argv[1:])
