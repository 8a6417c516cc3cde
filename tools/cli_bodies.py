"""Write the nine default CLI report bodies, their --dump-fields CSVs and
the printed output of every demo.

Usage: PYTHONPATH=src python3 tools/cli_bodies.py OUTDIR

Each scenario runs with its defaults; OUTDIR gets <scenario>.txt (the
report without its `duration-s:` line) and <scenario>.csv.  Each script in
demos/ runs in its own interpreter, which inherits PYTHONPATH, so the
library under test is the one on the path; OUTDIR gets demo-<stem>.txt
with its stdout.  Two checkouts can then be compared with `diff -r`.
"""
import contextlib
import io
import os
import pathlib
import subprocess
import sys

from branelab import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def main(outdir):
    os.makedirs(outdir, exist_ok=True)
    for name in cli.SCENARIOS:
        csv_path = os.path.join(outdir, f"{name}.csv")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["--scenario", name, "--dump-fields", csv_path])
        body = [ln for ln in out.getvalue().splitlines(keepends=True)
                if not ln.startswith("duration-s:")]
        with open(os.path.join(outdir, f"{name}.txt"), "w") as fh:
            fh.writelines(body)
    for demo in sorted(DEMOS.glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                             text=True, check=True)
        with open(os.path.join(outdir, f"demo-{demo.stem}.txt"), "w") as fh:
            fh.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
