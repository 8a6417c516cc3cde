"""Write the nine default CLI report bodies and their --dump-fields CSVs.

Usage: PYTHONPATH=src python3 tools/cli_bodies.py OUTDIR

Each scenario runs with its defaults; OUTDIR gets <scenario>.txt (the
report without its `duration-s:` line) and <scenario>.csv.  Two checkouts
can then be compared with `diff -r`.
"""
import contextlib
import io
import os
import sys

from branelab import cli


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


if __name__ == "__main__":
    main(sys.argv[1])
