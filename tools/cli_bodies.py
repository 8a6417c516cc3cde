"""Write the nine default CLI report bodies, two product-background report
bodies, one traveling-wave report body, their --dump-fields CSVs and the
printed output of every demo.

Usage: PYTHONPATH=src python3 tools/cli_bodies.py OUTDIR

Each scenario runs with its defaults; OUTDIR gets <scenario>.txt (the
report without its `duration-s:` line) and <scenario>.csv.  No default
builds a product background, the only catalog ambient on which the
curvature couplings E05/E08/E14 are visible, so `action-variation` also
runs on the S2xS2 patch for each model in S2XS2_MODELS, through a --config
file in a temporary directory; OUTDIR gets
action-variation-s2xs2-<model>.txt and .csv.  No default runs
`symplectic-conservation` on its traveling-wave branch (the left-moving
probe pair), so it also runs there through a --config file; OUTDIR gets
symplectic-conservation-traveling-wave.txt and .csv.  Each script in
demos/ runs in its own interpreter, which inherits PYTHONPATH, so the
library under test is the one on the path; OUTDIR gets demo-<stem>.txt
with its stdout.
Two checkouts can then be compared with `diff -r`.
"""
import contextlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

from branelab import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
S2XS2_MODELS = ("quadratic-k", "synthetic-gradk")


def write_body(outdir, stem, argv):
    """Run the CLI on ``argv`` plus --dump-fields; write <stem>.txt/.csv."""
    csv_path = os.path.join(outdir, f"{stem}.csv")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv + ["--dump-fields", csv_path])
    body = [ln for ln in out.getvalue().splitlines(keepends=True)
            if not ln.startswith("duration-s:")]
    with open(os.path.join(outdir, f"{stem}.txt"), "w") as fh:
        fh.writelines(body)


def write_config_body(outdir, tmp, stem, text):
    """Run the CLI on a --config file holding ``text``; see `write_body`."""
    cfg = os.path.join(tmp, f"{stem}.ini")
    with open(cfg, "w") as fh:
        fh.write(text)
    write_body(outdir, stem, ["--config", cfg])


def main(outdir):
    os.makedirs(outdir, exist_ok=True)
    for name in cli.SCENARIOS:
        write_body(outdir, name, ["--scenario", name])
    with tempfile.TemporaryDirectory() as tmp:
        for model in S2XS2_MODELS:
            write_config_body(outdir, tmp, f"action-variation-s2xs2-{model}",
                              "[scenario]\nname = action-variation\n"
                              "[embedding]\nid = s2xs2\n"
                              f"[model]\nid = {model}\n"
                              "[run]\ngrid = 32\n")
        write_config_body(outdir, tmp, "symplectic-conservation-traveling-wave",
                          "[scenario]\nname = symplectic-conservation\n"
                          "[embedding]\nid = traveling-wave\n")
    for demo in sorted(DEMOS.glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                             text=True, check=True)
        with open(os.path.join(outdir, f"demo-{demo.stem}.txt"), "w") as fh:
            fh.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
