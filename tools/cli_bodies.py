"""Write the CLI's --list catalog, the nine default CLI report bodies, two
product-background report bodies, one traveling-wave report body, their
--dump-fields CSVs and the printed output of every demo.

Usage: PYTHONPATH=src python3 tools/cli_bodies.py OUTDIR

OUTDIR gets list.txt, the --list output.  Each scenario runs with its
defaults; OUTDIR gets <scenario>.txt (the report without its `duration-s:`
line) and <scenario>.csv.  No default builds a product background, the
only catalog ambient on which the curvature couplings E05/E08/E14 are
visible, so `action-variation` also runs on the S2xS2 patch for each
model in S2XS2_MODELS, through a --config file in a temporary directory;
OUTDIR gets action-variation-s2xs2-<model>.txt and .csv.  No default runs
`symplectic-conservation` on its traveling-wave branch (the left-moving
probe pair), so it also runs there through a --config file; OUTDIR gets
symplectic-conservation-traveling-wave.txt and .csv.  No default reaches
the perturbed-sphere, flat-torus or bumpy-torus charts, nor the
ellipsoid, so `gauss-bonnet` runs on each of the first three
(gauss-bonnet-<embedding>.txt and .csv) and `deformation-oracle` on the
ellipsoid (deformation-oracle-ellipsoid.txt and .csv), again through
--config files.  Each script in
demos/ runs in its own interpreter, which inherits PYTHONPATH, so the
library under test is the one on the path; OUTDIR gets demo-<stem>.txt
with its stdout.

Usage: python3 tools/cli_bodies.py --compare OLD NEW

compares two such directories.  For each file it prints whether the
verdicts (the `pass=` token of each check line and the `result:` lines)
are identical, and the largest relative change of any number, pairing
the numbers of the two files in order.  It exits 1 if a verdict differs,
a file is in one directory only, or the text between the numbers differs
(then the numbers cannot be paired); else 0.  `diff -r` still shows
byte identity.

Usage: python3 tools/cli_bodies.py --manifest OUTDIR > tests/golden/csv.sha256

prints the manifest of the CSVs in OUTDIR: per file its sha256 line, in
`sha256sum`'s format, then one indented line per column with its row
count, largest |value| and exactly rounded sum.  `csv_report` names the
columns whose statistics moved between a manifest and a new CSV.
"""
import contextlib
import csv
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

from branelab import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
S2XS2_MODELS = ("quadratic-k", "synthetic-gradk")
CLOSED_CHARTS = ("perturbed-sphere", "flat-torus", "bumpy-torus")


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
    write_cli_outputs(outdir)
    for demo in sorted(DEMOS.glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                             text=True, check=True)
        with open(os.path.join(outdir, f"demo-{demo.stem}.txt"), "w") as fh:
            fh.write(run.stdout)


def write_cli_outputs(outdir):
    """Write every file of `main` but the demos' output."""
    os.makedirs(outdir, exist_ok=True)
    catalog = io.StringIO()
    with contextlib.redirect_stdout(catalog):
        cli.main(["--list"])
    pathlib.Path(outdir, "list.txt").write_text(catalog.getvalue())
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
        for chart in CLOSED_CHARTS:
            write_config_body(outdir, tmp, f"gauss-bonnet-{chart}",
                              "[scenario]\nname = gauss-bonnet\n"
                              f"[embedding]\nid = {chart}\n")
        write_config_body(outdir, tmp, "deformation-oracle-ellipsoid",
                          "[scenario]\nname = deformation-oracle\n"
                          "[embedding]\nid = ellipsoid\n")


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def verdicts(text):
    """The check names with their `pass=` values, and the `result:` lines."""
    out = []
    for line in text.splitlines():
        if line.startswith("result:"):
            out.append(line)
        elif "pass=" in line:
            name = re.search(r"name=(\S+)", line)
            out.append((name and name.group(1), re.findall(r"pass=(\S+)", line)))
    return out


def relative_change(x, y):
    """|x - y| over the larger magnitude; 0 for equal numbers or two NaNs."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def largest_change(old, new):
    """(relative change, line, old number, new number) of the number that
    moved most, or None when the text between the numbers differs."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    worst, line = (0.0, 0, "", ""), 1
    for k in range(1, len(a), 2):
        line += a[k - 1].count("\n")
        rel = relative_change(float(a[k]), float(b[k]))
        if rel > worst[0]:
            worst = (rel, line, a[k], b[k])
    return worst


def file_report(name, old, new):
    """`compare`'s line for one file holding ``old`` then ``new``, whether
    the file fails (a verdict differs or the numbers cannot be paired), and
    the largest change as (relative change, where) or None."""
    same = verdicts(old) == verdicts(new)
    change = largest_change(old, new)
    worst = None
    if change is None:
        digits = "text between the numbers differs"
    else:
        rel, line, x, y = change
        digits = f"largest relative change {rel:.2e}"
        if rel:
            digits += f" (line {line}: {x} -> {y})"
            worst = (rel, f"{name} line {line}: {x} -> {y}")
    text = f"{name}: verdicts {'identical' if same else 'DIFFER'}; {digits}"
    return text, not same or change is None, worst


def compare(old_dir, new_dir):
    """Print the per-file verdict and digit report; return the exit code."""
    old_files = set(os.listdir(old_dir))
    new_files = set(os.listdir(new_dir))
    status, overall = 0, (0.0, "-")
    for name in sorted(old_files | new_files):
        if name not in old_files or name not in new_files:
            print(f"{name}: only in {old_dir if name in old_files else new_dir}")
            status = 1
            continue
        text, failed, worst = file_report(
            name, pathlib.Path(old_dir, name).read_text(),
            pathlib.Path(new_dir, name).read_text())
        status = 1 if failed else status
        overall = max(overall, worst or overall)
        print(text)
    print(f"largest relative change overall: {overall[0]:.2e} ({overall[1]})")
    return status


def csv_stats(path):
    """{column: (rows, max |value|, sum)} of a --dump-fields CSV."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    cols = zip(*([float(x) for x in row] for row in rows))
    return {name: (len(rows), max(map(abs, col)), math.fsum(col))
            for name, col in zip(header, cols)}


def manifest(outdir):
    """The `--manifest` text of the CSVs in ``outdir``."""
    lines = []
    for path in sorted(pathlib.Path(outdir).glob("*.csv")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.name}")
        lines += [f"  {name} rows={rows} max_abs={big!r} sum={total!r}"
                  for name, (rows, big, total) in csv_stats(path).items()]
    return "".join(line + "\n" for line in lines)


def read_manifest(text):
    """{file: (sha256, {column: (rows, max |value|, sum)})} of a manifest."""
    out = {}
    for line in text.splitlines():
        if not line.startswith(" "):
            digest, name = line.split()
            out[name] = (digest, {})
            continue
        column, *fields = line.split()
        rows, big, total = (v.split("=", 1)[1] for v in fields)
        out[name][1][column] = (int(rows), float(big), float(total))
    return out


def csv_report(name, want, got):
    """The line naming each column of ``name`` whose statistics moved from
    ``want`` to ``got`` (both `csv_stats` dicts) and its largest relative
    change."""
    moved = [f"{col} only in {'the manifest' if col in want else 'the run'}"
             for col in sorted(set(want) ^ set(got))]
    for col in [c for c in want if c in got]:
        (n0, *old), (n1, *new) = want[col], got[col]
        if n0 != n1:
            moved.append(f"{col} rows {n0} -> {n1}")
            continue
        rel, what, x, y = max((relative_change(x, y), what, x, y)
                              for what, x, y in zip(("max_abs", "sum"), old,
                                                    new))
        if rel:
            moved.append(f"{col} {what} {x!r} -> {y!r} "
                         f"(relative change {rel:.2e})")
    return f"{name}: sha256 differs from csv.sha256; " + (
        "; ".join(moved) or "no column's row count, max |value| or sum moved")


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    elif sys.argv[1] == "--manifest":
        sys.stdout.write(manifest(sys.argv[2]))
    else:
        main(sys.argv[1])
