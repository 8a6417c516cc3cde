"""The behavioural contract: the CLI report bodies and demo outputs that
`tools/cli_bodies.py` writes, pinned byte for byte.

`tests/golden/` holds the text files the tool writes (the --list catalog,
the report bodies without their `duration-s:` line, and the demo outputs)
and `csv.sha256`, the manifest of the --dump-fields CSVs, which are too
large to commit: the sha256 of each, and per column its row count,
largest |value| and sum.  The files hold for the einsum summation order
of the x86-64 OpenBLAS numpy build they were written with; another CPU
may sum einsum terms in another order and move the last digits of some
bodies.
The failure message then prints `tools/cli_bodies.py --compare`'s
verdict and digit report for each changed text file, which shows
whether any verdict moved, and for each changed CSV the columns whose
statistics moved, with their largest relative change.

A change that moves a body on purpose rewrites the golden files:

    PYTHONPATH=src python3 tools/cli_bodies.py OUT
    cp OUT/*.txt tests/golden/
    PYTHONPATH=src python3 tools/cli_bodies.py --manifest OUT \
        > tests/golden/csv.sha256
"""
import hashlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "csv.sha256"


def _cli_bodies():
    spec = importlib.util.spec_from_file_location(
        "cli_bodies", ROOT / "tools" / "cli_bodies.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_bodies_match_golden_files(tmp_path, monkeypatch):
    # the demos run in their own interpreters on this checkout's library
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    tool = _cli_bodies()
    tool.main(tmp_path)
    want_csv = tool.read_manifest(MANIFEST.read_text())
    want_txt = {p.name for p in GOLDEN.glob("*.txt")}
    got_txt = {p.name for p in tmp_path.glob("*.txt")}
    got_csv = {p.name for p in tmp_path.glob("*.csv")}
    problems = []
    for want, got in ((want_txt, got_txt), (set(want_csv), got_csv)):
        problems += [f"{name}: not written by the run"
                     for name in sorted(want - got)]
        problems += [f"{name}: not in tests/golden"
                     for name in sorted(got - want)]
    for name in sorted(want_txt & got_txt):
        old = (GOLDEN / name).read_text()
        new = (tmp_path / name).read_text()
        if old != new:
            problems.append(tool.file_report(name, old, new)[0])
    for name in sorted(set(want_csv) & got_csv):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        want_digest, want_stats = want_csv[name]
        if digest != want_digest:
            problems.append(tool.csv_report(
                name, want_stats, tool.csv_stats(tmp_path / name)))
    assert not problems, "\n".join(problems)


def test_a_moved_csv_names_its_columns_and_their_change(tmp_path):
    tool = _cli_bodies()
    _digest, want = tool.read_manifest(MANIFEST.read_text())["mass-shell.csv"]
    got = dict(want)
    rows, big, total = want["residual"]
    got["residual"] = (rows, big, total + 1e-3)
    line = tool.csv_report("mass-shell.csv", want, got)
    assert line.startswith("mass-shell.csv: sha256 differs")
    assert "residual sum" in line and "param0" not in line
    assert "relative change 1.00e+00" in line
    got["param0"] = (rows + 1,) + want["param0"][1:]
    assert "param0 rows" in tool.csv_report("mass-shell.csv", want, got)
    unmoved = tool.csv_report("mass-shell.csv", want, want)
    assert "csv.sha256; no column" in unmoved
