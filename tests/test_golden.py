"""The behavioural contract: the CLI report bodies and demo outputs that
`tools/cli_bodies.py` writes, pinned byte for byte.

`tests/golden/` holds the text files the tool writes (the --list catalog,
the report bodies without their `duration-s:` line, and the demo outputs)
and `csv.sha256`, the sha256 of each --dump-fields CSV, which are too
large to commit.  The files hold for the einsum summation order of the
x86-64 OpenBLAS numpy build they were written with; another CPU may sum
einsum terms in another order and move the last digits of some bodies.
The failure message then prints `tools/cli_bodies.py --compare`'s
verdict and digit report for each changed text file, which shows
whether any verdict moved.

A change that moves a body on purpose rewrites the golden files:

    PYTHONPATH=src python3 tools/cli_bodies.py OUT
    cp OUT/*.txt tests/golden/
    (cd OUT && sha256sum *.csv) > tests/golden/csv.sha256
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
    want_csv = dict(reversed(line.split()) for line in
                    MANIFEST.read_text().splitlines())
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
        if digest != want_csv[name]:
            problems.append(f"{name}: sha256 {digest} differs from "
                            f"csv.sha256")
    assert not problems, "\n".join(problems)
