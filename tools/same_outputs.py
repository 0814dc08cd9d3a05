"""Check that two singwave source trees give byte-identical outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``singwave`` package (a
checkout's ``src/``).  Each tree runs in its own process on the same 26
inputs: the seed-7 ``batch-mixed`` list, problem 0 of ``demo-large`` and
of ``reference-dense`` and the warm-up problem, all read from
``perfbench/workloads.py``, five malformed copies of the warm-up problem
(``MALFORMED``: a ragged ``E``, a string cell, a ``NaN`` cell, an ``F``
of the wrong shape and a ``true`` cell), and the six
``singwave.fixtures`` problems, which each tree writes with its own
``write_problem``.  Every input goes through ``solve``, then ``verify``
and then ``eigen``; ``singwave example`` runs once.

Prints every exit code and every output file that differs (the fixture
problem files, ``problem.json`` of ``example``, ``solution.csv``,
``eigen.csv`` of ``solve`` and of ``eigen``, ``report.txt``,
``verify``'s stdout and the three commands' stderr, with the tree's
directory written as ``<tree>``), with the differing lines of a
differing ``report.txt`` or ``.out`` file and, for a differing
``solution.csv``, max|dU|/max|U| over its value columns (the grid's
change relative to the old grid's largest modulus, so a change of
rounding alone shows as a few ulps), then every file that either
tree left in an input's run directory beyond those outputs (such as a
leaked part file of a solution table), each counted as a difference,
then a summary.
Problem 0 of ``demo-large`` (397062 grid values) is the input whose
``solution.csv`` is written by two processes in ``solve`` and read by
two processes in ``verify``.  Each tree then runs ``verify`` on five
damaged copies of its own table of that problem (``damaged_tables``: a
repeated row in the first quarter of the body, a bad cell in the last
quarter, a blank line in the middle, LF line ends and the body rows
shuffled), and the exit code and the text on stdout and stderr of each
are compared too.
Every run writes into a new temporary directory, whose path it prints.
Exits 0 when nothing differs and 1 otherwise.  Uses the standard library
and numpy only.
"""

from __future__ import annotations

import contextlib
import difflib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = ("demo_problem", "scalar_wave_problem",
            "reject_projector_mismatch", "reject_kernel_violation",
            "reject_full_rank", "reject_rho_degenerate")
OUTPUTS = ("solution.csv", "eigen.csv", "report.txt", "verify.out",
           "stderr.out", os.path.join("eigen", "eigen.csv"))
TEXT_OUTPUTS = ("report.txt", ".out")
SEED = 7
# the input whose table is damaged, and where the damaged copies go
DAMAGED_INPUT, DAMAGED_DIR = "demo-large0", "damaged"
# edits of the warm-up problem's document that every command must refuse
MALFORMED = {
    "ragged-E": lambda doc: doc["E"][0].pop(),
    "string-cell": lambda doc: doc["E"][1].__setitem__(1, "1"),
    "nan-cell": lambda doc: doc["E"][1].__setitem__(1, float("nan")),
    "F-shape": lambda doc: doc["F"].pop(),
    "true-cell": lambda doc: doc["E"][1].__setitem__(1, True),
}


def write_bench_inputs(out_dir: str) -> None:
    """Write the 15 benchmark inputs and the MALFORMED copies of the
    warm-up problem as problem files."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    entries = (wl.batch_list(SEED)
               + [wl.problem(name, SEED, 0)
                  for name in ("demo-large", "reference-dense")]
               + [wl.warmup_problem()])
    os.makedirs(out_dir)
    for name, edit in MALFORMED.items():
        doc = wl.warmup_problem()["doc"]
        edit(doc)
        wl._dump({"name": "malformed-" + name, "doc": doc}, out_dir)
    for entry in entries:
        wl._dump(entry, out_dir)


def damaged_tables(text: bytes) -> dict:
    """Damaged copies of a solution table with CRLF line ends, by name: a
    repeated row in the first quarter of its body (a two-process read's
    first half), a bad cell in the last quarter (its second half), a
    blank line in the middle, LF line ends, and its body rows in a
    seeded random order."""
    header, *rows = text.split(b"\r\n")
    n = len(rows) - 1  # the text ends with a line end

    def edited(change):
        lines = list(rows)
        change(lines)
        return b"\r\n".join([header, *lines])

    cells = rows[3 * n // 4].split(b",")
    bad = b",".join(cells[:4] + [b"abc"] + cells[5:])
    return {
        "repeated-row": edited(lambda l: l.insert(n // 4, l[n // 4])),
        "bad-cell": edited(lambda l: l.__setitem__(3 * n // 4, bad)),
        "blank-line": edited(lambda l: l.insert(n // 2, b"")),
        "lf-line-ends": text.replace(b"\r\n", b"\n"),
        "shuffled-rows": edited(lambda l: l.__setitem__(slice(0, n), [
            l[r] for r in np.random.default_rng(SEED).permutation(n)])),
    }


def verify_damaged(cli, problem: str, out_dir: str, codes: dict) -> None:
    """Run verify on each damaged copy of out_dir's table of the damaged
    input; its exit code goes into codes and its stdout and stderr, with
    out_dir written as <tree>, into DAMAGED_DIR/<name>.out."""
    table = _read(os.path.join(out_dir, DAMAGED_INPUT, "solution.csv"))
    if table is None:
        return
    os.makedirs(os.path.join(out_dir, DAMAGED_DIR))
    for name, text in damaged_tables(table).items():
        path = os.path.join(out_dir, DAMAGED_DIR, name + ".csv")
        with open(path, "wb") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = cli.main(["verify", "--input", problem, "--solution",
                             path])
        codes[f"{DAMAGED_DIR}-{name}"] = [code]
        with open(path[:-len(".csv")] + ".out", "w",
                  encoding="utf-8") as fh:
            fh.write(out.getvalue().replace(out_dir, "<tree>"))


def run_tree(inputs_dir: str, out_dir: str) -> None:
    """Run every input through the singwave on sys.path, in a child
    process; writes each input's outputs under out_dir/<name>/ (those of
    eigen under out_dir/<name>/eigen/) and the exit codes of solve,
    verify and eigen to out_dir/codes.json."""
    from singwave import cli, fixtures

    inputs = sorted(os.path.join(inputs_dir, f) for f in os.listdir(
        inputs_dir))
    os.makedirs(out_dir, exist_ok=True)
    for name in FIXTURES:
        path = os.path.join(out_dir, "fixture-" + name + ".json")
        cli.write_problem(getattr(fixtures, name)(), path)
        inputs.append(path)
    codes = {"example": cli.main(["example", "--out-dir", out_dir,
                                  "--quiet"])}
    for path in inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        run_dir = os.path.join(out_dir, name)
        text, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            solve = cli.main(["solve", "--input", path, "--out-dir",
                              run_dir, "--quiet"])
            with contextlib.redirect_stdout(text):
                verify = cli.main(["verify", "--input", path, "--solution",
                                   os.path.join(run_dir, "solution.csv")])
            eigen = cli.main(["eigen", "--input", path, "--out-dir",
                              os.path.join(run_dir, "eigen"), "--quiet"])
        os.makedirs(run_dir, exist_ok=True)  # a refused input makes none
        for out, stream in (("verify.out", text), ("stderr.out", err)):
            with open(os.path.join(run_dir, out), "w",
                      encoding="utf-8") as fh:
                fh.write(stream.getvalue().replace(out_dir, "<tree>"))
        codes[name] = [solve, verify, eigen]
    verify_damaged(cli, os.path.join(inputs_dir, DAMAGED_INPUT + ".json"),
                   out_dir, codes)
    with open(os.path.join(out_dir, "codes.json"), "w",
              encoding="utf-8") as fh:
        json.dump(codes, fh)


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def print_line_diff(old: bytes, new: bytes) -> None:
    """Print the lines removed (-) and added (+) between two texts, with
    their hunk positions and no context."""
    lines = [text.decode("utf-8").splitlines() for text in (old, new)]
    for line in list(difflib.unified_diff(*lines, n=0, lineterm=""))[2:]:
        print(f"    {line}")


def value_deviation(old: bytes, new: bytes) -> str:
    """max|dU|/max|U| between two solution tables of one grid: each
    u<c>_re, u<c>_im pair is one complex value, and the old table's
    largest modulus is the base (max|dU| alone when that is 0)."""
    old_u, new_u = ((cells[:, 4::2] + 1j * cells[:, 5::2]) for cells in (
        np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
        for text in (old, new)))
    peak, dev = np.abs(old_u).max(), np.abs(new_u - old_u).max()
    if not peak:
        return f"max|dU| = {dev:.3e}, max|U| = 0"
    return f"max|dU|/max|U| = {dev / peak:.3e}"


def compare(old_dir: str, new_dir: str) -> int:
    """Print the differences between two tree runs; returns their count."""
    codes = [json.loads(_read(os.path.join(d, "codes.json")))
             for d in (old_dir, new_dir)]
    diffs = 0
    files = [f"fixture-{name}.json" for name in FIXTURES] + ["problem.json"]
    for name, old in codes[0].items():
        new = codes[1].get(name)
        same = "same" if old == new else "DIFFERENT"
        diffs += old != new
        print(f"{name}: exit {old} -> {new} ({same})")
        if name.startswith(DAMAGED_DIR + "-"):
            files.append(os.path.join(DAMAGED_DIR, name[len(DAMAGED_DIR)
                                                        + 1:] + ".out"))
        elif name != "example":
            files += [os.path.join(name, out) for out in OUTPUTS]
    for rel in files:
        old, new = (_read(os.path.join(d, rel)) for d in (old_dir, new_dir))
        if old != new:
            diffs += 1
            print(f"DIFFERENT {rel}: "
                  f"{'absent' if old is None else len(old)} -> "
                  f"{'absent' if new is None else len(new)} bytes")
            if rel.endswith(TEXT_OUTPUTS) and None not in (old, new):
                print_line_diff(old, new)
            if rel.endswith("solution.csv") and None not in (old, new):
                print(f"    {value_deviation(old, new)}")
    for tag, tree in (("old", old_dir), ("new", new_dir)):
        for name in codes[0]:
            if name == "example" or name.startswith(DAMAGED_DIR + "-"):
                continue
            run_dir = os.path.join(tree, name)
            for base, _, names in os.walk(run_dir):
                for leftover in names:
                    rel = os.path.relpath(os.path.join(base, leftover),
                                          run_dir)
                    if rel not in OUTPUTS:
                        diffs += 1
                        print(f"LEFT OVER in {tag} {name}: {rel}")
    present = sum(_read(os.path.join(new_dir, rel)) is not None
                  for rel in files)
    inputs = sum(name != "example" and not name.startswith(DAMAGED_DIR)
                 for name in codes[0])
    print(f"{inputs} inputs, {present} output files present, "
          f"{diffs} differences")
    return diffs


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    work = tempfile.mkdtemp(prefix="same_outputs-")
    inputs_dir = os.path.join(work, "inputs")
    write_bench_inputs(inputs_dir)
    runs = []
    for tag, src in zip(("old", "new"), sys.argv[1:]):
        out_dir = os.path.join(work, tag)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath(src), HERE]))
        subprocess.run([sys.executable, "-c", "import sys, same_outputs; "
                        "same_outputs.run_tree(*sys.argv[1:])", inputs_dir,
                        out_dir], env=env, check=True)
        runs.append(out_dir)
    print(f"outputs under {work}")
    return 1 if compare(*runs) else 0


if __name__ == "__main__":
    sys.exit(main())
