"""The parent-vs-change runner that the tools/bench_*.py scripts share.

Every bench script is run from the repository root, as

    python3 tools/bench_<name>.py
    python3 tools/bench_<name>.py --tree parent=../parent/src --tree change=src

Each --tree LABEL=SRC names a source tree, the src/ directory of a checkout.
Without --tree this checkout's src/ is measured under the label "change".
With trees labelled parent and change the file also records the ratios of
the parent's figures over the change's.  The script runs with one BLAS
thread, fixed before numpy is first imported, and so do its children.

A script whose trees cannot share one process (their sparseobs packages
have the same name) measures each tree in child processes of its own: the
trees take turns, round after round of one child per tree, and each child
imports its tree's package and prints one JSON document on stdout.  The
inputs are built once, by this checkout's package, and every child reads
the same ones.  The results go to BENCH_<name>.json at the repository root,
in indented JSON with each list of scalars, such as a table row, on one line.
"""

import argparse
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_blas_thread():
    """Pin BLAS to one thread here and in every child; call it before numpy
    is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(doc, run, **children):
    """The command line of the bench script whose docstring is doc: parse
    --tree LABEL=SRC and call run({label: src}) with this checkout's package
    first on sys.path.  In a child started by rounds(), call the named
    function of children with its tree's package first on sys.path, and
    print what it returns as JSON."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    # internal: NAME SRC ARGS... of one child process
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        name, src, *rest = args.child
        sys.path.insert(0, str(Path(src).resolve()))
        print(json.dumps(children[name](*rest)))
        return
    sys.path.insert(0, str(ROOT / "src"))
    run(dict(t.split("=", 1) for t in args.tree) or {"change": str(ROOT / "src")})


def rounds(script, trees, count, name, *args):
    """{label: [the JSON document of each round]}: count rounds in which
    every tree, in turn, runs name(*args) of script in a child process."""
    runs = {label: [] for label in trees}
    for _ in range(count):
        for label, src in trees.items():
            # stderr stays the terminal's, so a failing child's traceback shows
            child = subprocess.run(
                [sys.executable, script, "--child", name, src, *args],
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            )
            runs[label].append(json.loads(child.stdout))
    return runs


@contextlib.contextmanager
def saved(arrays):
    """The path of an .npz file holding arrays, for the children to load;
    the file is removed when the with block ends."""
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inputs.npz"
        np.savez(path, **arrays)
        yield str(path)


@contextlib.contextmanager
def swapped(module, name, wrap):
    """Inside the with block module.name is wrap(module.name), such as a
    counting wrapper of it; the function is restored when the block ends."""
    plain = getattr(module, name)
    setattr(module, name, wrap(plain))
    try:
        yield
    finally:
        setattr(module, name, plain)


def quartiles(samples):
    """The median and quartiles of samples in seconds, in milliseconds."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": q2 * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def parent_over_change(doc, key, pick):
    """When trees labelled parent and change both ran, set doc[key] to
    pick(parent's results) over pick(change's results), entry by entry
    through nested dicts, and return True."""
    results = doc["results"]
    if not {"parent", "change"} <= results.keys():
        return False

    def divide(p, q):
        return {k: divide(p[k], q[k]) for k in p} if isinstance(p, dict) else p / q

    doc[key] = divide(pick(results["parent"]), pick(results["change"]))
    return True


def write(name, doc):
    """Write doc to BENCH_<name>.json after the script's name, its BLAS
    threads and the host."""
    import numpy as np

    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    doc = {"script": f"tools/bench_{name}.py", "blas_threads": 1, "host": host, **doc}
    text = re.sub(
        r"\[\s+([^][{}]*?)\s+\]",
        lambda match: "[" + " ".join(match.group(1).split()) + "]",
        json.dumps(doc, indent=2),
    )
    (ROOT / f"BENCH_{name}.json").write_text(text + "\n")
