"""The parent-vs-change runner that the tools/bench_*.py scripts share.

Every bench script is run from the repository root, as

    python3 tools/bench_<name>.py
    python3 tools/bench_<name>.py --tree parent=../parent/src --tree change=src

Each --tree LABEL=SRC names a source tree, the src/ directory of a checkout.
Without --tree this checkout's src/ is measured under the label "change".
With trees labelled parent and change the file also records the ratios of
the parent's figures over the change's.  The script runs with one BLAS
thread, fixed before numpy is first imported.

Every tree runs in this one process.  The sparseobs package imports itself
only relatively, so each tree's package is imported under a name of its
own, sparseobs_<label>, and its modules are distinct from every other
tree's: a counter swapped into one tree leaves the others untouched.  The
inputs are built once, by this checkout's package, as arrays and plain
values, and every tree receives the same ones.  The trees take turns item
by item: in each round every item runs on every tree back to back, and the
tree that goes first flips from round to round.  So a drift of the host's
speed, or whatever a checkout's directory does to timings, falls on every
tree alike.  The results go to BENCH_<name>.json at the repository root,
in indented JSON with each list of scalars, such as a table row, on one line.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_blas_thread():
    """Pin BLAS to one thread; call it before numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load(label, src):
    """The sparseobs package of the source tree src, imported under the name
    sparseobs_<label>."""
    name = f"sparseobs_{label}"
    spec = importlib.util.spec_from_file_location(
        name, Path(src).resolve() / "sparseobs" / "__init__.py"
    )
    package = importlib.util.module_from_spec(spec)
    # registered first, so that the package's relative imports find it
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def main(doc, run):
    """The command line of the bench script whose docstring is doc: parse
    --tree LABEL=SRC and call run({label: the tree's package}) with this
    checkout's package first on sys.path."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": str(ROOT / "src")}
    run({label: load(label, src) for label, src in trees.items()})


def rounds(trees, count, items, measure):
    """{label: [[measure(package, item) for each item] for each round]} over
    count rounds of the trees {label: package}.  In a round each item runs
    on every tree back to back, and the order of the trees is reversed from
    one round to the next."""
    runs = {label: [[] for _ in range(count)] for label in trees}
    order = list(trees)
    for r in range(count):
        for item in items:
            for label in order:
                runs[label][r].append(measure(trees[label], item))
        order.reverse()
    return runs


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
