"""Check that a git revision and the working tree write the same bytes.

    python tests/same_bytes.py REV     # e.g. HEAD~1 or a commit id

The script extracts REV with `git archive` into a temporary directory and
builds the inputs of the benchmark's three workloads (golden, paper and
long_history) at one seed with bench/run.py's own generators, imported
from the working tree; nothing under bench/ is copied or edited. It runs
each workload's `riskboot estimate` command (Workload.argv) at 1 and 2
workers once from REV's src/ and once from the working tree's, and prints
`identical` or `differs` per workload, worker count and output file. A
file that only one tree writes, or a run that exits non-zero, differs.
Exits 0 only when every file is identical, 1 otherwise and 2 on a usage
error. Needs git and numpy; not collected by pytest.
"""

import dataclasses
import filecmp
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 11  # the golden tables' master seed
WORKERS = (1, 2)


def load_bench():
    """bench/run.py as a module, registered so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def extract(rev, into):
    """Write the tree of rev into the directory into."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def estimate(bench, src, argv, cwd):
    """Run riskboot estimate from the src directory; its exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", bench.ENTRY, *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def files(directory):
    """The paths of every file under directory, relative to it."""
    return {p.relative_to(directory) for p in directory.rglob("*") if p.is_file()}


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/same_bytes.py REV", file=sys.stderr)
        return 2
    bench, same = load_bench(), True
    with tempfile.TemporaryDirectory(prefix="riskboot-same-bytes-") as tmp:
        tmp = Path(tmp)
        try:
            extract(argv[0], tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"git archive {argv[0]} failed: {exc.stderr.decode(errors='replace')}",
                  file=sys.stderr)
            return 2
        trees = {"rev": tmp / "rev" / "src", "tree": ROOT / "src"}
        for name, workload in bench.WORKLOADS.items():
            scratch = tmp / f"inputs-{name}"
            scratch.mkdir()
            in_dir, inputs = workload.make_inputs(SEED, scratch)
            for workers in WORKERS:
                one = dataclasses.replace(workload, workers=workers)
                outs = {}
                for tree, src in trees.items():
                    outs[tree] = tmp / f"out-{name}-{workers}-{tree}"
                    code = estimate(bench, src, one.argv(inputs, SEED, outs[tree]), in_dir)
                    if code != 0:
                        print(f"{name} workers={workers}: the {tree} run exited {code}")
                        same = False
                for path in sorted(files(outs["rev"]) | files(outs["tree"])):
                    a, b = outs["rev"] / path, outs["tree"] / path
                    ok = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
                    print(f"{name} workers={workers} {path}: {'identical' if ok else 'differs'}")
                    same = same and ok
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
