"""Mutation checks: each mutant is one exact edit of a package source file,
and the named test files must fail on it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py sigma cli  # only mutants whose name holds a word given

The script copies src/, tests/ and pyproject.toml into a temporary
directory and runs `python -m pytest -q -x` from there. pytest's
`pythonpath = ["src"]` goes ahead of PYTHONPATH, so the copy has to carry
its own pyproject.toml for the copy's src, not the repository's, to be
imported. An unmutated control run of every named test file comes first
and must pass. Then each mutant is applied to the copy alone, its test
files run, and the file is restored: the mutant is killed when pytest
fails. Exits 0 when the control passes and every mutant is killed, and 1
when the control fails, a mutant survives or a mutant's old text no longer
occurs exactly once in its file. The script itself needs the standard
library alone; the tests it runs need pytest and numpy. A mutant names
test files, or single tests as pytest ids, under tests/.
The whole list of 46 took 225 s on a 2-vCPU x86-64 host, 28 s of it the
control run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/riskboot, exact old text, new text, test files or ids that must fail)
MUTANTS = [
    ("sigma rule loosened to any finite number", "synthetic.py",
     '"sigma": lambda x: _check_real(x, "sigma", above=0.0)',
     '"sigma": lambda x: _check_real(x, "sigma")',
     ["test_synthetic.py"]),
    ("a bool accepted as a number", "measures.py",
     "ok = (not isinstance(value, bool) and math.isfinite(value)",
     "ok = (math.isfinite(value)",
     ["test_synthetic.py"]),
    ("an infinite number accepted as finite", "measures.py",
     "and math.isfinite(value)", "and not math.isnan(value)",
     ["test_synthetic.py"]),
    ("oracle divides by k unchecked", "synthetic.py",
     "    k = _check_aversion(k)\n", "",
     ["test_synthetic.py"]),
    ("synth stops at the first bad family flag", "cli.py",
     '            _check_with(f"--{name}", _FIELD_RULES[name], value, problems)',
     '            problems or _check_with(f"--{name}", _FIELD_RULES[name], value, problems)',
     ["test_cli.py"]),
    ("an empty list flag passes unreported", "cli.py",
     '        problems.append(f"{flag}: no usable values in {text!r}")', "        pass",
     ["test_cli.py"]),
    ("validate --n unchecked beyond its floor", "cli.py",
     '        _check_with("--n", _check_n, args.n, problems)\n', "        pass\n",
     ["test_cli.py"]),
    ("configuration error exits 1", "cli.py",
     '            print(f"config error: {problem}", file=sys.stderr)\n        return 2',
     '            print(f"config error: {problem}", file=sys.stderr)\n        return 1',
     ["test_cli.py"]),
    ("no BLAS thread cap on the command line", "cli.py",
     '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")', "    pass",
     ["test_bootstrap.py"]),
    ("BLAS cap overrides the caller's setting", "cli.py",
     'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
     'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
     ["test_bootstrap.py"]),
    ("tail columns stored unreversed", "bootstrap.py",
     "idx[:, depth - stop:depth - top] = s[::-1].T", "idx[:, depth - stop:depth - top] = s.T",
     ["test_bootstrap.py"]),
    ("the summary hands a gather's samples back reversed", "bootstrap.py",
     "self.results += (out[j:j + k] for j in range(0, cells, k))",
     "self.results += [out[j:j + k] for j in range(0, cells, k)][::-1]",
     ["test_bootstrap.py"]),
    ("results returned in length order", "bootstrap.py",
     "return [next(finished[group[0].n]) for group in groups for _ in group]",
     "return [r for length in lengths for r in finished[length.n]]",
     ["test_bootstrap.py"]),
    ("tail path taken at the cut-off itself", "bootstrap.py",
     "None if depth > _TAIL_SHARE * n else depth", "None if depth >= _TAIL_SHARE * n else depth",
     ["test_bootstrap.py"]),
    ("a gather's estimates kept after it is summarized", "bootstrap.py",
     "                    out = [exc] * cells\n            self._estimates[i] = None\n",
     "                    out = [exc] * cells\n",
     ["test_bootstrap.py"]),
    ("one worker starts a thread", "bootstrap.py",
     "range(min(workers, len(blocks)) - 1)", "range(min(workers, len(blocks)))",
     ["test_bootstrap.py"]),
    ("SRM weights at 1.05 times the aversion", "bootstrap.py",
     "spectral_weights(n, k) for k in args", "spectral_weights(n, 1.05 * k) for k in args",
     ["test_bootstrap.py"]),
    ("the SE scaled by 1.02", "bootstrap.py",
     "errors += estimates[r:r + step].std(axis=1, ddof=1).tolist()",
     "errors += (1.02 * estimates[r:r + step].std(axis=1, ddof=1)).tolist()",
     ["test_bootstrap.py"]),
    ("a degenerate cell's interval is not (1, 1)", "bootstrap.py",
     "ci = (1.0, 1.0)", "ci = (math.nan, math.nan)",
     ["test_bootstrap.py"]),
    ("a zero point's interval divided out", "bootstrap.py",
     "if point == 0.0:", "if point is None:",
     ["test_report.py"]),
    ("fewer dates than values let through", "ingest.py",
     "if dates.shape != (size,):", "if dates.shape[0] > size:",
     ["test_ingest.py"]),
    ("the low end's SRM weights unreversed", "measures.py",
     "stack = np.concatenate([args[:, ::-1] if mirrored else args for mirrored in ends])",
     "stack = np.concatenate([args for mirrored in ends])",
     ["test_bootstrap.py"]),
    ("a mirrored SRM cell left unnegated", "measures.py",
     'return np.einsum("ij,kj->ik", both, reads)[:rows.shape[0]] * signs',
     'return np.einsum("ij,kj->ik", both, reads)[:rows.shape[0]]',
     ["test_measures.py"]),
    ("every block writes at the first block's columns", "bootstrap.py",
     "at = slice(first + done, first + done + idx.shape[0])", "at = slice(done, done + idx.shape[0])",
     ["test_bootstrap.py"]),
    ("the interval tails moved by 1.5 times", "bootstrap.py",
     "tail = (1.0 - config.ci_coverage) / 2.0", "tail = 1.5 * (1.0 - config.ci_coverage) / 2.0",
     ["test_bootstrap.py"]),
    ("a date cell read without its match-end test", "ingest.py",
     "if found is None or found.end() != len(texts[0]) or not joined.isascii():",
     "if found is None or not joined.isascii():",
     ["test_ingest.py"]),
    ("no CRLF replace on the column-wise read", "ingest.py",
     'chunk = chunk.replace(b"\\r\\n", b"\\n")', "chunk = chunk",
     ["test_ingest.py"]),
    ("NaT let through as a date", "ingest.py",
     "if np.any(np.isnat(dates)) or not np.all(", "if not np.all(",
     ["test_ingest.py"]),
    ("any container taken as dates", "ingest.py",
     """    if not (isinstance(dates, np.ndarray) and dates.dtype == "datetime64[D]"):
        if not isinstance(dates, (list, tuple)) or not all(type(d) is date for d in dates):
            raise ValueError("dates must be a datetime64[D] array or a sequence of datetime.date")
        dates = np.array(dates, "datetime64[D]")
""", """    dates = np.asarray(dates, "datetime64[D]")
""",
     ["test_ingest.py"]),
    ("the chunk budget back at 4 MiB", "bootstrap.py",
     "_CHUNK_BYTES = 2 ** 20", "_CHUNK_BYTES = 4 * 2 ** 20",
     ["test_bootstrap.py"]),
    ("whole-row chunks of one row where two do not fit", "bootstrap.py",
     "max(_CHUNK_BYTES // (12 * n), 2)", "max(_CHUNK_BYTES // (12 * n), 1)",
     ["test_bootstrap.py"]),
    ("a lone row read once by einsum", "measures.py",
     "if rows.shape[0] == 1 else rows", "if False else rows",
     ["test_bootstrap.py"]),
    ("a mirrored end reads column n - first", "measures.py",
     "n - 1 - first if mirrored", "n - first if mirrored",
     ["test_measures.py"]),
    ("interpolation at a level whose first column is the last", "measures.py",
     "i = np.flatnonzero(first < n - 1)", "i = np.flatnonzero(first < n)",
     ["test_measures.py"]),
    ("every ES level divided by the first level's count", "measures.py",
     "signs * (n - first), None", "signs * (n - first[0]), None",
     ["test_measures.py"]),
    ("numpy's dispatched log for the returns", "ingest.py",
     "r = np.fromiter(map(math.log, ratios.tolist()), float, count=ratios.size)",
     "r = np.log(ratios)",
     ["test_ingest.py::TestLogReturns::test_returns_are_libm_log_whatever_numpy_log_gives"]),
    ("the low end's plan built unmirrored", "bootstrap.py",
     "_plan(m, args, n, config.quantile_method, self._width, ends)",
     "_plan(m, args, n, config.quantile_method, self._width, (False,) * len(ends))",
     ["test_bootstrap.py"]),
    ("both SRM signs set to +1", "measures.py",
     "        return measure, stack, signs, None", "        return measure, stack, abs(signs), None",
     ["test_bootstrap.py"]),
    ("the ES divisor taken from the other end's level", "measures.py",
     "signs * (n - first), None", "np.roll(signs * (n - first), len(args)), None",
     ["test_bootstrap.py"]),
    ("the summary's std with ddof=0", "bootstrap.py",
     ".std(axis=1, ddof=1)", ".std(axis=1, ddof=0)",
     ["test_bootstrap.py"]),
    ("the interval read from unsorted rows", "bootstrap.py",
     "    estimates.sort(axis=1)\n", "",
     ["test_bootstrap.py"]),
    ("a tail pair's gathers sharing one failure", "bootstrap.py",
     "                    self._failed[i] = block, exc",
     "                    self._failed[i] = self._failed[i ^ 1] = block, exc",
     ["test_bootstrap.py"]),
    ("batches that assume Measure order", "bootstrap.py",
     "for m, run in itertools.groupby(specs, lambda spec: spec.measure):",
     "for m, run in ((m, [s for s in specs if s.measure is m]) for m in Measure\n"
     "                       if any(s.measure is m for s in specs)):",
     ["test_bootstrap.py"]),
    ("a gather's error taken from the last block to fail it", "bootstrap.py",
     "if exc is not None and block < self._failed[i][0]:", "if exc is not None:",
     ["test_bootstrap.py"]),
    ("a countdown that is off by one", "bootstrap.py",
     "            if self._left:\n", "            if self._left > 1:\n",
     ["test_bootstrap.py"]),
    ("the freeze dropped", "cli.py",
     "    gc.freeze()\n", "",
     ["test_bootstrap.py::TestStartUp"]),
]


def run_pytest(copy, test_files):
    """Whether pytest passes on test_files in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(f"tests/{name}" for name in test_files)],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(words):
    mutants = [m for m in MUTANTS if not words or any(w in m[0] for w in words)]
    ok = True
    with tempfile.TemporaryDirectory(prefix="riskboot-mutants-") as copy:
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", Path(copy) / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", Path(copy) / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)

        control = sorted({name for *_, test_files in mutants for name in test_files})
        start = time.perf_counter()
        if not run_pytest(copy, control):
            print(f"control FAILED: {' '.join(control)} fail unmutated")
            return 1
        print(f"control passed: {' '.join(control)} ({time.perf_counter() - start:.1f} s)")

        for name, file, old, new, test_files in mutants:
            path = Path(copy) / "src" / "riskboot" / file
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print(f"STALE     {name}: its old text occurs {source.count(old)} times in {file}")
                ok = False
                continue
            start = time.perf_counter()
            path.write_text(source.replace(old, new), encoding="utf-8")
            try:
                survived = run_pytest(copy, test_files)
            finally:
                path.write_text(source, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'killed  '}  {name} "
                  f"({file}; {', '.join(test_files)}; {time.perf_counter() - start:.1f} s)")
            ok = ok and not survived
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
