"""Run the riskboot CLI with spans around the calls it makes into each layer.

Usage:

    python3 bench/tracer.py SPANS_JSON [riskboot arguments ...]

The program's own source is not touched. This script times `import
riskboot`, replaces the public functions that `riskboot.cli` and
`riskboot.bootstrap.run_grid` look up in their module namespaces with
timing wrappers, calls `riskboot.cli.main` with the given arguments and
writes every span to SPANS_JSON when main returns. It exits with main's
exit code, so a traced run is checked exactly like an untraced one.

A span is [name, thread id, start, end, rows]: times are
`time.perf_counter()` seconds, and rows is the length of the series a
loader returned (null for other spans). A function that no longer exists
in its module is simply not traced, so its spans are missing, not fatal.
`run_grid` also runs under tracemalloc, whose peak is written as
peak_alloc_bytes.
"""

import json
import sys
import threading
import time
import tracemalloc

# (module attribute of riskboot, function names looked up there)
_TRACED = (
    ("cli", ("load_returns", "load_prices", "log_returns", "drop_zero_returns",
             "summary_stats", "to_losses", "run_grid", "build_summary_table",
             "build_measure_table", "to_csv", "to_text", "to_kv")),
    ("bootstrap", ("bootstrap_estimate", "cell_stream")),
)
_LOADERS = ("load_returns", "load_prices")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import riskboot
    import_s = time.perf_counter() - start
    import riskboot.cli

    spans = []  # list.append is atomic, so worker threads share it safely
    peak = {"bytes": 0}

    def wrap(module, name):
        original = getattr(module, name, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            rows = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if name in _LOADERS:
                    rows = int(result.n)
                return result
            finally:
                spans.append([name, threading.get_ident(), t0, time.perf_counter(), rows])

        if name == "run_grid":
            def traced_grid(*args, **kwargs):
                tracemalloc.start()
                try:
                    return traced(*args, **kwargs)
                finally:
                    peak["bytes"] = max(peak["bytes"], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            setattr(module, name, traced_grid)
        else:
            setattr(module, name, traced)

    for module_name, names in _TRACED:
        module = getattr(riskboot, module_name)
        for name in names:
            wrap(module, name)

    t0 = time.perf_counter()
    code = 1
    try:
        code = riskboot.cli.main(argv)
    finally:
        spans.append(["main", threading.get_ident(), t0, time.perf_counter(), None])
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "peak_alloc_bytes": peak["bytes"],
                       "spans": spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
