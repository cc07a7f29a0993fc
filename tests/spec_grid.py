"""An executable specification of riskboot's run_grid: the bootstrap
protocol as one plain function, with no chunks, buffers, plans or threads.

spec_grid(samples, grid, config) gives, per sample, one BootstrapResult
per spec, in run_grid's order, and a test requires each to equal the
run_grid cell bit for bit. It uses only the leaf functions, each of which
has oracles of its own: _contract_stream, _tail_indices, _first_column,
_evaluate_sorted, spectral_weights and _summarize. It reads the block
sizes from the bootstrap module when called, so a test that patches them
patches the specification too.
"""

import numpy as np

from riskboot import bootstrap
from riskboot.bootstrap import _contract_stream, _summarize, _tail_indices
from riskboot.measures import Measure, Position, _evaluate_sorted, _first_column, spectral_weights


def spec_grid(samples, grid, config):
    method, specs = config.quantile_method, [(m, p) for m in Measure if m in grid for p in grid[m]]
    contracts = []  # sample indices: a sample with the next one if that is its mirror, else alone
    for i, s in enumerate(samples):
        lead = samples[contracts[-1][0]] if contracts else None
        if (lead is not None and len(contracts[-1]) == 1 and lead.position is not s.position
                and np.array_equal(s.values, -lead.values[::-1])):
            contracts[-1].append(i)
        else:
            contracts.append([i])
    results = {}
    for n in dict.fromkeys(samples[c[0]].n for c in contracts):  # one length group per n
        depth = max(n - _first_column(m, p, n, method) for m, p in specs)
        tail = depth <= bootstrap._TAIL_SHARE * n  # the top depth order statistics, or whole rows
        rows = max((bootstrap._TAIL_BLOCK_ELEMS if tail else bootstrap._BLOCK_ELEMS) // n, 1)
        blocks = []
        for k, start in enumerate(range(0, config.resamples, rows)):
            stream, size = _contract_stream(config.master_seed, n, k), min(rows, config.resamples - start)
            blocks.append(_tail_indices(stream, n, depth, size) if tail else
                          np.sort(stream.integers(0, n, (size, n), dtype=np.int32), axis=1))
        for contract in (c for c in contracts if samples[c[0]].n == n):
            lead = samples[contract[0]]
            long = lead.values if lead.position is Position.LONG else -lead.values[::-1]
            for i in contract:
                # whole rows: the contract's long-oriented losses, a short cell through the
                # mirror, which reads its weights reversed; tail rows: the sample's own losses
                mirrored = samples[i].position is Position.SHORT and not tail
                losses = samples[i].values if tail else long
                args = [np.ascontiguousarray(spectral_weights(n, p)[None, ::-1 if mirrored else 1])
                        if m is Measure.SRM else [p] for m, p in specs]
                cells = [[_evaluate_sorted(losses[idx], m, a, method, n, mirrored)[:, 0]
                          for idx in blocks] for (m, _), a in zip(specs, args)]
                results[i] = [_summarize(np.concatenate(cell), config) for cell in cells]
    return [results[i] for i in range(len(samples))]
