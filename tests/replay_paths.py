"""Direct routes to the shot engine's serial and narrow-cohort replay.

:meth:`~repro.qcp.shots.ShotEngine.run` serves a warm seed range in
cohorts of :func:`~repro.qcp.tracecache.auto_batch_width`, and no
setting changes that.  Tests that pin the other serving paths reach
them through :func:`served`, which returns per-seed ``(last result per
qubit, total ns)`` pairs, the strongest thing to compare;
:func:`histogram` renders such a list as the
:class:`~repro.qcp.shots.ShotResult` ``run`` would return.
"""

from __future__ import annotations

from repro.qcp.shots import ShardOutcomes, ShotResult, merge_shard_outcomes


def served(engine, seeds, how="run") -> list:
    """Each seed's result, served ``how``.

    * ``"run"``: as :meth:`~repro.qcp.shots.ShotEngine.run` serves
      them;
    * ``"serial"``: one :meth:`~repro.qcp.shots.ShotEngine.run_shot`
      per seed — the serial sign loop on a stabilizer engine, a cohort
      of one on a dense one;
    * a cohort width: the first seed alone on a cold trie, the rest
      in cohorts of that width through
      :meth:`~repro.qcp.tracecache.TraceCache.replay_batch`, and a
      shot its cohort hands back alone — what ``run`` does at its own
      width once its cohorts are full.
    """
    if how == "run":
        return list(engine._run_seeds(seeds))
    if how == "serial":
        return [engine.run_shot(seed) for seed in seeds]
    seeds = list(seeds)
    root = engine.trace_cache.root
    results = ([engine.run_shot(seeds[0])]
               if root is None or root.items is None else [])
    for start in range(len(results), len(seeds), how):
        chunk = seeds[start:start + how]
        replayed = engine.trace_cache.replay_batch(engine._qpu, chunk)
        results.extend(result if result is not None
                       else engine.run_shot(seed)
                       for seed, result in zip(chunk, replayed))
    return results


def histogram(results) -> ShotResult:
    """The histogram of per-seed results, as ``run`` renders it."""
    shard = ShardOutcomes(start=0, stop=len(results))
    for last_value, shot_ns in results:
        shard.counts[tuple(sorted(last_value.items()))] += 1
        shard.total_ns += shot_ns
    return merge_shard_outcomes([shard])
