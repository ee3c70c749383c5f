"""Direct routes to the shot engine's serial and narrow-cohort replay.

:meth:`~repro.qcp.shots.ShotEngine.run` serves a warm seed range in
cohorts of :func:`~repro.qcp.tracecache.auto_batch_width`, and no
setting changes that.  Tests compare per-seed ``(last result per
qubit, total ns)`` pairs, the strongest thing to compare.
:func:`served` returns them for ``run``'s own schedule, for the serial
loop and for cohorts of any width; :func:`expand` turns what
:meth:`~repro.qcp.tracecache.TraceCache.replay_batch` returns, lane
groups and the lanes it handed back, into them; :func:`histogram`
renders such a list as the :class:`~repro.qcp.shots.ShotResult`
``run`` would return.
"""

from __future__ import annotations

from collections import Counter

from repro.qcp.shots import (ShardOutcomes, ShotResult,
                             merge_shard_outcomes, outcome_key)


def expand(seeds, replayed) -> list:
    """``replay_batch(qpu, seeds)``'s ``(groups, left)`` per seed.

    Each lane of a group gets the delivered map its key encodes and
    the group's total; each lane handed back in ``left`` gets
    ``None``.  Asserts that every key's qubits are sorted, that the
    groups and ``left`` partition the lanes, and that ``left`` is in
    lane order with each lane's seed.
    """
    groups, left = replayed
    results: list = [None] * len(seeds)
    lanes_left = [handoff.lane for handoff in left]
    assert lanes_left == sorted(set(lanes_left)), lanes_left
    assert all(handoff.seed == seeds[handoff.lane] for handoff in left)
    covered = sum(1 << lane for lane in lanes_left)
    for lanes, (measured, bits), total_ns in groups:
        assert measured == tuple(sorted(set(measured))), measured
        assert lanes and not lanes & covered, "lane groups overlap"
        covered |= lanes
        delivered = {qubit: (bits >> index) & 1
                     for index, qubit in enumerate(measured)}
        for lane in range(len(seeds)):
            if (lanes >> lane) & 1:
                results[lane] = (delivered, total_ns)
    assert covered == (1 << len(seeds)) - 1, "lanes neither grouped nor left"
    return results


def _run_per_seed(engine, seeds) -> list:
    """Each seed's result as one ``run_range`` over ``seeds`` serves it.

    The engine's own schedule runs unchanged; its ``run_shot`` and
    ``run_handoff`` and its cache's ``replay_batch`` are wrapped for
    the call to record what each seed got, and each seed must be
    served exactly once.  The shard ``run_range`` returns must be
    those results' histogram.
    """
    seeds = list(seeds)
    start = seeds[0]
    assert seeds == list(range(start, start + len(seeds))), \
        "run serves a contiguous seed range"
    per_seed: dict = {}
    patched = []

    def patch(owner, name, wrapper) -> None:
        patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, wrapper)

    run_shot = engine.run_shot

    def shot(seed):
        assert seed not in per_seed, seed
        per_seed[seed] = result = run_shot(seed)
        return result

    patch(engine, "run_shot", shot)
    run_handoff = engine.run_handoff

    def handoff(handed):
        assert handed.seed not in per_seed, handed.seed
        per_seed[handed.seed] = result = run_handoff(handed)
        return result

    patch(engine, "run_handoff", handoff)
    cache = engine.trace_cache
    if cache is not None:
        replay_batch = cache.replay_batch

        def batch(qpu, chunk):
            replayed = replay_batch(qpu, chunk)
            for seed, result in zip(chunk, expand(chunk, replayed)):
                if result is not None:
                    assert seed not in per_seed, seed
                    per_seed[seed] = result
            return replayed

        patch(cache, "replay_batch", batch)
    try:
        shard = engine.run_range(start, start + len(seeds))
    finally:
        for owner, name, saved in reversed(patched):
            if saved is None:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)
    results = [per_seed[seed] for seed in seeds]
    assert shard.counts == Counter(outcome_key(last_value)
                                   for last_value, _ in results)
    assert shard.total_ns == sum(shot_ns for _, shot_ns in results)
    return results


def served(engine, seeds, how="run") -> list:
    """Each seed's result, served ``how``.

    * ``"run"``: as :meth:`~repro.qcp.shots.ShotEngine.run` serves
      them, through one ``run_range`` (:func:`_run_per_seed`);
    * ``"serial"``: one :meth:`~repro.qcp.shots.ShotEngine.run_shot`
      per seed — the serial sign loop on a stabilizer engine, a cohort
      of one on a dense one;
    * a cohort width: the first seed alone on a cold trie, the rest
      in cohorts of that width through
      :meth:`~repro.qcp.tracecache.TraceCache.replay_batch`, and a
      shot its cohort hands back through
      :meth:`~repro.qcp.shots.ShotEngine.run_handoff`, in lane order —
      what ``run`` does at its own width once its cohorts are full.
    """
    if how == "run":
        return _run_per_seed(engine, seeds)
    if how == "serial":
        return [engine.run_shot(seed) for seed in seeds]
    seeds = list(seeds)
    root = engine.trace_cache.root
    results = ([engine.run_shot(seeds[0])]
               if root is None or root.items is None else [])
    for start in range(len(results), len(seeds), how):
        chunk = seeds[start:start + how]
        replayed = engine.trace_cache.replay_batch(engine._qpu, chunk)
        cohort = expand(chunk, replayed)
        for handoff in replayed[1]:
            cohort[handoff.lane] = engine.run_handoff(handoff)
        results.extend(cohort)
    return results


def histogram(results) -> ShotResult:
    """The histogram of per-seed results, as ``run`` renders it."""
    shard = ShardOutcomes(start=0, stop=len(results))
    for last_value, shot_ns in results:
        shard.counts[outcome_key(last_value)] += 1
        shard.total_ns += shot_ns
    return merge_shard_outcomes([shard])
