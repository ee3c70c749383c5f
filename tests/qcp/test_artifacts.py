"""Persistent artifact cache: warm starts, fail-closed invalidation.

The contract under test (see :mod:`repro.qcp.artifacts`): a warm
engine built against a populated artifact directory replays
bit-identically to a cold compile — and *anything* wrong with an
artifact (corruption, truncation, schema bumps, key mismatches,
unknown fields, concurrent-writer leftovers) silently degrades to the
cold compile, never to a wrong answer.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.benchlib.steane import (N_QUBITS as STEANE_QUBITS,
                                   build_shor_syndrome_program)
from repro.isa.builder import ProgramBuilder
from repro.qcp import ShotEngine, scalar_config
from repro.qcp import artifacts as artifacts_mod
from repro.qcp.artifacts import (ARTIFACT_SUFFIX, ArtifactCache,
                                 artifact_fingerprint, cache_key)
from repro.qcp.tracecache import _I_CLS, _I_FMR, _S_CLS, _S_FMR
from repro.qpu.noise import NoiseModel, PauliChannel, ReadoutError

N_QUBITS = 3
SHOTS = 20


def build_program(name: str = "artifact"):
    """Gates + a data-dependent branch + an MRCE conditional."""
    builder = ProgramBuilder(name)
    for qubit in range(N_QUBITS):
        builder.qop("h", [qubit], timing=2)
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    skip = builder.fresh_label("skip")
    builder.beq(1, 0, skip)
    builder.qop("x", [1], timing=2)
    builder.label(skip)
    builder.qmeas(1, timing=2)
    builder.mrce(1, 2, op_if_zero="i", op_if_one="x")
    for qubit in range(N_QUBITS):
        builder.qmeas(qubit, timing=4)
    builder.halt()
    return builder.build()


def pauli_noise() -> NoiseModel:
    return NoiseModel(pauli=PauliChannel(px=0.03, py=0.01, pz=0.02),
                      readout=ReadoutError(p0_given_1=0.06,
                                           p1_given_0=0.04))


def shor_program():
    """The paper's Shor syndrome benchmark, one round, six cores."""
    return build_shor_syndrome_program(rounds=1)


def make_engine(tmp_path, backend="stabilizer", noise=None, program=None,
                n_qubits=N_QUBITS, n_processors=1, **config_changes):
    config = scalar_config(artifact_cache_dir=str(tmp_path),
                           **config_changes)
    return ShotEngine(program if program is not None else build_program(),
                      config=config, backend=backend, n_qubits=n_qubits,
                      n_processors=n_processors, noise=noise)


def artifact_file(tmp_path) -> str:
    files = [name for name in os.listdir(tmp_path)
             if name.endswith(ARTIFACT_SUFFIX)]
    assert len(files) == 1, files
    return os.path.join(tmp_path, files[0])


def populate(tmp_path, **kwargs):
    """Cold engine: run, save an artifact, return its result."""
    engine = make_engine(tmp_path, **kwargs)
    result = engine.run(SHOTS)
    assert engine.artifacts is not None
    assert engine.artifacts.saves >= 1
    return result


def assert_cold_but_correct(tmp_path, reference, **kwargs):
    """The warm-start attempt must reject the artifact and still agree."""
    engine = make_engine(tmp_path, **kwargs)
    assert engine.artifacts is not None
    assert engine.artifacts.warm_loads == 0
    assert engine.artifacts.invalidations >= 1
    assert engine.trace_cache.root is None  # genuinely cold
    result = engine.run(SHOTS)
    assert result.counts == reference.counts
    assert result.total_ns == reference.total_ns


# -- the happy path -------------------------------------------------------

@pytest.mark.parametrize("backend,noise_factory,program_factory", [
    pytest.param("stabilizer", None, build_program, id="stabilizer-None"),
    pytest.param("statevector", None, build_program,
                 id="statevector-None"),
    pytest.param("stabilizer", pauli_noise, build_program,
                 id="stabilizer-pauli_noise"),
    pytest.param("statevector", pauli_noise, build_program,
                 id="statevector-pauli_noise"),
    pytest.param("stabilizer", None, shor_program, id="stabilizer-shor"),
])
def test_warm_start_bit_identical(tmp_path, backend, noise_factory,
                                  program_factory):
    noise = noise_factory() if noise_factory else None
    shape = ({"n_qubits": STEANE_QUBITS, "n_processors": 6}
             if program_factory is shor_program else {})
    reference = populate(tmp_path, backend=backend, noise=noise,
                         program=program_factory(), **shape)
    warm = make_engine(tmp_path, backend=backend,
                       noise=noise_factory() if noise_factory else None,
                       program=program_factory(), **shape)
    assert warm.artifacts.warm_loads == 1
    assert warm.trace_cache.root is not None
    # The persisted sign programs replay exactly the decision slice
    # of the live sets the load computed.
    codes = []
    stack = [warm.trace_cache.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        if node._program is None:
            continue
        replayed = [op for op in node._program
                    if op[0] in (_S_CLS, _S_FMR)]
        live = [item for item in node.live_items()
                if item[0] in (_I_CLS, _I_FMR)]
        assert [op[1:] for op in replayed] == [item[1:] for item in live]
        codes += [op[0] for op in replayed]
    if program_factory is shor_program:
        # Only the six verification fetches feed a branch.
        assert (codes.count(_S_CLS), codes.count(_S_FMR)) == (0, 6)
    result = warm.run(SHOTS)
    assert result.counts == reference.counts
    assert result.total_ns == reference.total_ns
    # every decision path was already cached: zero compiles happened
    assert warm.trace_cache.misses == 0


def test_warm_engine_does_not_rewrite_identical_artifact(tmp_path):
    populate(tmp_path)
    before = os.stat(artifact_file(tmp_path)).st_mtime_ns
    warm = make_engine(tmp_path)
    warm.run(SHOTS)
    assert warm.artifacts.saves == 0
    assert os.stat(artifact_file(tmp_path)).st_mtime_ns == before


def test_warm_start_across_trie_growth(tmp_path):
    """An artifact saved mid-exploration still loads; new paths record."""
    cold = make_engine(tmp_path)
    cold.run(3)  # explores only a few decision paths
    warm = make_engine(tmp_path)
    assert warm.artifacts.warm_loads == 1
    reference = ShotEngine(build_program(), config=scalar_config(),
                           backend="stabilizer", n_qubits=N_QUBITS)
    # Fresh seeds reach paths the 3-shot artifact never saw — the warm
    # engine records them on top of the loaded trie.
    warm_result = warm.run(SHOTS)
    reference_result = reference.run(SHOTS)
    assert warm_result.counts == reference_result.counts
    assert warm_result.total_ns == reference_result.total_ns
    # ...and publishes the grown trie back.
    assert warm.artifacts.saves >= 1


# -- fail-closed invalidation ---------------------------------------------

def test_missing_artifact_is_a_cold_compile(tmp_path):
    engine = make_engine(tmp_path)
    assert engine.artifacts.warm_loads == 0
    assert engine.artifacts.cold_compiles == 1
    assert engine.artifacts.invalidations == 0


def test_corrupt_byte_falls_back_cold(tmp_path):
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    assert_cold_but_correct(tmp_path, reference)


def test_truncated_file_falls_back_cold(tmp_path):
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    blob = open(path, "rb").read()
    for cut in (0, 3, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        assert_cold_but_correct(tmp_path, reference)


def test_zero_byte_artifact_falls_back_cold(tmp_path):
    """An interrupted writer can leave a 0-byte file; mmap refuses it."""
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    with open(path, "wb"):
        pass
    assert os.path.getsize(path) == 0
    assert_cold_but_correct(tmp_path, reference)


def test_directory_in_place_of_artifact_falls_back_cold(tmp_path):
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    os.unlink(path)
    os.mkdir(path)
    engine = make_engine(tmp_path)
    assert engine.artifacts.warm_loads == 0
    assert engine.trace_cache.root is None
    result = engine.run(SHOTS)
    assert result.counts == reference.counts
    assert result.total_ns == reference.total_ns
    # The save also degrades: os.replace cannot clobber a directory.
    assert engine.artifacts.saves == 0


def test_unwritable_cache_dir_degrades_silently(tmp_path, monkeypatch):
    """A read-only cache directory must never take the run down: the
    save returns False and every engine simply compiles cold."""
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(artifacts_mod.tempfile, "mkstemp", denied)
    engine = make_engine(tmp_path)
    reference = ShotEngine(build_program(), config=scalar_config(),
                           backend="stabilizer", n_qubits=N_QUBITS)
    result = engine.run(SHOTS)
    expected = reference.run(SHOTS)
    assert result.counts == expected.counts
    assert result.total_ns == expected.total_ns
    assert engine.artifacts.saves == 0
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root ignores directory permissions")
def test_chmod_readonly_cache_dir_degrades_silently(tmp_path):
    os.chmod(tmp_path, 0o500)
    try:
        engine = make_engine(tmp_path)
        engine.run(SHOTS)
        assert engine.artifacts.saves == 0
    finally:
        os.chmod(tmp_path, 0o700)


def test_schema_bump_falls_back_cold(tmp_path, monkeypatch):
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    # A future release bumps the schema: the old file must be both
    # unfindable (key includes the version) and, when renamed onto the
    # new key, rejected by the header check.
    monkeypatch.setattr(artifacts_mod, "ARTIFACT_SCHEMA_VERSION",
                    artifacts_mod.ARTIFACT_SCHEMA_VERSION + 1)
    probe = make_engine(tmp_path)
    assert probe.artifacts.key != os.path.basename(path)[:-len(
        ARTIFACT_SUFFIX)]
    os.replace(path, os.path.join(str(tmp_path),
                                  probe.artifacts.key + ARTIFACT_SUFFIX))
    assert_cold_but_correct(tmp_path, reference)


def test_fingerprint_mismatch_falls_back_cold(tmp_path):
    """A file renamed onto another identity's key is rejected."""
    reference = populate(tmp_path)  # scalar config
    path = artifact_file(tmp_path)
    other = make_engine(tmp_path, trace_cache_dense_fusion=False)
    assert other.artifacts.key != os.path.basename(path)[:-len(
        ARTIFACT_SUFFIX)]
    os.replace(path, os.path.join(str(tmp_path),
                                  other.artifacts.key + ARTIFACT_SUFFIX))
    assert_cold_but_correct(tmp_path, reference,
                            trace_cache_dense_fusion=False)


def test_unknown_meta_field_falls_back_cold(tmp_path):
    """Strict-key parsing: an extra field nobody understands rejects.

    The crafted file has a valid magic, header and checksum — only the
    unknown-key check can catch it, proving the parser is strict
    rather than permissive about fields it does not model.
    """
    reference = populate(tmp_path)
    path = artifact_file(tmp_path)
    fingerprint = populate_fingerprint(tmp_path)
    meta = {"mode": "signs", "masks": [0, 0, 0], "arrays": [],
            "nodes": [], "recency": [], "surprise": 1}
    with open(path, "wb") as handle:
        handle.write(artifacts_mod._assemble(fingerprint, meta, b""))
    assert_cold_but_correct(tmp_path, reference)


def populate_fingerprint(tmp_path):
    """The fingerprint of the identity :func:`populate` saved under."""
    engine = make_engine(tmp_path)
    return engine.artifacts.fingerprint


def test_leftover_tmp_files_are_ignored(tmp_path):
    """A writer that died mid-write leaves a .tmp no reader touches."""
    reference = populate(tmp_path)
    junk = os.path.join(str(tmp_path), ".deadbeef.tmp")
    with open(junk, "wb") as handle:
        handle.write(b"partial garbage")
    warm = make_engine(tmp_path)
    assert warm.artifacts.warm_loads == 1
    result = warm.run(SHOTS)
    assert result.counts == reference.counts
    assert result.total_ns == reference.total_ns


def test_concurrent_writer_race_last_wins(tmp_path):
    """Two engines saving the same key: both artifacts are valid, the
    atomic replace makes the last one win, and a reader always loads a
    complete file."""
    first = make_engine(tmp_path)
    second = make_engine(tmp_path)
    r_first = first.run(SHOTS)
    r_second = second.run(SHOTS)  # overwrites first's artifact
    assert r_first.counts == r_second.counts
    assert first.artifacts.saves >= 1 and second.artifacts.saves >= 1
    warm = make_engine(tmp_path)
    assert warm.artifacts.warm_loads == 1
    result = warm.run(SHOTS)
    assert result.counts == r_first.counts
    assert result.total_ns == r_first.total_ns


def test_max_nodes_bound_refuses_oversized_artifact(tmp_path):
    """A trie the live LRU bound would immediately evict stays on disk.

    Driven through ``load_into`` directly: in normal operation the
    node bound is part of the fingerprint, so a bounded engine never
    even finds an unbounded engine's artifact — this is the
    defense-in-depth check behind that.
    """
    populate(tmp_path)
    handle = ArtifactCache(str(tmp_path), populate_fingerprint(tmp_path))
    probe = ShotEngine(build_program(),
                       config=scalar_config(trace_cache_max_nodes=1),
                       backend="stabilizer", n_qubits=N_QUBITS)
    assert not handle.load_into(probe.trace_cache, probe.memory,
                                probe._qpu)
    assert probe.trace_cache.root is None


# -- fingerprinting -------------------------------------------------------

def test_fingerprint_excludes_artifact_knobs(tmp_path):
    program = build_program()
    config = scalar_config(artifact_cache_dir=str(tmp_path))
    other = config.with_(artifact_cache_dir=str(tmp_path / "elsewhere"),
                         artifact_cache_max_bytes=10 ** 9)
    engine = ShotEngine(program, config=config, backend="stabilizer",
                        n_qubits=N_QUBITS)
    base = artifact_fingerprint(program, config, "stabilizer",
                                engine._qpu.noise, 1, N_QUBITS,
                                engine.dependency_mode)
    moved = artifact_fingerprint(program, other, "stabilizer",
                                 engine._qpu.noise, 1, N_QUBITS,
                                 engine.dependency_mode)
    assert cache_key(base) == cache_key(moved)


def test_fingerprint_varies_with_identity(tmp_path):
    program = build_program()
    config = scalar_config(artifact_cache_dir=str(tmp_path))
    engine = ShotEngine(program, config=config, backend="stabilizer",
                        n_qubits=N_QUBITS)
    noise = engine._qpu.noise
    base = artifact_fingerprint(program, config, "stabilizer", noise,
                                1, N_QUBITS, engine.dependency_mode)
    other_program = build_program("other")
    builder = ProgramBuilder("structurally-different")
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=4)
    builder.halt()
    different = builder.build()
    # The program hash covers the instruction stream, not the name.
    same = artifact_fingerprint(other_program, config, "stabilizer",
                                noise, 1, N_QUBITS,
                                engine.dependency_mode)
    assert cache_key(same) == cache_key(base)
    keys = {cache_key(base)}
    for variant in (
        artifact_fingerprint(different, config,
                             "stabilizer", noise, 1, N_QUBITS,
                             engine.dependency_mode),
        artifact_fingerprint(program, config, "statevector", noise,
                             1, N_QUBITS, engine.dependency_mode),
        artifact_fingerprint(program, config.with_(fetch_width=4,
                                                   buffer_capacity=8),
                             "stabilizer", noise, 1, N_QUBITS,
                             engine.dependency_mode),
        artifact_fingerprint(program, config, "stabilizer",
                             pauli_noise(), 1, N_QUBITS,
                             engine.dependency_mode),
        artifact_fingerprint(program, config, "stabilizer", noise,
                             1, N_QUBITS + 1, engine.dependency_mode),
    ):
        assert variant is not None
        keys.add(cache_key(variant))
    assert len(keys) == 6  # all distinct


def test_unfingerprintable_noise_disables_caching(tmp_path):
    class ExoticChannel:
        pass

    program = build_program()
    config = scalar_config(artifact_cache_dir=str(tmp_path))
    engine = ShotEngine(program, config=config, backend="stabilizer",
                        n_qubits=N_QUBITS)
    noise = engine._qpu.noise
    object.__setattr__(noise, "pauli", ExoticChannel())
    assert artifact_fingerprint(program, config, "stabilizer", noise,
                                1, N_QUBITS,
                                engine.dependency_mode) is None


# -- eviction sweep -------------------------------------------------------

def sweep_program(extra_gates: int):
    """Structurally distinct per ``extra_gates`` -> distinct cache key."""
    builder = ProgramBuilder(f"sweep{extra_gates}")
    for _ in range(extra_gates + 1):
        builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=4)
    builder.halt()
    return builder.build()


def test_eviction_sweep_keeps_newest(tmp_path):
    import time

    # Three distinct programs -> three artifacts in one directory.
    sizes = {}
    for index in range(3):
        engine = make_engine(tmp_path, program=sweep_program(index))
        engine.run(SHOTS)
        path = max((os.path.join(tmp_path, n) for n in
                    os.listdir(tmp_path) if n.endswith(ARTIFACT_SUFFIX)),
                   key=lambda p: os.stat(p).st_mtime_ns)
        sizes[index] = os.stat(path).st_size
        time.sleep(0.01)  # distinct mtime stamps
    files = [n for n in os.listdir(tmp_path)
             if n.endswith(ARTIFACT_SUFFIX)]
    assert len(files) == 3
    # A bound that fits roughly one artifact: the sweep after the next
    # save must evict the two oldest and keep the newest.
    bound = max(sizes.values()) + 1
    engine = make_engine(tmp_path, program=sweep_program(3),
                         artifact_cache_max_bytes=bound)
    engine.run(SHOTS)
    survivors = [n for n in os.listdir(tmp_path)
                 if n.endswith(ARTIFACT_SUFFIX)]
    assert engine.artifacts.evicted_files >= 2
    assert engine.artifacts.path in [
        os.path.join(str(tmp_path), n) for n in survivors]
    assert engine.artifacts.bytes_on_disk <= bound \
        or len(survivors) == 1


def test_sweep_never_deletes_the_only_artifact(tmp_path):
    engine = make_engine(tmp_path, artifact_cache_max_bytes=1)
    engine.run(SHOTS)
    assert len([n for n in os.listdir(tmp_path)
                if n.endswith(ARTIFACT_SUFFIX)]) == 1
    warm = make_engine(tmp_path, artifact_cache_max_bytes=1)
    assert warm.artifacts.warm_loads == 1


# -- config validation ----------------------------------------------------

def test_config_rejects_nonpositive_artifact_bound():
    with pytest.raises(ValueError):
        scalar_config(artifact_cache_max_bytes=0)
