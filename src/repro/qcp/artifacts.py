"""Persistent compiled-trace artifact cache: warm starts across processes.

Every process still pays full compile cost on start — sign-trace
programs and the recorded trie itself are rebuilt from scratch before
the first cached shot can replay.  This
module serializes a :class:`~repro.qcp.tracecache.TraceCache` to a
versioned on-disk artifact so a restarted engine, a fresh service
worker (including one built after a ``BrokenProcessPool`` rebuild), or
an entire fleet sharing one directory starts *warm*: first process
compiles, everyone else replays.

Key derivation
==============

One artifact file serves exactly one compiled-execution identity::

    key = sha256(canonical_json(fingerprint))

where the fingerprint covers the program (``to_asm()`` hash — the
instruction stream plus block structure), every :class:`QCPConfig`
field except the artifact-cache knobs themselves (they steer *where*
artifacts live, never what is computed), the resolved backend name,
the full noise-model profile (channel classes and parameters), the
processor count, the qubit count, the dependency mode and the artifact
schema version.  Anything the fingerprint cannot represent — an
unknown noise-channel type, say — makes the engine *non-cacheable*
rather than wrongly keyed (:func:`artifact_fingerprint` returns
``None`` and the engine simply stays cold).

On-disk format (schema 4)
=========================

::

    "QTAC" | u32 header_len | header JSON | meta JSON | pad | buffers | sha256

The header carries the schema version, the full key fingerprint and
the section lengths; the meta JSON describes the trie (nodes in
parent-before-child order, recorded items, decisions as decoded-pc
references, compiled sign-trace programs, LRU recency order); the
16-byte-aligned binary section holds the packed sign columns as flat
fixed-width little-endian buffers plus the ``numpy`` exit tableaux,
all of which are **mmap-ed on load** — masks and arrays are read
straight out of the mapping, never through Python file I/O.  The
trailing sha256 covers everything before it.  Dense (statevector)
tries store only their recorded items: their noise-site programs
recompile lazily on first replay, which costs closure compilation but
never a cycle-accurate shot.

Items are stored as recorded, every classical op included; the live
sets of the decision slice (see :mod:`repro.qcp.tracecache`) are not
stored but computed once per load.  A persisted sign-trace program was
compiled from its node's live set at save time, a superset of the one
the load computes, so it is kept.  Schema 4 is the first with sliced
programs: a schema-3 artifact, whose programs replay every classical
op, is rejected and recompiled once.

Fail-closed loading
===================

Loads follow the :attr:`NoiseModel.is_dense_compilable` philosophy:
*any* anomaly — key mismatch, schema bump, unknown field, checksum
failure, truncated file, out-of-range reference, a decoded pc that is
not the classical instruction the artifact claims — silently falls
back to a cold compile.  A load can therefore cost a recompile but
never a wrong answer; the differential fuzz suite asserts warm runs
bit-identical (histograms *and* ``total_ns``) to cold ones.

Cross-process safety
====================

Writers assemble the whole file in memory, write it to a private
temporary name and publish it with an atomic ``os.replace`` — readers
always map a complete, self-checksummed file, and the last concurrent
writer simply wins (both artifacts are valid by construction).  An
optional size bound triggers an eviction sweep after each save:
files are scored by modification stamp and the oldest are deleted
until the directory fits, mirroring the in-memory trie's
newest-stamp recency eviction.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.qcp.config import QCPConfig
from repro.qcp.decode import E_BRANCH, E_NONE, E_REG, K_CLASSICAL
from repro.qcp.tracecache import (TraceCache, TraceNode, _D_BRANCH,
                                  _D_MRCE, _I_CLS, _I_FMR, _I_MEAS,
                                  _I_OPS, _S_CLS, _S_FMR, _S_MEAS_D,
                                  _S_MEAS_R, _S_NOISE, _S_RESET_D,
                                  _S_RESET_R, _S_XOR, _seed_live)

#: Bumped whenever the on-disk layout changes; part of the key
#: fingerprint *and* checked against the header, so an old artifact is
#: both unfindable under the new key and rejected if renamed into place.
ARTIFACT_SCHEMA_VERSION = 4

ARTIFACT_MAGIC = b"QTAC"
ARTIFACT_SUFFIX = ".qta"

_CHECKSUM_BYTES = 32
_HEADER_KEYS = frozenset({"schema", "fingerprint", "meta_bytes",
                          "buffer_off", "buffer_bytes"})
_META_KEYS = frozenset({"mode", "masks", "arrays", "nodes", "recency"})
_NODE_KEYS = frozenset({"p", "e", "t", "i", "d", "s", "x"})

#: QCPConfig fields excluded from the fingerprint: they steer where
#: artifacts live and how large the directory may grow — never what a
#: shot computes.  ``device_profile`` is a *path*; the profile's
#: content is fingerprinted separately (renaming the file must not
#: change the key, editing one T1 must).
_CONFIG_FIELDS_EXCLUDED = frozenset({"artifact_cache_dir",
                                     "artifact_cache_max_bytes",
                                     "device_profile"})

#: Scalar JSON types a fingerprint (and a noise-channel parameter) may
#: contain.  Anything else fails closed: the engine is non-cacheable.
_SCALARS = (bool, int, float, str, type(None))


class _Invalid(Exception):
    """Internal: the artifact under inspection is unusable (any cause)."""


def _require(condition: bool) -> None:
    if not condition:
        raise _Invalid


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cache_key(fingerprint: dict) -> str:
    """The artifact file stem for a fingerprint."""
    return hashlib.sha256(_canonical(fingerprint).encode()).hexdigest()


def _jsonable(value):
    """``value`` as a JSON-safe structure, or raise :class:`_Invalid`.

    Accepts scalars and (nested) lists/tuples of scalars — the shapes
    noise-channel parameters take (e.g. ZZ coupling pairs).  Anything
    richer cannot be fingerprinted and must disable caching.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    raise _Invalid


def _noise_fingerprint(noise) -> dict:
    """Channel-by-channel identity of a :class:`NoiseModel`.

    Walks the dataclass fields (skipping the runtime ``rng``, which is
    reseeded per shot and carries no identity) and renders each
    enabled channel as its class name plus parameters.  A channel that
    is not a dataclass of scalar fields raises :class:`_Invalid` —
    fail closed, like the replay compilers' channel allow-lists.
    """
    profile: dict = {}
    for spec in dataclass_fields(noise):
        if spec.name == "rng":
            continue
        value = getattr(noise, spec.name)
        if value is None or isinstance(value, _SCALARS):
            profile[spec.name] = value
            continue
        try:
            channel_fields = dataclass_fields(value)
        except TypeError:
            raise _Invalid from None
        profile[spec.name] = {
            "__channel__": type(value).__name__,
            **{f.name: _jsonable(getattr(value, f.name))
               for f in channel_fields},
        }
    return profile


def artifact_fingerprint(program, config: QCPConfig, backend: str,
                         noise, n_processors: int, n_qubits: int,
                         dependency_mode, profile=None) -> dict | None:
    """The full cache-key fingerprint for one engine identity.

    Returns ``None`` when any component cannot be represented — the
    caller must then skip artifact caching entirely (a missing key is
    a cold compile; a wrong key would be a wrong answer).  ``profile``
    is an optional :class:`~repro.qpu.profile.DeviceProfile`; its
    *content* rendering enters the key (so two paths to the same
    calibration share artifacts and editing one T1 misses), while the
    config's ``device_profile`` path is excluded above.
    """
    try:
        config_profile = {
            spec.name: _jsonable(getattr(config, spec.name))
            for spec in dataclass_fields(config)
            if spec.name not in _CONFIG_FIELDS_EXCLUDED}
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "program_sha": hashlib.sha256(
                program.to_asm().encode()).hexdigest(),
            "config": config_profile,
            "backend": str(backend),
            "noise": _noise_fingerprint(noise),
            "n_processors": int(n_processors),
            "n_qubits": int(n_qubits),
            "dependency_mode": str(dependency_mode.value),
            "device_profile": (None if profile is None
                               else profile.canonical()),
        }
    except Exception:
        return None


# -- decoded-pc <-> closure mapping ---------------------------------------
#
# Recorded items and decisions carry compiled classical micro-op
# *closures* (see repro.qcp.decode).  Each decode of a non-trivial
# classical instruction creates a fresh closure, so closure identity
# maps 1:1 onto a decoded pc — which is the serializable name.  The
# shared E_NONE closures (nop/halt/jmp) are never recorded.

def _closure_pcs(memory) -> dict[int, int]:
    table: dict[int, int] = {}
    for pc, entry in enumerate(memory._decoded):
        if entry[0] == K_CLASSICAL and entry[2][2] != E_NONE:
            table[id(entry[2][0])] = pc
    return table


def _closure_at(memory, pc, eclass):
    """The micro-op closure at ``pc``; fails closed on any mismatch."""
    decoded = memory._decoded
    _require(isinstance(pc, int) and not isinstance(pc, bool))
    _require(0 <= pc < len(decoded))
    entry = decoded[pc]
    _require(entry[0] == K_CLASSICAL)
    _require(entry[2][2] == eclass)
    return entry[2][0]


def _int_field(value, minimum=None):
    _require(isinstance(value, int) and not isinstance(value, bool))
    if minimum is not None:
        _require(value >= minimum)
    return value


def _float_or_none(value):
    if value is None:
        return None
    _require(isinstance(value, (int, float)) and not isinstance(value, bool))
    return value


# -- binary section -------------------------------------------------------

class _BufferWriter:
    """Accumulates the 16-byte-aligned binary section of an artifact."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self.size = 0

    def add(self, data: bytes) -> tuple[int, int]:
        pad = (-self.size) % 16
        if pad:
            self._chunks.append(b"\x00" * pad)
            self.size += pad
        offset = self.size
        self._chunks.append(data)
        self.size += len(data)
        return offset, len(data)

    def add_array(self, array: np.ndarray, arrays: list) -> int:
        """Register a numpy array; returns its reference index."""
        data = np.ascontiguousarray(array).tobytes()
        offset, nbytes = self.add(data)
        arrays.append([offset, nbytes, array.dtype.name,
                       list(array.shape)])
        return len(arrays) - 1

    def render(self) -> bytes:
        return b"".join(self._chunks)


class _BufferReader:
    """Validated, zero-copy views into a mapped artifact's buffers."""

    def __init__(self, mm, buffer_off: int, buffer_bytes: int,
                 meta: dict, mask_bytes: int) -> None:
        self._mm = mm
        self._off = buffer_off
        self._bytes = buffer_bytes
        masks = meta["masks"]
        _require(isinstance(masks, list) and len(masks) == 3)
        self._mask_off = _int_field(masks[0], 0)
        mask_nbytes = _int_field(masks[1], 0)
        self._mask_slots = _int_field(masks[2], 0)
        self._mask_bytes = mask_bytes
        _require(mask_nbytes == self._mask_slots * mask_bytes)
        _require(self._mask_off + mask_nbytes <= buffer_bytes)
        arrays = meta["arrays"]
        _require(isinstance(arrays, list))
        self._arrays = arrays

    def mask(self, slot) -> int:
        _require(isinstance(slot, int) and not isinstance(slot, bool))
        _require(0 <= slot < self._mask_slots)
        start = self._off + self._mask_off + slot * self._mask_bytes
        return int.from_bytes(
            self._mm[start:start + self._mask_bytes], "little")

    def array(self, ref, dtype: str, ndim: int) -> np.ndarray:
        _require(isinstance(ref, int) and not isinstance(ref, bool))
        _require(0 <= ref < len(self._arrays))
        entry = self._arrays[ref]
        _require(isinstance(entry, list) and len(entry) == 4)
        offset = _int_field(entry[0], 0)
        nbytes = _int_field(entry[1], 0)
        _require(entry[2] == dtype)
        shape = entry[3]
        _require(isinstance(shape, list) and len(shape) == ndim)
        shape = tuple(_int_field(dim, 0) for dim in shape)
        np_dtype = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= dim
        _require(count * np_dtype.itemsize == nbytes)
        _require(offset + nbytes <= self._bytes)
        flat = np.frombuffer(self._mm, dtype=np_dtype, count=count,
                             offset=self._off + offset)
        return flat.reshape(shape)


# -- item / decision / program codecs -------------------------------------

def _encode_items(items: tuple, pcs: dict[int, int]) -> list:
    encoded = []
    for item in items:
        code = item[0]
        if code == _I_OPS:
            ops = [[kind, name, list(qubits), list(params)]
                   for kind, name, qubits, params in item[1]]
            encoded.append([_I_OPS, ops, list(item[2])])
        elif code == _I_MEAS:
            encoded.append([_I_MEAS, item[1], item[2]])
        elif code == _I_CLS:
            pc = pcs.get(id(item[2]))
            if pc is None:
                raise _Invalid
            encoded.append([_I_CLS, item[1], pc])
        else:  # _I_FMR
            encoded.append([_I_FMR, item[1], item[2], item[3]])
    return encoded


def _decode_items(encoded, memory) -> tuple:
    _require(isinstance(encoded, list))
    items = []
    for entry in encoded:
        _require(isinstance(entry, list) and entry)
        code = entry[0]
        if code == _I_OPS:
            _require(len(entry) == 3)
            raw_ops, raw_times = entry[1], entry[2]
            _require(isinstance(raw_ops, list)
                     and isinstance(raw_times, list))
            _require(len(raw_ops) == len(raw_times))
            ops = []
            for op in raw_ops:
                _require(isinstance(op, list) and len(op) == 4)
                kind, name, qubits, params = op
                _require(kind in ("gate", "reset"))
                _require(isinstance(name, str))
                _require(isinstance(qubits, list))
                _require(isinstance(params, list))
                ops.append((kind, name,
                            tuple(_int_field(q, 0) for q in qubits),
                            tuple(params)))
            times = tuple(_int_field(t) for t in raw_times)
            items.append((_I_OPS, tuple(ops), times))
        elif code == _I_MEAS:
            _require(len(entry) == 3)
            items.append((_I_MEAS, _int_field(entry[1], 0),
                          _int_field(entry[2])))
        elif code == _I_CLS:
            _require(len(entry) == 3)
            items.append((_I_CLS, _int_field(entry[1], 0),
                          _closure_at(memory, entry[2], E_REG)))
        elif code == _I_FMR:
            _require(len(entry) == 4)
            items.append((_I_FMR, _int_field(entry[1], 0),
                          _int_field(entry[2], 0),
                          _int_field(entry[3], 0)))
        else:
            raise _Invalid
    return tuple(items)


def _encode_decision(decision, pcs: dict[int, int]):
    if decision is None:
        return None
    if decision[0] == _D_BRANCH:
        pc = pcs.get(id(decision[2]))
        if pc is None:
            raise _Invalid
        return [_D_BRANCH, decision[1], pc]
    return [_D_MRCE, decision[1]]


def _decode_decision(encoded, memory):
    if encoded is None:
        return None
    _require(isinstance(encoded, list) and encoded)
    if encoded[0] == _D_BRANCH:
        _require(len(encoded) == 3)
        return (_D_BRANCH, _int_field(encoded[1], 0),
                _closure_at(memory, encoded[2], E_BRANCH))
    _require(encoded[0] == _D_MRCE and len(encoded) == 2)
    return (_D_MRCE, _int_field(encoded[1], 0))


def _encode_sign_program(program: list, pcs: dict[int, int],
                         masks: list, writer_masks=None) -> list:
    """Sign-trace ops with packed-integer masks as flat buffer slots."""

    def slot(mask: int) -> int:
        masks.append(mask)
        return len(masks) - 1

    encoded = []
    for op in program:
        code = op[0]
        if code == _S_XOR:
            encoded.append([_S_XOR, slot(op[1])])
        elif code == _S_MEAS_R:
            encoded.append([_S_MEAS_R, op[1], op[2], op[3],
                            slot(op[4]), slot(op[5])])
        elif code == _S_MEAS_D:
            encoded.append([_S_MEAS_D, op[1], slot(op[2]), op[3]])
        elif code == _S_RESET_R:
            encoded.append([_S_RESET_R, op[1], op[2], slot(op[3]),
                            slot(op[4]), slot(op[5])])
        elif code == _S_RESET_D:
            encoded.append([_S_RESET_D, slot(op[1]), op[2],
                            slot(op[3])])
        elif code == _S_CLS:
            pc = pcs.get(id(op[2]))
            if pc is None:
                raise _Invalid
            encoded.append([_S_CLS, op[1], pc])
        elif code == _S_FMR:
            encoded.append([_S_FMR, op[1], op[2], op[3]])
        elif code == _S_NOISE:
            qubit_masks = [[slot(m) for m in triple] for triple in op[2]]
            encoded.append([_S_NOISE, op[1], qubit_masks,
                            list(op[3]) if op[3] is not None else None])
        else:
            raise _Invalid
    return encoded


def _decode_sign_program(encoded, memory, buffers: _BufferReader,
                         rows: int) -> list:
    _require(isinstance(encoded, list))
    program = []
    for op in encoded:
        _require(isinstance(op, list) and op)
        code = op[0]
        if code == _S_XOR:
            _require(len(op) == 2)
            program.append((_S_XOR, buffers.mask(op[1])))
        elif code == _S_MEAS_R:
            _require(len(op) == 6)
            pivot = _int_field(op[2], 0)
            pm = _int_field(op[3], 0)
            _require(pivot < rows and pm < rows)
            program.append((_S_MEAS_R, _int_field(op[1], 0), pivot,
                            pm, buffers.mask(op[4]),
                            buffers.mask(op[5])))
        elif code == _S_MEAS_D:
            _require(len(op) == 4)
            program.append((_S_MEAS_D, _int_field(op[1], 0),
                            buffers.mask(op[2]), _int_field(op[3], 0)))
        elif code == _S_RESET_R:
            _require(len(op) == 6)
            pivot = _int_field(op[1], 0)
            pm = _int_field(op[2], 0)
            _require(pivot < rows and pm < rows)
            program.append((_S_RESET_R, pivot, pm,
                            buffers.mask(op[3]), buffers.mask(op[4]),
                            buffers.mask(op[5])))
        elif code == _S_RESET_D:
            _require(len(op) == 4)
            program.append((_S_RESET_D, buffers.mask(op[1]),
                            _int_field(op[2], 0), buffers.mask(op[3])))
        elif code == _S_CLS:
            _require(len(op) == 3)
            program.append((_S_CLS, _int_field(op[1], 0),
                            _closure_at(memory, op[2], E_REG)))
        elif code == _S_FMR:
            _require(len(op) == 4)
            program.append((_S_FMR, _int_field(op[1], 0),
                            _int_field(op[2], 0), _int_field(op[3], 0)))
        elif code == _S_NOISE:
            _require(len(op) == 4)
            dep_p = _float_or_none(op[1])
            _require(isinstance(op[2], list))
            triples = []
            for triple in op[2]:
                _require(isinstance(triple, list) and len(triple) == 3)
                triples.append(tuple(buffers.mask(m) for m in triple))
            pauli_cum = op[3]
            if pauli_cum is not None:
                _require(isinstance(pauli_cum, list)
                         and len(pauli_cum) == 3)
                pauli_cum = tuple(_float_or_none(p) for p in pauli_cum)
            program.append((_S_NOISE, dep_p, tuple(triples), pauli_cum))
        else:
            raise _Invalid
    return program


def _node_devops(items: tuple) -> int:
    """Recomputed from the items — never trusted from the file."""
    return sum(len(item[1]) if item[0] == _I_OPS else 1
               for item in items
               if item[0] == _I_OPS or item[0] == _I_MEAS)


# -- the cache ------------------------------------------------------------

class ArtifactCache:
    """One engine's handle on a shared artifact directory.

    Counters (all per-handle): ``warm_loads`` (successful trie
    installs), ``cold_compiles`` (load attempts that found nothing
    usable), ``invalidations`` (the subset of cold loads where a file
    existed but was rejected), ``saves``, ``evicted_files`` (artifacts
    deleted by this handle's size sweeps) and ``bytes_on_disk`` (the
    directory footprint after the last save/sweep).
    """

    def __init__(self, directory: str, fingerprint: dict,
                 max_bytes: int | None = None) -> None:
        self.directory = os.fspath(directory)
        # Normalize through JSON so equality with a parsed file
        # fingerprint compares like for like (tuples become lists).
        self.fingerprint = json.loads(_canonical(fingerprint))
        self.key = cache_key(self.fingerprint)
        self.max_bytes = max_bytes
        self.warm_loads = 0
        self.cold_compiles = 0
        self.invalidations = 0
        self.saves = 0
        self.evicted_files = 0
        self.bytes_on_disk = 0
        self._retained: list = []  # mmaps backing live trie nodes
        os.makedirs(self.directory, exist_ok=True)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, self.key + ARTIFACT_SUFFIX)

    def stats(self) -> dict:
        return {"warm_loads": self.warm_loads,
                "cold_compiles": self.cold_compiles,
                "invalidations": self.invalidations,
                "saves": self.saves,
                "evicted_files": self.evicted_files,
                "bytes_on_disk": self.bytes_on_disk}

    # -- save -------------------------------------------------------------

    def save_from(self, cache: TraceCache, memory, qpu) -> bool:
        """Serialize ``cache`` and atomically publish the artifact.

        Returns False (and writes nothing) when the trie is empty or
        contains anything the codec cannot name — a closure with no
        decoded pc, say.  Publication is write-to-temp + ``os.replace``
        so concurrent readers and writers always see complete files.
        """
        root = cache.root
        if root is None or root.items is None:
            return False
        try:
            payload = self._serialize(cache, memory, qpu)
        except Exception:
            # Anything the codec cannot represent (or any compile-state
            # surprise) simply skips the save — the live trie is
            # untouched and the next engine compiles cold.
            return False
        final = self.path
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix="." + self.key[:16],
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, final)
        except OSError:
            # A read-only or vanished cache directory must never take a
            # run down: the save silently degrades to cold compiles.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
        self.saves += 1
        self.sweep()
        return True

    def _serialize(self, cache: TraceCache, memory, qpu) -> bytes:
        mode = cache.mode
        state = qpu.state
        pcs = _closure_pcs(memory)
        writer = _BufferWriter()
        arrays: list = []
        masks: list[int] = []

        order: list[TraceNode] = []
        index: dict[int, int] = {}
        queue = [cache.root]
        while queue:
            node = queue.pop(0)
            if node.items is None:
                continue
            index[id(node)] = len(order)
            order.append(node)
            queue.extend(node.children.values())

        nodes_meta = []
        for node in order:
            encoded: dict = {
                "p": (index[id(node.parent)]
                      if node.parent is not None else -1),
                "e": node.edge,
                "t": node.total_ns,
                "i": _encode_items(node.items, pcs),
                "d": _encode_decision(node.decision, pcs),
                "s": None, "x": None,
            }
            if (mode == "signs" and node._program is not None
                    and node._program_state is state
                    and node._exit_xz is not None):
                encoded["s"] = _encode_sign_program(node._program, pcs,
                                                    masks)
                encoded["x"] = [
                    writer.add_array(node._exit_xz[0], arrays),
                    writer.add_array(node._exit_xz[1], arrays)]
            nodes_meta.append(encoded)

        # Pack every integer mask into one flat fixed-width buffer —
        # the "packed sign columns as flat binary buffers" the loader
        # reads straight out of the mapping.
        rows = 2 * int(self.fingerprint["n_qubits"]) + 1
        mask_bytes = (rows + 7) // 8
        mask_blob = b"".join(m.to_bytes(mask_bytes, "little")
                             for m in masks)
        mask_off, mask_nbytes = (writer.add(mask_blob)
                                 if mask_blob else (writer.size, 0))

        recency: list[int] = []
        current = cache._lru_tail.lru_prev
        while current is not cache._lru_head:
            position = index.get(id(current))
            if position is not None:
                recency.append(position)
            current = current.lru_prev

        meta = {"mode": mode,
                "masks": [mask_off, mask_nbytes, len(masks)],
                "arrays": arrays, "nodes": nodes_meta,
                "recency": recency}
        return _assemble(self.fingerprint, meta, writer.render())

    # -- load -------------------------------------------------------------

    def load_into(self, cache: TraceCache, memory, qpu) -> bool:
        """Install the keyed artifact into a cold ``cache``.

        Fail-closed: every anomaly is swallowed and counted, the cache
        is left untouched (cold), and the caller compiles as if no
        artifact existed.  On success the trie, its compiled programs
        and its LRU recency order are live, and the backing mmap stays
        referenced for the handle's lifetime.
        """
        if cache.root is not None:
            return False
        try:
            handle = open(self.path, "rb")
        except OSError:
            self.cold_compiles += 1
            return False
        mapped = None
        try:
            mapped = mmap.mmap(handle.fileno(), 0,
                               access=mmap.ACCESS_READ)
            fingerprint, meta, buffers = _parse(mapped, self.fingerprint)
            self._install(meta, buffers, cache, memory, qpu)
        except Exception:
            if mapped is not None:
                try:
                    mapped.close()
                except (BufferError, ValueError):
                    pass  # stray views; keep the mapping alive
            self.invalidations += 1
            self.cold_compiles += 1
            return False
        finally:
            handle.close()
        self._retained.append(mapped)
        self.warm_loads += 1
        return True

    def _install(self, meta: dict, buffers: _BufferReader,
                 cache: TraceCache, memory, qpu) -> None:
        mode = meta["mode"]
        _require(mode == cache.mode)
        state = qpu.state
        rows = 2 * int(self.fingerprint["n_qubits"]) + 1

        encoded_nodes = meta["nodes"]
        _require(isinstance(encoded_nodes, list) and encoded_nodes)
        if (cache.max_nodes is not None
                and len(encoded_nodes) > cache.max_nodes):
            # A trie the live bound would immediately evict is not
            # worth installing; stay cold.
            raise _Invalid
        nodes: list[TraceNode] = []
        for position, encoded in enumerate(encoded_nodes):
            _require(isinstance(encoded, dict))
            _require(set(encoded) == set(_NODE_KEYS))
            node = TraceNode()
            node.items = _decode_items(encoded["i"], memory)
            node.decision = _decode_decision(encoded["d"], memory)
            node.total_ns = _int_field(encoded["t"], 0)
            node.devops = _node_devops(node.items)
            parent = encoded["p"]
            if position == 0:
                _require(parent == -1 and encoded["e"] is None)
            else:
                _require(isinstance(parent, int)
                         and 0 <= parent < position)
                edge = _int_field(encoded["e"], 0)
                owner = nodes[parent]
                _require(owner.decision is not None)
                _require(edge not in owner.children)
                node.parent = owner
                node.edge = edge
                owner.children[edge] = node
            if encoded["s"] is not None:
                _require(mode == "signs")
                refs = encoded["x"]
                _require(isinstance(refs, list) and len(refs) == 2)
                exit_x = buffers.array(refs[0], "uint8", 2)
                exit_z = buffers.array(refs[1], "uint8", 2)
                expected = (rows, int(self.fingerprint["n_qubits"]))
                _require(exit_x.shape == expected
                         and exit_z.shape == expected)
                node._program = _decode_sign_program(
                    encoded["s"], memory, buffers, rows)
                node._program_state = state
                node._exit_xz = (exit_x, exit_z)
            else:
                _require(encoded["x"] is None)
            nodes.append(node)

        recency = meta["recency"]
        _require(isinstance(recency, list))
        _require(sorted(recency) == list(range(1, len(nodes))))
        _seed_live(nodes)

        # All validated — attach.  From here on the trie is live; the
        # recency touches reproduce the saved LRU order (coldest
        # first), preserving the parent-before-child invariant the
        # eviction pass relies on.
        cache.root = nodes[0]
        cache.nodes = len(nodes)
        cache._tick += 1
        cache._touch(nodes[0])
        for position in recency:
            cache._touch(nodes[position])

    # -- size-bounded cross-process eviction ------------------------------

    def sweep(self) -> None:
        """Refresh ``bytes_on_disk``; evict oldest files past the bound.

        Newest-stamp scoring, mirroring the in-memory trie's recency
        list: artifacts are ranked by modification stamp (every
        ``os.replace`` publish refreshes it) and deleted coldest-first
        until the directory fits ``max_bytes``.  The newest artifact
        always survives, and racing deleters are harmless — a missing
        file was simply evicted by someone else first.
        """
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(ARTIFACT_SUFFIX):
                continue
            full = os.path.join(self.directory, name)
            try:
                info = os.stat(full)
            except OSError:
                continue
            entries.append((info.st_mtime_ns, info.st_size, full))
        entries.sort(reverse=True)  # newest first
        total = sum(size for _, size, _ in entries)
        if self.max_bytes is not None:
            while len(entries) > 1 and total > self.max_bytes:
                _, size, full = entries.pop()
                try:
                    os.unlink(full)
                except OSError:
                    pass
                else:
                    self.evicted_files += 1
                total -= size
        self.bytes_on_disk = total


# -- file assembly / parsing ----------------------------------------------

def _assemble(fingerprint: dict, meta: dict, buffers: bytes) -> bytes:
    """Render one complete artifact file (exposed for tests)."""
    meta_blob = _canonical(meta).encode()
    prefix_len = len(ARTIFACT_MAGIC) + 4
    # Header length depends on the buffer offset it records, which
    # depends on the header length; fix by iterating to a fixed point
    # (two passes suffice — the offset's digit count stabilizes).
    buffer_off = 0
    for _ in range(3):
        header_blob = _canonical({
            "schema": ARTIFACT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "meta_bytes": len(meta_blob),
            "buffer_off": buffer_off,
            "buffer_bytes": len(buffers),
        }).encode()
        unpadded = prefix_len + len(header_blob) + len(meta_blob)
        aligned = unpadded + ((-unpadded) % 16)
        if aligned == buffer_off:
            break
        buffer_off = aligned
    body = (ARTIFACT_MAGIC + struct.pack("<I", len(header_blob))
            + header_blob + meta_blob
            + b"\x00" * (buffer_off - unpadded) + buffers)
    return body + hashlib.sha256(body).digest()


def _parse(mapped, expected_fingerprint: dict):
    """Validate a mapped artifact; returns (fingerprint, meta, buffers).

    Raises :class:`_Invalid` on any structural problem — magic, schema,
    checksum, truncation, unknown fields, inconsistent section bounds
    or a fingerprint that is not the expected one.
    """
    size = len(mapped)
    prefix_len = len(ARTIFACT_MAGIC) + 4
    _require(size >= prefix_len + _CHECKSUM_BYTES)
    _require(mapped[:len(ARTIFACT_MAGIC)] == ARTIFACT_MAGIC)
    digest = hashlib.sha256(mapped[:size - _CHECKSUM_BYTES]).digest()
    _require(mapped[size - _CHECKSUM_BYTES:] == digest)
    (header_len,) = struct.unpack(
        "<I", mapped[len(ARTIFACT_MAGIC):prefix_len])
    _require(prefix_len + header_len <= size - _CHECKSUM_BYTES)
    try:
        header = json.loads(mapped[prefix_len:prefix_len + header_len])
    except (ValueError, UnicodeDecodeError):
        raise _Invalid from None
    _require(isinstance(header, dict))
    _require(set(header) == set(_HEADER_KEYS))
    _require(header["schema"] == ARTIFACT_SCHEMA_VERSION)
    _require(header["fingerprint"] == expected_fingerprint)
    meta_bytes = _int_field(header["meta_bytes"], 0)
    buffer_off = _int_field(header["buffer_off"], 0)
    buffer_bytes = _int_field(header["buffer_bytes"], 0)
    meta_start = prefix_len + header_len
    _require(meta_start + meta_bytes <= buffer_off)
    _require(buffer_off + buffer_bytes == size - _CHECKSUM_BYTES)
    try:
        meta = json.loads(mapped[meta_start:meta_start + meta_bytes])
    except (ValueError, UnicodeDecodeError):
        raise _Invalid from None
    _require(isinstance(meta, dict))
    _require(set(meta) == set(_META_KEYS))
    n_qubits = int(expected_fingerprint["n_qubits"])
    mask_bytes = (2 * n_qubits + 1 + 7) // 8
    buffers = _BufferReader(mapped, buffer_off, buffer_bytes, meta,
                            mask_bytes)
    return header["fingerprint"], meta, buffers
