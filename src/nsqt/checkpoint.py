"""Versioned binary model checkpoints.

Layout (all integers little-endian):

    magic            4 bytes, b"NSQT"
    format version   u32 (currently 2)
    model kind       u32 length + utf-8 bytes ("ar" | "nat" | "fs")
    seed             u64 (construction seed, for provenance)
    config           d_model u32, d_hidden u32, n_layer u32, n_head u32,
                     p_dropout f64, vocab_size u32, max_len u32
    tensor count     u32
    per tensor       name u32 length + utf-8, ndim u32, each dim u32,
                     then the f64 payload in C order
    checksum         u32 zlib CRC32 of every byte before it

Version 1, the same layout without the checksum, is refused: nothing
would catch a corrupt header field that sizes no stored tensor.

Round trip is bitwise: load(save(m)) reproduces every parameter exactly.
A file that ends early, has bytes after its last field, fails its checksum
or describes a model that cannot be built raises ``CheckpointError``. The
checksum is verified before any model is built, so a corrupt config field
allocates nothing. So is every config field that sizes stored tensors
(``vocab_size``, ``d_model``, ``d_hidden``, ``n_layer``), against those
tensors. ``max_len`` sizes no stored tensor: the positional table is
computed, and ``ModelConfig`` refuses a ``max_len`` above
``models.MAX_POSITIONS`` before any model is built.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .models import ModelConfig, build_model

MAGIC = b"NSQT"
VERSION = 2
# the ModelConfig fields of the header, in file order, and their layout
CONFIG_FIELDS = ("d_model", "d_hidden", "n_layer", "n_head", "p_dropout", "vocab_size", "max_len")
CONFIG_FORMAT = "<IIIIdII"


class _Reader:
    """Reads exact byte counts from a checkpoint file of known size, keeping
    the CRC32 of every byte read so far."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.size = os.fstat(f.fileno()).st_size
        self.crc = 0

    def bytes(self, n):
        # checked before reading, so a corrupt length field allocates nothing
        at = self.f.tell()
        if n > self.size - at:
            raise CheckpointError(
                f"{self.path}: truncated at byte {self.size}, "
                f"needed {n} more bytes from byte {at}"
            )
        raw = self.f.read(n)
        self.crc = zlib.crc32(raw, self.crc)
        return raw

    def unpack(self, fmt):
        return struct.unpack(fmt, self.bytes(struct.calcsize(fmt)))

    def text(self):
        (n,) = self.unpack("<I")
        try:
            return self.bytes(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.path}: invalid name: {e}") from None

    def finish(self):
        at = self.f.tell()
        if at != self.size:
            raise CheckpointError(
                f"{self.path}: {self.size - at} unexpected bytes after the last tensor"
            )


def _write_str(f, s):
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def save_model(model, path, seed=0):
    cfg = model.config
    with io.BytesIO() as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_str(f, model.kind)
        f.write(struct.pack("<Q", seed))
        f.write(struct.pack(CONFIG_FORMAT, *(getattr(cfg, name) for name in CONFIG_FIELDS)))
        state = model.state()
        f.write(struct.pack("<I", len(state)))
        for name, data in state.items():
            _write_str(f, name)
            f.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        body = f.getvalue()
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def _check_sizes(path, header, state):
    """Refuse header fields that disagree with the stored tensors they size:
    the shared embedding, the first encoder feed-forward layer and the
    number of encoder layers. The checksum catches damage, not a header
    written wrong; this refuses one before ``build_model`` allocates for it."""
    shapes = {name: data.shape for name, data in state.items()}
    sized = {
        "embed": ("vocab_size", "d_model"),
        "enc.0.ff.inner.w": ("d_model", "d_hidden"),
    }
    for name, fields in sized.items():
        want = tuple(header[f] for f in fields)
        if shapes.get(name) != want:
            raise CheckpointError(
                f"{path}: header ({', '.join(fields)}) = {want} does not match "
                f"tensor {name!r} of shape {shapes.get(name)}"
            )
    layers = len({name.split(".")[1] for name in shapes if name.startswith("enc.")})
    if layers != header["n_layer"]:
        raise CheckpointError(
            f"{path}: header n_layer = {header['n_layer']} does not match {layers} stored encoder layers"
        )


def load_model(path):
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.bytes(min(4, r.size)) != MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        kind = r.text()
        (seed,) = r.unpack("<Q")
        header = dict(zip(CONFIG_FIELDS, r.unpack(CONFIG_FORMAT)))
        (count,) = r.unpack("<I")
        state = {}
        for _ in range(count):
            name = r.text()
            (ndim,) = r.unpack("<I")
            shape = r.unpack(f"<{ndim}I")
            data = np.frombuffer(r.bytes(8 * math.prod(shape)), dtype="<f8")
            try:
                state[name] = data.reshape(shape).astype(np.float64)
            except ValueError as e:  # more dimensions than numpy allows
                raise CheckpointError(f"{path}: tensor {name!r}: {e}") from None
        crc = r.crc
        (stored,) = r.unpack("<I")
        if stored != crc:
            raise CheckpointError(
                f"{path}: checksum mismatch (stored {stored:08x}, computed {crc:08x})"
            )
        r.finish()
    _check_sizes(path, header, state)
    try:
        model = build_model(kind, ModelConfig(**header), seed=seed)
        model.load_state(state)
    except (ValueError, KeyError) as e:
        raise CheckpointError(f"{path}: does not describe a loadable model: {e}") from None
    return model
