"""Small Transformer encoder with three decoder variants.

* ``ARModel``: standard autoregressive decoder (causal self-attention).
* ``NATModel``: fully parallel decoder over uniform-copied source
  embeddings, with an extra positional-attention sub-layer per layer;
  a single forward pass emits the distribution for every position.
* ``FSModel``: hybrid decoder whose bottom layers are NAT-style and run
  once, fused with shifted target embeddings through a ReLU layer and
  finished by one causal top layer.

All models share the encoder implementation and parameter-initialization
order, so equal seeds give bit-identical encoders across variants. Batches
carry sequences of equal length (bucketing happens upstream), so no padding
masks are needed inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .errors import CapacityError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
N_RESERVED = 4


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 32
    d_hidden: int = 64
    n_layer: int = 2
    n_head: int = 2
    p_dropout: float = 0.0
    vocab_size: int = 24
    max_len: int = 64

    def __post_init__(self):
        for name in ("d_model", "d_hidden", "n_head", "vocab_size", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.p_dropout < 1.0:
            raise ValueError(f"p_dropout must be in [0, 1), got {self.p_dropout}")
        if self.d_model % self.n_head != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_head={self.n_head}"
            )
        if self.n_layer < 2:
            raise ValueError(f"n_layer must be >= 2, got {self.n_layer}")


def sinusoidal_encoding(length, d_model):
    pos = np.arange(length)[:, None]
    dim = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_model)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def uniform_copy_positions(src_len, out_len):
    """Source position (0-based) feeding each of ``out_len`` decoder slots.

    Decoder position t (1-based) reads source position
    clamp(round_half_up(t * src_len / out_len), 1, src_len).
    """
    t = np.arange(1, out_len + 1)
    pos = np.floor(t * src_len / out_len + 0.5).astype(np.int64)
    return np.clip(pos, 1, src_len) - 1


class ParamStore:
    """Named parameter registry with a deterministic creation order."""

    def __init__(self, rng):
        self.rng = rng
        self.params = {}

    def _register(self, name, data):
        if name in self.params:
            raise ValueError(f"duplicate parameter {name}")
        t = tc.Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def matrix(self, name, fan_in, fan_out, scale=1.0):
        bound = scale * math.sqrt(6.0 / (fan_in + fan_out))
        return self._register(name, self.rng.uniform(-bound, bound, (fan_in, fan_out)))

    def zeros(self, name, *shape):
        return self._register(name, np.zeros(shape))

    def ones(self, name, *shape):
        return self._register(name, np.ones(shape))

    def embedding(self, name, vocab, dim):
        return self._register(name, self.rng.normal(0.0, dim**-0.5, (vocab, dim)))


class Linear:
    def __init__(self, store, name, d_in, d_out, scale=1.0):
        self.w = store.matrix(f"{name}.w", d_in, d_out, scale)
        self.b = store.zeros(f"{name}.b", d_out)

    def __call__(self, x):
        return tc.linear(x, self.w, self.b)


class LayerNorm:
    """Post-residual layer norm: normalizes ``x + sublayer_out``."""

    def __init__(self, store, name, dim):
        self.gain = store.ones(f"{name}.gain", dim)
        self.bias = store.zeros(f"{name}.bias", dim)

    def __call__(self, x, sublayer_out):
        return tc.layer_norm(x, self.gain, self.bias, residual=sublayer_out)


class MultiHeadAttention:
    def __init__(self, store, name, d_model, n_head):
        self.n_head = n_head
        self.scale = 1.0 / math.sqrt(d_model // n_head)
        self.wq = Linear(store, f"{name}.q", d_model, d_model)
        self.wk = Linear(store, f"{name}.k", d_model, d_model)
        self.wv = Linear(store, f"{name}.v", d_model, d_model)
        self.wo = Linear(store, f"{name}.o", d_model, d_model)

    def __call__(self, q_in, k_in, v_in):
        return self.attend(q_in, *self.keys_values(k_in, v_in))

    def keys_values(self, k_in, v_in):
        """Projected keys and values, (..., T, d) each."""
        return self.wk(k_in), self.wv(v_in)

    def attend(self, q_in, k, v, mask=None):
        """Attention of the queries from ``q_in`` over projected keys and values."""
        ctx = tc.attention(self.wq(q_in), k, v, self.n_head, self.scale, mask=mask)
        return self.wo(ctx)


class FeedForward:
    def __init__(self, store, name, d_model, d_hidden):
        self.inner = Linear(store, f"{name}.inner", d_model, d_hidden)
        self.outer = Linear(store, f"{name}.outer", d_hidden, d_model)

    def __call__(self, x):
        return self.outer(tc.relu(self.inner(x)))


def causal_mask(T):
    return np.triu(np.ones((T, T), dtype=bool), k=1)


class EncoderLayer:
    def __init__(self, store, name, cfg):
        self.attn = MultiHeadAttention(store, f"{name}.attn", cfg.d_model, cfg.n_head)
        self.ff = FeedForward(store, f"{name}.ff", cfg.d_model, cfg.d_hidden)
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)

    def __call__(self, x):
        x = self.norm1(x, self.attn(x, x, x))
        return self.norm2(x, self.ff(x))


class ARDecoderLayer:
    """Causal self-attention, source attention, feed-forward."""

    def __init__(self, store, name, cfg):
        self.self_attn = MultiHeadAttention(store, f"{name}.self", cfg.d_model, cfg.n_head)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", cfg.d_model, cfg.n_head)
        self.ff = FeedForward(store, f"{name}.ff", cfg.d_model, cfg.d_hidden)
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)
        self.norm3 = LayerNorm(store, f"{name}.norm3", cfg.d_model)

    def __call__(self, x, enc, cache=None, slot=0):
        """Teacher-forced over the positions of ``x``; with a ``DecodeCache``,
        ``x`` holds the positions after ``cache.length``, which attend to the
        keys and values cached under ``slot`` and append their own."""
        start = 0 if cache is None else cache.length
        end = start + x.shape[-2]
        k, v = self.self_attn.keys_values(x, x)
        if cache is not None:
            k, v = cache.extend(slot, k, v)
        mask = causal_mask(end)[start:] if end - start > 1 else None
        x = self.norm1(x, self.self_attn.attend(x, k, v, mask=mask))
        cross_kv = {} if cache is None else cache.cross_kv
        if slot not in cross_kv:
            cross_kv[slot] = self.cross_attn.keys_values(enc, enc)
        x = self.norm2(x, self.cross_attn.attend(x, *cross_kv[slot]))
        return self.norm3(x, self.ff(x))


class NATDecoderLayer:
    """Unmasked self-attention, positional attention (sinusoidal queries and
    keys over the layer's hidden states), source attention, feed-forward."""

    def __init__(self, store, name, cfg):
        self.self_attn = MultiHeadAttention(store, f"{name}.self", cfg.d_model, cfg.n_head)
        self.pos_attn = MultiHeadAttention(store, f"{name}.pos", cfg.d_model, cfg.n_head)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", cfg.d_model, cfg.n_head)
        self.ff = FeedForward(store, f"{name}.ff", cfg.d_model, cfg.d_hidden)
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)
        self.norm3 = LayerNorm(store, f"{name}.norm3", cfg.d_model)
        self.norm4 = LayerNorm(store, f"{name}.norm4", cfg.d_model)

    def __call__(self, x, enc, pos_enc):
        x = self.norm1(x, self.self_attn(x, x, x))
        x = self.norm2(x, self.pos_attn(pos_enc, pos_enc, x))
        x = self.norm3(x, self.cross_attn(x, enc, enc))
        return self.norm4(x, self.ff(x))


@dataclass
class LengthTable:
    """Source length -> most frequent target length."""

    table: dict = field(default_factory=dict)


def predict_length(src_len, table):
    """Predicted target length: exact key, else the value at the nearest key
    (ties toward the smaller key), else the source length itself."""
    if src_len < 1:
        raise ValueError(f"src_len must be >= 1, got {src_len}")
    if src_len in table.table:
        return table.table[src_len]
    if table.table:
        key = min(table.table, key=lambda k: (abs(k - src_len), k))
        return table.table[key]
    return src_len


class DecodeCache:
    """Keys and values of the causal layers for one sentence being decoded.

    ``self_kv[slot]`` holds a layer's projected self-attention keys and
    values in two preallocated (hypotheses, capacity, d) arrays; rows
    ``[0, length)`` are the positions decoded so far, and ``extend`` writes
    new positions in place behind them. A buffer doubles (or grows to fit a
    longer chunk) when it runs out of room. The views ``extend`` returns
    have the inner strides of a (hypotheses, length, d) array, so attention
    over them gives the numbers it gives over a fresh one.

    ``cross_kv[slot]`` holds the layer's keys and values of the encoder
    output, computed on first use. Encoder rows are per source and broadcast
    over the hypotheses, so ``reorder`` leaves them as they are.

    The buffers hold values, not graph: decode under ``tensor.no_grad()``.
    """

    def __init__(self):
        self.length = 0
        self.self_kv = {}
        self.cross_kv = {}

    def extend(self, slot, k, v):
        """Write the keys and values of the positions after ``length`` into
        the slot's buffers; returns the views of every position so far."""
        if tc.is_grad_enabled():
            raise tc.GraphError("DecodeCache records no graph; step under tensor.no_grad()")
        start, end = self.length, self.length + k.shape[-2]
        buffers = self.self_kv.get(slot)
        if buffers is None or buffers[0].shape[1] < end:
            capacity = end if buffers is None else max(end, 2 * buffers[0].shape[1])
            grown = tuple(np.empty((t.shape[0], capacity, t.shape[2])) for t in (k, v))
            for new, old in zip(grown, buffers or ()):
                new[:, :start] = old[:, :start]
            buffers = self.self_kv[slot] = grown
        buffers[0][:, start:end] = k.data
        buffers[1][:, start:end] = v.data
        return tc.Tensor(buffers[0][:, :end]), tc.Tensor(buffers[1][:, :end])

    def reorder(self, rows):
        """Keep the hypothesis rows ``rows`` in that order; a row may repeat."""
        rows = [int(r) for r in rows]
        for slot, (k, v) in self.self_kv.items():
            if rows != list(range(k.shape[0])):
                self.self_kv[slot] = (k[rows], v[rows])


class ModelBase:
    """Shared embedding, encoder stack, softmax head, and call counters."""

    kind = "base"

    def __init__(self, config, seed=0):
        self.config = config
        enc_rng, dec_rng = np.random.default_rng(seed).spawn(2)
        # encoder params first, from their own stream: identical across
        # decoder variants for equal seeds
        store = ParamStore(enc_rng)
        self.embed = store.embedding("embed", config.vocab_size, config.d_model)
        self.enc_layers = [
            EncoderLayer(store, f"enc.{i}", config) for i in range(config.n_layer)
        ]
        store.rng = dec_rng
        self.store = store
        self.pe = sinusoidal_encoding(config.max_len, config.d_model)
        self.encoder_calls = 0
        self.training = False
        self.dropout_rng = np.random.default_rng(seed + 1)
        self._build_decoder(store, config)
        # small-scale head init keeps initial predictions near uniform
        self.out_proj = Linear(store, "out", config.d_model, config.vocab_size, scale=0.1)

    def _build_decoder(self, store, config):
        raise NotImplementedError

    def parameters(self):
        return list(self.store.params.values())

    def state(self):
        return {k: v.data for k, v in self.store.params.items()}

    def load_state(self, state):
        for name, tensor in self.store.params.items():
            data = np.asarray(state[name], dtype=np.float64)
            if data.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            tensor.data = data.copy()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def reset_counters(self):
        for name in list(vars(self)):
            if name.endswith("_calls"):
                setattr(self, name, 0)

    def _check_len(self, length, what):
        if length > self.config.max_len:
            raise CapacityError(
                f"{what} length {length} exceeds max_len {self.config.max_len}"
            )

    def _embed_tokens(self, ids):
        scale = math.sqrt(self.config.d_model)
        return tc.mul(tc.embedding(self.embed, ids), scale)

    def _dropout(self, x):
        return tc.dropout(x, self.config.p_dropout, self.dropout_rng, self.training)

    def encode(self, src_ids):
        """Run the encoder on a (B, T_s) id array."""
        src_ids = np.atleast_2d(np.asarray(src_ids, dtype=np.int64))
        self._check_len(src_ids.shape[1], "source")
        self.encoder_calls += 1
        x = tc.add(self._embed_tokens(src_ids), self.pe[: src_ids.shape[1]])
        x = self._dropout(x)
        for layer in self.enc_layers:
            x = layer(x)
        return x

    def _head(self, x):
        return tc.softmax_rows(self.out_proj(x))

    def _parallel_pass(self, src_ids, out_len, layers):
        """Uniform-copied source embeddings at ``out_len`` positions, run in
        one pass through the NAT-style ``layers``; returns (states, enc)."""
        src_ids = np.atleast_2d(np.asarray(src_ids, dtype=np.int64))
        self._check_len(out_len, "decoder")
        enc = self.encode(src_ids)
        copy_idx = uniform_copy_positions(src_ids.shape[1], out_len)
        x = tc.add(self._embed_tokens(src_ids[:, copy_idx]), self.pe[:out_len])
        x = self._dropout(x)
        pos_enc = tc.Tensor(self.pe[:out_len])
        for layer in layers:
            x = layer(x, enc, pos_enc)
        return x, enc


class ARModel(ModelBase):
    kind = "ar"

    def _build_decoder(self, store, config):
        self.dec_layers = [
            ARDecoderLayer(store, f"dec.{i}", config) for i in range(config.n_layer)
        ]
        self.decoder_calls = 0

    def forward(self, src_ids, tgt_in, enc=None, cache=None):
        """Teacher-forced distributions: position t conditions on
        tgt_in[:t+1] (the shifted history) and the source only.

        With a ``DecodeCache``, ``tgt_in`` holds only the positions after
        the ``cache.length`` already decoded ones: only they are computed,
        and their keys and values are appended to the cache."""
        tgt_in = np.atleast_2d(np.asarray(tgt_in, dtype=np.int64))
        start = 0 if cache is None else cache.length
        end = start + tgt_in.shape[1]
        self._check_len(end, "target")
        if enc is None:
            enc = self.encode(src_ids)
        self.decoder_calls += 1
        x = tc.add(self._embed_tokens(tgt_in), self.pe[start:end])
        x = self._dropout(x)
        for slot, layer in enumerate(self.dec_layers):
            x = layer(x, enc, cache, slot)
        if cache is not None:
            cache.length = end
        return self._head(x)

    def train_distributions(self, src_ids, tgt_ids):
        return self.forward(src_ids, shift_right(tgt_ids))


class NATModel(ModelBase):
    kind = "nat"

    def _build_decoder(self, store, config):
        self.dec_layers = [
            NATDecoderLayer(store, f"dec.{i}", config) for i in range(config.n_layer)
        ]
        self.decoder_calls = 0

    def forward(self, src_ids, out_len):
        """All ``out_len`` position distributions in one decoder pass."""
        x, _ = self._parallel_pass(src_ids, out_len, self.dec_layers)
        self.decoder_calls += 1
        return self._head(x)

    def train_distributions(self, src_ids, tgt_ids):
        tgt_ids = np.atleast_2d(np.asarray(tgt_ids, dtype=np.int64))
        return self.forward(src_ids, tgt_ids.shape[1])


class FSModel(ModelBase):
    kind = "fs"

    def _build_decoder(self, store, config):
        self.bottom_layers = [
            NATDecoderLayer(store, f"bottom.{i}", config)
            for i in range(config.n_layer - 1)
        ]
        self.fuse_w = store.matrix("fuse.w", config.d_model, config.d_model)
        self.fuse_u = store.matrix("fuse.u", config.d_model, config.d_model)
        self.top_layer = ARDecoderLayer(store, "top", config)
        self.bottom_calls = 0
        self.top_calls = 0

    def bottom_states(self, src_ids, out_len):
        """One parallel pass of the NAT-style bottom layers."""
        states = self._parallel_pass(src_ids, out_len, self.bottom_layers)
        self.bottom_calls += 1
        return states

    def _fit_length(self, h, start, end):
        """Bottom-state rows start..end-1. Each target position fuses with
        the bottom state at that position, so none may lie past the last."""
        if end > h.shape[1]:
            raise CapacityError(f"target length {end} exceeds the {h.shape[1]} bottom states")
        if start == 0 and end == h.shape[1]:
            return h
        return tc.slice_axis(h, 1, start, end)

    def fuse_and_top(self, h_bottom, tgt_in, enc, cache=None):
        """ReLU fusion of bottom states with shifted target embeddings,
        then one causal decoder layer and the softmax head.

        With a ``DecodeCache``, ``tgt_in`` holds only the positions after
        the ``cache.length`` already decoded ones, as in ``ARModel.forward``;
        ``h_bottom`` still covers the whole output. A position past the rows
        of ``h_bottom`` raises ``CapacityError``."""
        tgt_in = np.atleast_2d(np.asarray(tgt_in, dtype=np.int64))
        self.top_calls += 1
        start = 0 if cache is None else cache.length
        end = start + tgt_in.shape[1]
        h = self._fit_length(h_bottom, start, end)
        y = tc.add(self._embed_tokens(tgt_in), self.pe[start:end])
        fused = tc.relu(tc.add(tc.matmul(h, self.fuse_w), tc.matmul(y, self.fuse_u)))
        x = self.top_layer(fused, enc, cache)
        if cache is not None:
            cache.length = end
        return self._head(x)

    def forward_train(self, src_ids, tgt_ids):
        tgt_ids = np.atleast_2d(np.asarray(tgt_ids, dtype=np.int64))
        h, enc = self.bottom_states(src_ids, tgt_ids.shape[1])
        return self.fuse_and_top(h, shift_right(tgt_ids), enc)

    def train_distributions(self, src_ids, tgt_ids):
        return self.forward_train(src_ids, tgt_ids)


MODEL_KINDS = {"ar": ARModel, "nat": NATModel, "fs": FSModel}


def build_model(kind, config, seed=0):
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODEL_KINDS[kind](config, seed=seed)


def shift_right(tgt_ids):
    """Prepend BOS and drop the last token: position t sees tokens < t."""
    tgt_ids = np.atleast_2d(np.asarray(tgt_ids, dtype=np.int64))
    out = np.empty_like(tgt_ids)
    out[:, 0] = BOS
    out[:, 1:] = tgt_ids[:, :-1]
    return out


@tc.no_grad()
def beam_decode(model, src_ids, out_len, beam=1):
    """Length-normalized beam search for AR and FS models; greedy when beam=1.

    One decoder invocation per step (live beams are stacked into a batch,
    and their cached keys and values follow each surviving hypothesis's
    parent row). Runs without recording a compute graph.

    Decoding stops after ``out_len`` steps, when no hypothesis is live, or
    as soon as the best finished score beats every live score divided by
    ``out_len``. That stop is exact: the result is the one a run to
    ``out_len`` would return. Each later step adds ``log p <= 0`` (softmax
    rows never exceed 1), so a live hypothesis with summed log-probability
    ``S <= 0`` can only finish with ``S'/L' <= S/L' <= S/out_len`` for
    ``L' <= out_len`` (float addition and division round monotonically). The
    comparison is strict, so a tie, which the final sort breaks by tokens,
    never stops decoding.

    Returns (tokens, steps) where tokens is the raw best hypothesis
    (terminating EOS stripped) and steps the number of decoder steps run.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    # the encoder (and FS bottom) pass runs once; each step computes only the
    # newest position of every live hypothesis against the cache
    cache = DecodeCache()
    if model.kind == "ar":
        enc = model.encode(src_ids)

        def step(tgt_in):
            return model.forward(None, tgt_in, enc=enc, cache=cache)

    elif model.kind == "fs":
        h, enc = model.bottom_states(src_ids, out_len)

        def step(tgt_in):
            return model.fuse_and_top(h, tgt_in, enc, cache=cache)

    else:
        raise ValueError(f"incremental decoding undefined for {model.kind!r}")
    live = [((), 0.0)]
    finished = []
    best_done = -math.inf
    steps = 0
    for _ in range(out_len):
        last = [[tokens[-1] if tokens else BOS] for tokens, _ in live]
        probs = step(np.array(last, dtype=np.int64)).data[:, -1, :]
        steps += 1
        logp = np.log(np.maximum(probs, 1e-300))
        candidates = []
        for parent, ((tokens, score), row) in enumerate(zip(live, logp)):
            order = np.argsort(-row, kind="stable")[: beam + 1]
            for tok in order:
                candidates.append((tokens + (int(tok),), score + float(row[tok]), parent))
        candidates.sort(key=lambda c: (-c[1] / len(c[0]), c[0]))
        live, parents = [], []
        for tokens, score, parent in candidates:
            if tokens[-1] == EOS:
                finished.append((tokens, score / len(tokens)))
                best_done = max(best_done, finished[-1][1])
            elif len(live) < beam:
                live.append((tokens, score))
                parents.append(parent)
            if len(finished) >= beam and len(live) >= beam:
                break
        if not live or best_done > max(score for _, score in live) / out_len:
            break
        cache.reorder(parents)
    for tokens, score in live:
        finished.append((tokens, score / max(len(tokens), 1)))
    finished.sort(key=lambda c: (-c[1], c[0]))
    best = list(finished[0][0])
    if best and best[-1] == EOS:
        best = best[:-1]
    return best, steps

