"""Transformer models: TinyBERT, Conformer and the int8 decoder tier.

TinyBERT and Conformer are the two networks GCD2 runs on the mobile
DSP "for the first time" — TFLite and SNPE lack the MatMul variants
(activation-by-activation products in attention) and operators like
Pow that they need.  The builders express attention with explicit
two-operand MatMuls, Transposes, Softmax and Pow, exactly the operator
mix that gates baseline support.

The decoder tier (:func:`build_decoder_tiny`) follows the LLM
deployment pressures nncase describes: causal attention and
KV-cache-shaped GEMMs.  A static-shape compiler cannot express a
growing sequence, so the model carries *separate graph variants* —
one prefill network over the full prompt plus one single-token decode
step per cache length — approximating the shapes an autoregressive
loop sweeps through.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.graph.builder import GraphBuilder, Handle
from repro.graph.graph import ComputationalGraph


def _attention(
    b: GraphBuilder,
    x: Handle,
    seq: int,
    hidden: int,
    heads: int,
    tag: str,
) -> Handle:
    """Multi-head self-attention over (1, seq, hidden)."""
    head_dim = hidden // heads
    q = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_q")
    k = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_k")
    v = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_v")
    q = b.reshape(q, (1, seq, heads, head_dim), name=f"{tag}_qr")
    k = b.reshape(k, (1, seq, heads, head_dim), name=f"{tag}_kr")
    v = b.reshape(v, (1, seq, heads, head_dim), name=f"{tag}_vr")
    q = b.transpose(q, (0, 2, 1, 3), name=f"{tag}_qt")
    k = b.transpose(k, (0, 2, 3, 1), name=f"{tag}_kt")
    v = b.transpose(v, (0, 2, 1, 3), name=f"{tag}_vt")
    scores = b.matmul(q, k, name=f"{tag}_qk")  # activation x activation
    scores = b.softmax(scores, name=f"{tag}_attn")
    context = b.matmul(scores, v, name=f"{tag}_ctx")
    context = b.transpose(context, (0, 2, 1, 3), name=f"{tag}_ct")
    context = b.reshape(context, (1, seq, hidden), name=f"{tag}_cr")
    out = b.matmul(
        context, weight_shape=(hidden, hidden), name=f"{tag}_proj"
    )
    return out


def _ffn(
    b: GraphBuilder,
    x: Handle,
    hidden: int,
    intermediate: int,
    tag: str,
    *,
    half_residual: bool = False,
) -> Handle:
    """Feed-forward block with GELU."""
    y = b.matmul(x, weight_shape=(hidden, intermediate), name=f"{tag}_up")
    y = b.gelu(y, name=f"{tag}_act")
    y = b.matmul(y, weight_shape=(intermediate, hidden), name=f"{tag}_down")
    if half_residual:
        # Conformer's half-step FFN: x + 0.5 * FFN(x), realised with an
        # elementwise Pow-free scale via Mul against a constant.
        half = b.constant((1,), name=f"{tag}_half")
        y = b.mul(y, half, name=f"{tag}_scale")
    return y


def build_tinybert(seq: int = 256) -> ComputationalGraph:
    """TinyBERT(4): 4 layers, hidden 312, 12 heads, FFN 1200.

    1.4 GMACs at sequence length 256 (paired-sentence input); includes the variance computation
    of layer-norm statistics expressed with Pow — one of the operators
    whose absence blocks TFLite/SNPE DSP execution.
    """
    hidden, heads, layers, intermediate = 312, 12, 4, 1200
    b = GraphBuilder("tinybert")
    tokens = b.input((1, seq), name="token_ids")
    x = b.embedding(tokens, vocab=30522, dim=hidden, name="embed")
    pos = b.constant((1, seq, hidden), name="pos_embed")
    x = b.add(x, pos, name="embed_add")
    x = b.layer_norm(x, name="embed_ln")
    for layer in range(layers):
        tag = f"l{layer}"
        attn = _attention(b, x, seq, hidden, heads, f"{tag}_attn")
        x = b.add(x, attn, name=f"{tag}_res1")
        x = b.layer_norm(x, name=f"{tag}_ln1")
        # Explicit variance via Pow (the paper: "more variants of
        # MatMul, and Pow" are what GCD2 uniquely supports on DSP).
        centered = b.sub(
            x, b.reduce_mean(x, axis=-1, name=f"{tag}_mu"), name=f"{tag}_c"
        )
        var = b.reduce_mean(
            b.pow(centered, 2.0, name=f"{tag}_sq"), axis=-1, name=f"{tag}_var"
        )
        x = b.div(centered, var, name=f"{tag}_norm")
        ffn = _ffn(b, x, hidden, intermediate, f"{tag}_ffn")
        x = b.add(x, ffn, name=f"{tag}_res2")
        x = b.layer_norm(x, name=f"{tag}_ln2")
    pooled = b.slice(x, axis=1, begin=0, length=1, name="cls_token")
    pooled = b.reshape(pooled, (1, hidden), name="cls_flat")
    logits = b.matmul(
        pooled, weight_shape=(hidden, 2), name="classifier"
    )
    b.softmax(logits, name="probs")
    return b.build()


def _conformer_block(
    b: GraphBuilder,
    x: Handle,
    seq: int,
    hidden: int,
    heads: int,
    tag: str,
) -> Handle:
    """Conformer block: FFN/2, MHSA, conv module, FFN/2, layer norm."""
    ffn1 = _ffn(b, x, hidden, hidden * 4, f"{tag}_ffn1", half_residual=True)
    x = b.add(x, ffn1, name=f"{tag}_res1")
    x = b.layer_norm(x, name=f"{tag}_ln1")

    attn = _attention(b, x, seq, hidden, heads, f"{tag}_mhsa")
    x = b.add(x, attn, name=f"{tag}_res2")
    x = b.layer_norm(x, name=f"{tag}_ln2")

    # Convolution module: pointwise (GLU-style gate), depthwise, pointwise.
    y = b.reshape(x, (1, hidden, seq, 1), name=f"{tag}_to_nchw")
    y = b.conv2d(y, hidden * 2, kernel=1, padding=0, name=f"{tag}_pw1")
    gate = b.sigmoid(y, name=f"{tag}_gate")
    y = b.mul(y, gate, name=f"{tag}_glu")
    y = b.depthwise_conv2d(y, kernel=(15, 1), padding=(7, 0), name=f"{tag}_dw")
    y = b.batch_norm(y, name=f"{tag}_bn")
    y = b.hardswish(y, name=f"{tag}_swish")
    y = b.conv2d(y, hidden, kernel=1, padding=0, name=f"{tag}_pw2")
    y = b.reshape(y, (1, seq, hidden), name=f"{tag}_to_seq")
    x = b.add(x, y, name=f"{tag}_res3")

    ffn2 = _ffn(b, x, hidden, hidden * 4, f"{tag}_ffn2", half_residual=True)
    x = b.add(x, ffn2, name=f"{tag}_res4")
    return b.layer_norm(x, name=f"{tag}_ln_out")


def build_conformer(
    frames: int = 1600, mel_bins: int = 80
) -> ComputationalGraph:
    """Conformer-S encoder for speech recognition (5.6 GMACs, 675 ops; a 16-second LibriSpeech utterance at a 10 ms hop).

    Convolutional subsampling (4x in time) feeding a stack of Conformer
    blocks at hidden size 144 with 4 heads, plus a CTC-style output
    projection.
    """
    hidden, heads, blocks = 144, 4, 16
    b = GraphBuilder("conformer")
    x = b.input((1, 1, frames, mel_bins), name="mel_spectrogram")
    x = b.conv2d(x, hidden, kernel=3, stride=2)
    x = b.relu(x)
    x = b.conv2d(x, hidden, kernel=3, stride=2)
    x = b.relu(x)
    seq = frames // 4
    feat = mel_bins // 4
    x = b.transpose(x, (0, 2, 1, 3), name="to_time_major")
    x = b.reshape(x, (1, seq, hidden * feat), name="flatten_freq")
    x = b.matmul(
        x, weight_shape=(hidden * feat, hidden), name="input_proj"
    )
    for block in range(blocks):
        x = _conformer_block(b, x, seq, hidden, heads, f"b{block}")
    logits = b.matmul(
        x, weight_shape=(hidden, 1024), name="ctc_head"
    )
    b.softmax(logits, name="token_probs")
    return b.build()


# ---------------------------------------------------------------------------
# int8 decoder tier: causal prefill + KV-cache decode steps
# ---------------------------------------------------------------------------

#: Default decoder-tiny geometry: small enough that the zoo-wide
#: strict/lint test matrices stay fast, large enough that the
#: attention GEMMs dominate the node count.
DECODER_HIDDEN = 128
DECODER_HEADS = 4
DECODER_BLOCKS = 2
DECODER_FFN = 256
DECODER_VOCAB = 4000

#: Cache lengths the decode-step variants are materialized at.
DECODER_SEQ_LENS: Tuple[int, ...] = (64, 128, 256)


def _causal_attention(
    b: GraphBuilder,
    x: Handle,
    seq: int,
    hidden: int,
    heads: int,
    tag: str,
) -> Handle:
    """Causal multi-head self-attention over (1, seq, hidden).

    Causality is an additive mask constant on the score matrix — the
    standard static-graph realisation (scores below the diagonal pass,
    the rest are pushed toward -inf before Softmax).  The mask is a
    graph constant, so it rides the same quantization/calibration path
    as every other weight.
    """
    head_dim = hidden // heads
    q = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_q")
    k = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_k")
    v = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_v")
    q = b.reshape(q, (1, seq, heads, head_dim), name=f"{tag}_qr")
    k = b.reshape(k, (1, seq, heads, head_dim), name=f"{tag}_kr")
    v = b.reshape(v, (1, seq, heads, head_dim), name=f"{tag}_vr")
    q = b.transpose(q, (0, 2, 1, 3), name=f"{tag}_qt")
    k = b.transpose(k, (0, 2, 3, 1), name=f"{tag}_kt")
    v = b.transpose(v, (0, 2, 1, 3), name=f"{tag}_vt")
    scores = b.matmul(q, k, name=f"{tag}_qk")
    mask = b.constant((1, heads, seq, seq), name=f"{tag}_causal_mask")
    scores = b.add(scores, mask, name=f"{tag}_masked")
    scores = b.softmax(scores, name=f"{tag}_attn")
    context = b.matmul(scores, v, name=f"{tag}_ctx")
    context = b.transpose(context, (0, 2, 1, 3), name=f"{tag}_ct")
    context = b.reshape(context, (1, seq, hidden), name=f"{tag}_cr")
    return b.matmul(
        context, weight_shape=(hidden, hidden), name=f"{tag}_proj"
    )


def _cached_attention(
    b: GraphBuilder,
    x: Handle,
    cache_len: int,
    hidden: int,
    heads: int,
    tag: str,
) -> Handle:
    """One-token attention against an externally fed KV cache.

    The query is the current token's projection, (1, heads, 1, d);
    the key/value caches arrive as graph *inputs* shaped by
    ``cache_len`` — exactly the skinny activation-by-activation GEMMs
    (1xd x dxL, then 1xL x Lxd) an autoregressive decode step issues.
    No mask: every cached position is visible to the new token.
    """
    head_dim = hidden // heads
    q = b.matmul(x, weight_shape=(hidden, hidden), name=f"{tag}_q")
    q = b.reshape(q, (1, 1, heads, head_dim), name=f"{tag}_qr")
    q = b.transpose(q, (0, 2, 1, 3), name=f"{tag}_qt")
    k_cache = b.input(
        (1, heads, head_dim, cache_len), name=f"{tag}_k_cache"
    )
    v_cache = b.input(
        (1, heads, cache_len, head_dim), name=f"{tag}_v_cache"
    )
    scores = b.matmul(q, k_cache, name=f"{tag}_qk")
    scores = b.softmax(scores, name=f"{tag}_attn")
    context = b.matmul(scores, v_cache, name=f"{tag}_ctx")
    context = b.transpose(context, (0, 2, 1, 3), name=f"{tag}_ct")
    context = b.reshape(context, (1, 1, hidden), name=f"{tag}_cr")
    return b.matmul(
        context, weight_shape=(hidden, hidden), name=f"{tag}_proj"
    )


def _decoder_trunk(
    b: GraphBuilder,
    tokens: Handle,
    seq: int,
    tag: str,
    *,
    cache_len: int = 0,
    hidden: int = DECODER_HIDDEN,
    heads: int = DECODER_HEADS,
    blocks: int = DECODER_BLOCKS,
    ffn: int = DECODER_FFN,
    vocab: int = DECODER_VOCAB,
) -> Handle:
    """Embed -> N pre-norm decoder blocks -> next-token logits.

    ``cache_len == 0`` builds the prefill form (causal attention over
    the whole prompt); a positive ``cache_len`` builds the single-token
    decode step against a KV cache of that length.
    """
    x = b.embedding(tokens, vocab=vocab, dim=hidden, name=f"{tag}_embed")
    pos = b.constant((1, seq, hidden), name=f"{tag}_pos")
    x = b.add(x, pos, name=f"{tag}_embed_add")
    x = b.layer_norm(x, name=f"{tag}_embed_ln")
    for block in range(blocks):
        bt = f"{tag}_b{block}"
        if cache_len:
            attn = _cached_attention(
                b, x, cache_len, hidden, heads, f"{bt}_attn"
            )
        else:
            attn = _causal_attention(
                b, x, seq, hidden, heads, f"{bt}_attn"
            )
        x = b.add(x, attn, name=f"{bt}_res1")
        x = b.layer_norm(x, name=f"{bt}_ln1")
        y = _ffn(b, x, hidden, ffn, f"{bt}_ffn")
        x = b.add(x, y, name=f"{bt}_res2")
        x = b.layer_norm(x, name=f"{bt}_ln2")
    logits = b.matmul(
        x, weight_shape=(hidden, vocab), name=f"{tag}_lm_head"
    )
    return b.softmax(logits, name=f"{tag}_next_token")


def build_decoder_prefill(seq: int = 64, **geometry) -> ComputationalGraph:
    """Standalone prefill variant: causal attention over ``seq`` tokens."""
    b = GraphBuilder(f"decoder_prefill{seq}")
    tokens = b.input((1, seq), name="prompt_ids")
    _decoder_trunk(b, tokens, seq, "prefill", **geometry)
    return b.build()


def build_decoder_step(cache_len: int = 64, **geometry) -> ComputationalGraph:
    """Standalone decode-step variant: one token vs a ``cache_len`` cache."""
    b = GraphBuilder(f"decoder_step{cache_len}")
    tokens = b.input((1, 1), name="token_id")
    _decoder_trunk(b, tokens, 1, "step", cache_len=cache_len, **geometry)
    return b.build()


def build_decoder_tiny(
    seq_lens: Sequence[int] = DECODER_SEQ_LENS,
) -> ComputationalGraph:
    """The zoo's int8 decoder workload: prefill + per-length decode steps.

    One graph holds the prefill network at ``seq_lens[0]`` plus a
    single-token decode step for every cache length in ``seq_lens`` —
    the static-shape approximation of a sequence growing from
    ``seq_lens[0]`` to ``seq_lens[-1]``.  The variants are independent
    subnetworks (an autoregressive loop runs them in turn, carrying the
    KV cache between calls), so compiling the model prices every shape
    the loop will see.
    """
    if not seq_lens:
        raise ValueError("decoder needs at least one sequence length")
    seq_lens = tuple(int(s) for s in seq_lens)
    if any(s < 2 for s in seq_lens):
        raise ValueError(f"cache lengths must be >= 2, got {seq_lens!r}")
    b = GraphBuilder("decoder_tiny")
    prompt = b.input((1, seq_lens[0]), name="prompt_ids")
    _decoder_trunk(b, prompt, seq_lens[0], "prefill")
    for cache_len in seq_lens:
        tok = b.input((1, 1), name=f"step{cache_len}_token_id")
        _decoder_trunk(
            b, tok, 1, f"step{cache_len}", cache_len=cache_len
        )
    return b.build()
