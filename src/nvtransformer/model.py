"""Toy pre-norm encoder-decoder Transformer and its reinterpreted twin.

The standard model is deliberately small and untrained: seeded random
weights, sinusoidal positions, greedy argmax decoding that encodes the
source once and computes one new decoder position per step.  `reinterpret`
swaps every attention site for denoising attention over a projected
posterior, with per-group dials; at the identity dial setting the two models
produce the same logits up to rounding.

Layer-norm gains and offsets are initialised with real spread (not 1/0) so
that post-norm vectors have varied norms; the norm-spread statistic the
prior estimator measures is what gives the pseudo-count dial its traction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attention import AttentionMask, AttentionParams, attention
from .denoising import (
    eval_dattn_multihead,
    nv_causal_attention,
    nv_self_attention,
)
from .nvib import (
    GROUPS,
    DpPosterior,
    EmpiricalPrior,
    NvibProjection,
    TauConfig,
    identity_init,
    project,
)
from .numeric import make_rng

__all__ = [
    "BOS_ID",
    "EOS_ID",
    "ModelConfig",
    "ModelWeights",
    "NvModel",
    "init_weights",
    "forward_standard",
    "reinterpret",
    "sites",
    "forward_nv",
    "greedy_decode",
]

BOS_ID = 1
EOS_ID = 2

LN_EPS = 1e-5

# hooks: (group, layer_id, matrix) -> None
SiteHook = Callable[[str, int, np.ndarray], None] | None


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 64
    dim: int = 16
    heads: int = 2
    layers_enc: int = 2
    layers_dec: int = 2
    ffn_dim: int = 32
    max_len: int = 32

    def __post_init__(self):
        if self.vocab < 3:
            raise ValueError("vocab must cover BOS/EOS plus one token")
        if self.dim < 1 or self.dim % self.heads != 0:
            raise ValueError("heads must divide dim")
        for name in ("heads", "layers_enc", "layers_dec", "ffn_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LayerNormParams:
    g: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class FfnParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class EncoderLayer:
    ln1: LayerNormParams
    self_attn: AttentionParams
    ln2: LayerNormParams
    ffn: FfnParams


@dataclass(frozen=True)
class DecoderLayer:
    ln1: LayerNormParams
    causal_attn: AttentionParams
    ln2: LayerNormParams
    cross_attn: AttentionParams
    ln3: LayerNormParams
    ffn: FfnParams


@dataclass(frozen=True)
class ModelWeights:
    config: ModelConfig
    tok_emb: np.ndarray
    pos_enc: np.ndarray
    enc: list[EncoderLayer]
    enc_ln: LayerNormParams
    dec: list[DecoderLayer]
    dec_ln: LayerNormParams
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass(frozen=True)
class NvModel:
    """Reinterpreted model: base weights plus per-site priors and dials."""

    base: ModelWeights
    priors: list[EmpiricalPrior]
    taus: TauConfig
    enc_projs: list[NvibProjection] = field(repr=False)
    cross_projs: list[NvibProjection] = field(repr=False)
    dec_projs: list[NvibProjection] = field(repr=False)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, (max_len, dim)."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    idx = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    pe = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def _init_attn(rng: np.random.Generator, d: int, h: int) -> AttentionParams:
    # modest query/key scale keeps score spread small relative to the
    # pseudo-count dial's reach; values carry most of the signal
    qk = 0.25 / np.sqrt(d)
    v = 0.7 / np.sqrt(d)
    return AttentionParams(
        wq=rng.normal(0.0, qk, (d, d)),
        wk=rng.normal(0.0, qk, (d, d)),
        wv=rng.normal(0.0, v, (d, d)),
        bq=rng.normal(0.0, 0.05, d),
        bk=rng.normal(0.0, 0.05, d),
        bv=rng.normal(0.0, 0.05, d),
        heads=h,
    )


def _init_ln(rng: np.random.Generator, d: int) -> LayerNormParams:
    # wide gain/offset spread -> varied post-norm vector norms; the prior
    # dial works in units of that spread, so a flat 1/0 init would leave it
    # with nothing to push against
    return LayerNormParams(
        g=rng.uniform(0.2, 3.0, d),
        b=rng.normal(0.0, 0.75, d),
    )


def _init_ffn(rng: np.random.Generator, d: int, f: int) -> FfnParams:
    return FfnParams(
        w1=rng.normal(0.0, 0.7 / np.sqrt(d), (d, f)),
        b1=rng.normal(0.0, 0.05, f),
        w2=rng.normal(0.0, 0.7 / np.sqrt(f), (f, d)),
        b2=rng.normal(0.0, 0.05, d),
    )


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights for the toy model."""
    rng = make_rng(seed)
    d, h = config.dim, config.heads
    enc = [
        EncoderLayer(
            ln1=_init_ln(rng, d),
            self_attn=_init_attn(rng, d, h),
            ln2=_init_ln(rng, d),
            ffn=_init_ffn(rng, d, config.ffn_dim),
        )
        for _ in range(config.layers_enc)
    ]
    dec = [
        DecoderLayer(
            ln1=_init_ln(rng, d),
            causal_attn=_init_attn(rng, d, h),
            ln2=_init_ln(rng, d),
            cross_attn=_init_attn(rng, d, h),
            ln3=_init_ln(rng, d),
            ffn=_init_ffn(rng, d, config.ffn_dim),
        )
        for _ in range(config.layers_dec)
    ]
    return ModelWeights(
        config=config,
        tok_emb=rng.normal(0.0, 1.0, (config.vocab, d)),
        pos_enc=sinusoidal_positions(config.max_len, d),
        enc=enc,
        enc_ln=_init_ln(rng, d),
        dec=dec,
        dec_ln=_init_ln(rng, d),
        w_out=rng.normal(0.0, 0.7 / np.sqrt(d), (d, config.vocab)),
        b_out=rng.normal(0.0, 0.05, config.vocab),
    )


def layer_norm(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * p.g + p.b


def _ffn(x: np.ndarray, p: FfnParams) -> np.ndarray:
    return np.maximum(x @ p.w1 + p.b1, 0.0) @ p.w2 + p.b2


def _check_tokens(ids, config: ModelConfig, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-D token sequence")
    if ids.size > config.max_len:
        raise ValueError(
            f"{what} length {ids.size} exceeds max_len {config.max_len}"
        )
    if np.any(ids < 0) or np.any(ids >= config.vocab):
        raise ValueError(f"{what} contains ids outside [0, {config.vocab})")
    return ids


def _embed(w: ModelWeights, ids: np.ndarray, start: int = 0) -> np.ndarray:
    """Scaled token embeddings plus the positions start, start+1, ..."""
    d = w.config.dim
    return w.tok_emb[ids] * np.sqrt(d) + w.pos_enc[start : start + ids.size]


def _encode(w: ModelWeights, src: np.ndarray, self_attn) -> np.ndarray:
    """Final encoder states (the cross sites' memory) for a checked source.

    `self_attn(l, z)` is encoder layer l's attention update for its
    post-norm rows z, the one place the two model kinds differ.
    """
    x = _embed(w, src)
    for l, lay in enumerate(w.enc):
        x = x + self_attn(l, layer_norm(x, lay.ln1))
        x = x + _ffn(layer_norm(x, lay.ln2), lay.ffn)
    return layer_norm(x, w.enc_ln)


def _decode(w: ModelWeights, y: np.ndarray, causal, cross) -> np.ndarray:
    """Logits for embedded target rows y through the decoder stack.

    `causal(l, z)` and `cross(l, q)` are decoder layer l's attention
    updates for its post-norm rows, the sites where the two model kinds
    (and full-sequence passes and decode steps) differ.
    """
    for l, lay in enumerate(w.dec):
        y = y + causal(l, layer_norm(y, lay.ln1))
        y = y + cross(l, layer_norm(y, lay.ln2))
        y = y + _ffn(layer_norm(y, lay.ln3), lay.ffn)
    return layer_norm(y, w.dec_ln) @ w.w_out + w.b_out


def _attention_sites(model, src: np.ndarray, hook: SiteHook = None):
    """Encode a checked source once; return (weights, causal, cross), the
    decoder's attention sites for `_decode` over a whole masked target.

    `hook` is forward_standard's site_hook or forward_nv's map_hook.  The
    twin projects each cross site's posterior once, up front.
    """
    if isinstance(model, NvModel):
        w = model.base

        def sink(group: str, layer_id: int):
            if hook is None:
                return None
            return lambda mat: hook(group, layer_id, mat)

        def self_attn(l: int, z: np.ndarray) -> np.ndarray:
            return nv_self_attention(
                z, model.enc_projs[l], w.enc[l].self_attn, map_sink=sink("encoder", l)
            )

        mem = _encode(w, src, self_attn)
        posts = [project(mem, p) for p in model.cross_projs]

        def causal(l: int, z: np.ndarray) -> np.ndarray:
            return nv_causal_attention(
                z, model.dec_projs[l], w.dec[l].causal_attn, map_sink=sink("decoder", l)
            )

        def cross(l: int, q: np.ndarray) -> np.ndarray:
            return eval_dattn_multihead(
                q, posts[l], w.dec[l].cross_attn, map_sink=sink("cross", l)
            )

        return w, causal, cross

    w = model
    see = hook or (lambda group, layer_id, z: None)

    def self_attn(l: int, z: np.ndarray) -> np.ndarray:
        see("encoder", l, z)
        return attention(z, z, w.enc[l].self_attn)

    mem = _encode(w, src, self_attn)

    def causal(l: int, z: np.ndarray) -> np.ndarray:
        see("decoder", l, z)
        return attention(z, z, w.dec[l].causal_attn, mask=AttentionMask("causal"))

    def cross(l: int, q: np.ndarray) -> np.ndarray:
        see("cross", l, mem)
        return attention(q, mem, w.dec[l].cross_attn)

    return w, causal, cross


def forward_standard(
    w: ModelWeights, src, tgt, site_hook: SiteHook = None
) -> np.ndarray:
    """Teacher-forced logits, one row per target position.

    `site_hook(group, layer_id, z)` receives the matrix each attention site
    consumes as keys/values (post-norm vectors; final encoder states for the
    cross sites).  Used by the prior estimator.
    """
    src = _check_tokens(src, w.config, "source")
    tgt = _check_tokens(tgt, w.config, "target")
    w, causal, cross = _attention_sites(w, src, site_hook)
    return _decode(w, _embed(w, tgt), causal, cross)


def sites(config: ModelConfig) -> list[tuple[str, int]]:
    """Every attention site as (group, layer id): encoder 0.., cross 0..,
    decoder 0.., the groups in GROUPS order."""
    layers = {
        "encoder": config.layers_enc,
        "cross": config.layers_dec,
        "decoder": config.layers_dec,
    }
    return [(g, i) for g in GROUPS for i in range(layers[g])]


def _canonical_priors(
    priors: list[EmpiricalPrior], config: ModelConfig
) -> list[EmpiricalPrior]:
    """Order priors as `sites(config)`; require exact coverage of every
    attention site."""
    want = sites(config)
    by_site = {(p.layer_group, p.layer_id): p for p in priors}
    if len(by_site) != len(priors):
        raise ValueError("duplicate prior for an attention site")
    missing = [s for s in want if s not in by_site]
    extra = [s for s in by_site if s not in want]
    if missing or extra:
        raise ValueError(
            f"prior coverage mismatch: missing {missing}, extra {extra}"
        )
    for p in priors:
        if p.dim != config.dim:
            raise ValueError("prior dimension does not match the model")
    return [by_site[s] for s in want]


def reinterpret(
    w: ModelWeights, priors: list[EmpiricalPrior], taus: TauConfig
) -> NvModel:
    """Attach identity-initialised projections to every attention site.

    The base weights are shared, not copied; only the projections depend on
    the dial settings, and each group's dials touch only that group's sites.
    """
    config = w.config
    ordered = _canonical_priors(priors, config)
    d, h = config.dim, config.heads

    def build(p: EmpiricalPrior) -> NvibProjection:
        return identity_init(
            p, taus.tau_alpha(p.layer_group), taus.tau_sigma(p.layer_group), d, h
        )

    ne, nd = config.layers_enc, config.layers_dec
    return NvModel(
        base=w,
        priors=ordered,
        taus=taus,
        enc_projs=[build(p) for p in ordered[:ne]],
        cross_projs=[build(p) for p in ordered[ne : ne + nd]],
        dec_projs=[build(p) for p in ordered[ne + nd :]],
    )


def forward_nv(
    m: NvModel, src, tgt, map_hook: SiteHook = None
) -> np.ndarray:
    """Teacher-forced logits through the reinterpreted model.

    `map_hook(group, layer_id, weights)` receives each site's head-averaged
    (queries, n+1) attention matrix; the last column is the prior's.
    """
    src = _check_tokens(src, m.base.config, "source")
    tgt = _check_tokens(tgt, m.base.config, "target")
    w, causal, cross = _attention_sites(m, src, map_hook)
    return _decode(w, _embed(w, tgt), causal, cross)


def _step_logits(model, src: np.ndarray, positions: int):
    """Coroutine of last-row logits, one new decoder position per step.

    Prime it with next(), then send the target tokens one at a time, BOS
    first; each send returns the logits row of the token just sent, which
    is forward_*(src, prefix)[-1] up to rounding.  `src` must be checked;
    at most `positions` tokens may be sent.

    The cross sites are `_attention_sites`'; the causal site appends
    position t's post-norm row to decoder layer l's append-only cache and
    attends over the whole cache with no mask: causal masking means earlier
    rows never change.  The standard model caches the rows themselves; the
    twin caches their projected components, the [P] row kept last.
    """
    w, _, cross = _attention_sites(model, src)
    if isinstance(model, NvModel):
        n, d = positions + 1, w.config.dim
        # mu, sigma and log_alpha rows of every layer's causal posterior
        caches = [(np.empty((n, d)), np.empty((n, d)), np.empty(n)) for _ in w.dec]

        def causal(l: int, z: np.ndarray) -> np.ndarray:
            # the token row lands where [P] was and [P] moves down one
            rows = project(z, model.dec_projs[l])
            for buf, new in zip(caches[l], (rows.mu, rows.sigma, rows.log_alpha)):
                buf[t : t + 2] = new
            dp = DpPosterior(*(buf[: t + 2] for buf in caches[l]))
            return eval_dattn_multihead(z, dp, w.dec[l].causal_attn)

    else:
        caches = [np.empty((positions, w.config.dim)) for _ in w.dec]

        def causal(l: int, z: np.ndarray) -> np.ndarray:
            caches[l][t] = z[0]
            return attention(z, caches[l][: t + 1], w.dec[l].causal_attn)

    tok = yield
    for t in range(positions):  # the causal sites read t, the new position
        tok = yield _decode(w, _embed(w, np.array([tok]), start=t), causal, cross)[0]


def greedy_decode(model, src, max_steps: int) -> list[int]:
    """Argmax decoding from BOS until EOS or max_steps tokens.

    Ties resolve to the lowest token id.  Returns the generated tokens
    (EOS included when emitted); max_steps == 0 gives an empty sequence.
    The source is encoded once and each step computes one new decoder
    position (`_step_logits`); forward_standard / forward_nv are its
    teacher-forced oracle.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if isinstance(model, NvModel):
        config = model.base.config
    elif isinstance(model, ModelWeights):
        config = model.config
    else:
        raise TypeError(f"cannot decode with {type(model).__name__}")
    src = _check_tokens(src, config, "source")
    if max_steps == 0:
        return []

    # the prefix never grows past max_len
    positions = min(max_steps, config.max_len)
    steps = _step_logits(model, src, positions)
    next(steps)
    out: list[int] = []
    tok = BOS_ID
    for _ in range(positions):
        tok = int(np.argmax(steps.send(tok)))
        out.append(tok)
        if tok == EOS_ID:
            break
    return out
