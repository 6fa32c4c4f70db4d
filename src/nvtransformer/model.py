"""Toy pre-norm encoder-decoder Transformer and its reinterpreted twin.

The standard model is deliberately small and untrained: seeded random
weights, sinusoidal positions, greedy argmax decoding that encodes the
source once and computes one new decoder position per step.  `reinterpret`
swaps every attention site for denoising attention over a projected
posterior, with per-group dials; at the identity dial setting the two models
produce the same logits up to rounding.  Both run the same site walk on the
same head-space kernel and differ only in their key map (`_site_ops`): a
posterior without forms is standard attention, the twin at zero token
variance and no prior.

The walk runs a padded batch of sequences with their key validity; a single
`forward_standard`, `forward_nv` or `greedy_decode` is the batch of one.
Twins of one base at different dials run as one batch too (`_Twins`), each
row at its own dials; a dial sweep leads that batch with the base model's
own rows, a mixed batch with an all-zero `f` for them, and so runs its
baseline and every point and input pair in one teacher-forced pass and one
decode, which share one encoder pass and cross keys, with one kernel call
per site.  A batched decode steps every row until all have emitted EOS; a
row's positions after its EOS are padding, its tokens cut at its first EOS.

Layer-norm gains and offsets are initialised with real spread (not 1/0) so
that post-norm vectors have varied norms; the norm-spread statistic the
prior estimator measures is what gives the pseudo-count dial its traction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .denoising import (
    KeyedPosterior,
    SiteForms,
    eval_dattn_multihead,
    head_keys,
    site_forms,
    standard_keys,
)
# attention and project are not called here; bench/spans.py traces them in
# this namespace.
from .attention import AttentionParams, attention
from .nvib import (
    GROUPS,
    EmpiricalPrior,
    NvibProjection,
    TauConfig,
    identity_init,
    project,
)
from .numeric import _check_integer, affine, make_rng

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
MAX_WEIGHTS = 2**27  # a config's float64 weights: 1 GiB

# hooks: (group, layer_id, matrix) -> None
SiteHook = Callable[[str, int, np.ndarray], None] | None


@dataclass(frozen=True)
class ModelConfig:
    """The model's sizes: integers, not bools, heads dividing dim, whose
    weights (`init_weights`) number at most MAX_WEIGHTS, 2**27 float64 or
    1 GiB, so a config too large to build is refused before any allocation."""

    vocab: int = 64
    dim: int = 16
    heads: int = 2
    layers_enc: int = 2
    layers_dec: int = 2
    ffn_dim: int = 32
    max_len: int = 32

    def __post_init__(self):
        for f in fields(self):
            _check_integer(getattr(self, f.name), f.name)
        if self.vocab < 3:
            raise ValueError("vocab must cover BOS/EOS plus one token")
        for name in ("heads", "layers_enc", "layers_dec", "ffn_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.dim < 1 or self.dim % self.heads != 0:
            raise ValueError("heads must divide dim")
        d, v, ffn, layers = self.dim, self.vocab, self.ffn_dim, self.layers_enc + self.layers_dec
        # embeddings, positions, final norms, output; layers; a decoder's cross site
        size = (2 * v + self.max_len + 4) * d + v + layers * (3 * d * d + 2 * d * ffn + 8 * d + ffn)
        size += self.layers_dec * (3 * d * d + 5 * d)
        if size > MAX_WEIGHTS:
            raise ValueError(f"config has {size} weights, more than MAX_WEIGHTS {MAX_WEIGHTS}")


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
class _Twins:
    """Twins of one base for a padded batch, made from its base, priors and
    dials: its first `head` rows run the base itself, and row head+b runs
    its twin at taus[b].  On construction the priors are put in `sites`
    order, then each site's projection and forms (`projs`, `forms`, keyed
    by (group, layer id)) are built for the twins in one pass, each group's
    dials touching only its own sites; `f` leads with `head` zero rows."""

    base: ModelWeights
    priors: list[EmpiricalPrior]
    taus: TauConfig | list[TauConfig]
    head: int = 0
    projs: dict[tuple[str, int], NvibProjection] = field(init=False, repr=False)
    forms: dict[tuple[str, int], SiteForms] = field(init=False, repr=False)

    def __post_init__(self):
        config, taus, head = self.base.config, self.taus, self.head
        one = isinstance(taus, TauConfig)
        if one != isinstance(self, NvModel):
            raise TypeError("an NvModel runs at one TauConfig, a _Twins batch at a list")
        params = _site_params(self.base)
        priors = _canonical_priors(self.priors, config)
        projs, forms = {}, {}
        for p in priors:
            site = g, _ = (p.layer_group, p.layer_id)
            dials = ((taus.tau_alpha(g), taus.tau_sigma(g)) if one
                     else np.array([(t.tau_alpha(g), t.tau_sigma(g)) for t in taus]).T)
            projs[site] = identity_init(p, *dials, config.dim, config.heads)
            f = forms[site] = site_forms(projs[site], params[site])
            if head:
                zero = np.zeros((head,) + f.f.shape[1:])
                forms[site] = replace(f, f=np.concatenate((zero, f.f)))
        # frozen: the built fields go in past the dataclass's __setattr__
        vars(self).update(priors=priors, projs=projs, forms=forms)


@dataclass(frozen=True)
class NvModel(_Twins):
    """Reinterpreted model: base weights plus per-site priors and dials, the
    batch of twins that all run at one TauConfig.
    `dataclasses.replace(twin, taus=...)` is the twin at other dials."""

    taus: TauConfig
    head: int = field(default=0, init=False)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, (max_len, dim)."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    idx = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    pe = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


# init(rng, shape) -> a freshly drawn tensor
Init = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


def _normal(std: float) -> Init:
    return lambda rng, shape: rng.normal(0.0, std, shape)


def _build(
    config: ModelConfig, leaf: Callable[[str, tuple[int, ...], Init], np.ndarray]
) -> ModelWeights:
    """The parameter tree, each tensor asked of `leaf(name, shape, init)` by
    NVTX name in the init's draw order: encoder layers, decoder layers, then
    embedding, positions, final norms and output layer."""
    d, f, v, n = config.dim, config.ffn_dim, config.vocab, config.max_len
    bias = _normal(0.05)
    fan_d, fan_f = _normal(0.7 / np.sqrt(d)), _normal(0.7 / np.sqrt(f))
    # modest query/key scale keeps score spread small relative to the
    # pseudo-count dial's reach; values carry most of the signal
    qk = _normal(0.25 / np.sqrt(d))
    # wide gain/offset spread -> varied post-norm vector norms; the prior
    # dial works in units of that spread, so a flat 1/0 init would leave it
    # with nothing to push against
    gain = lambda rng, shape: rng.uniform(0.2, 3.0, shape)
    offset = _normal(0.75)

    def attn(prefix: str) -> AttentionParams:
        return AttentionParams(
            wq=leaf(f"{prefix}.wq", (d, d), qk),
            wk=leaf(f"{prefix}.wk", (d, d), qk),
            wv=leaf(f"{prefix}.wv", (d, d), fan_d),
            bq=leaf(f"{prefix}.bq", (d,), bias),
            bk=leaf(f"{prefix}.bk", (d,), bias),
            bv=leaf(f"{prefix}.bv", (d,), bias),
            heads=config.heads,
        )

    def ln(prefix: str) -> LayerNormParams:
        return LayerNormParams(
            g=leaf(f"{prefix}.g", (d,), gain), b=leaf(f"{prefix}.b", (d,), offset)
        )

    def ffn(prefix: str) -> FfnParams:
        return FfnParams(
            w1=leaf(f"{prefix}.w1", (d, f), fan_d),
            b1=leaf(f"{prefix}.b1", (f,), bias),
            w2=leaf(f"{prefix}.w2", (f, d), fan_f),
            b2=leaf(f"{prefix}.b2", (d,), bias),
        )

    enc = [
        EncoderLayer(
            ln1=ln(f"enc.{i}.ln1"),
            self_attn=attn(f"enc.{i}.self"),
            ln2=ln(f"enc.{i}.ln2"),
            ffn=ffn(f"enc.{i}.ffn"),
        )
        for i in range(config.layers_enc)
    ]
    dec = [
        DecoderLayer(
            ln1=ln(f"dec.{i}.ln1"),
            causal_attn=attn(f"dec.{i}.causal"),
            ln2=ln(f"dec.{i}.ln2"),
            cross_attn=attn(f"dec.{i}.cross"),
            ln3=ln(f"dec.{i}.ln3"),
            ffn=ffn(f"dec.{i}.ffn"),
        )
        for i in range(config.layers_dec)
    ]
    return ModelWeights(
        config=config,
        tok_emb=leaf("tok_emb", (v, d), _normal(1.0)),
        pos_enc=leaf("pos_enc", (n, d), lambda _, s: sinusoidal_positions(*s)),
        enc=enc,
        enc_ln=ln("enc.final_ln"),
        dec=dec,
        dec_ln=ln("dec.final_ln"),
        w_out=leaf("out.w", (d, v), fan_d),
        b_out=leaf("out.b", (v,), bias),
    )


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights for the toy model."""
    rng = make_rng(seed)
    return _build(config, lambda name, shape, init: init(rng, shape))


def layer_norm(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    # np.mean is a sum over the axis over its length, and np.var the mean of
    # the same centred squares: bit-identical, without their wrappers' cost
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    xc /= np.sqrt(var + LN_EPS)
    xc *= p.g
    xc += p.b
    return xc


def _ffn(x: np.ndarray, p: FfnParams) -> np.ndarray:
    hidden = affine(x, p.w1, p.b1)
    return affine(np.maximum(hidden, 0.0, out=hidden), p.w2, p.b2)


def _check_tokens(ids, config: ModelConfig, what: str) -> np.ndarray:
    """ids as int64 if they are a usable token sequence for `config`, else
    a ValueError "{what} not usable: <why>"; the one rule for every input."""
    bools = isinstance(ids, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, ids))
    ids = np.asarray(ids)
    if ids.ndim != 1:
        why = "not a 1-D token sequence"
    elif ids.size == 0:
        why = "length 0, but a token sequence must be nonempty"
    elif ids.size > config.max_len:
        why = f"length {ids.size} exceeds max_len {config.max_len}"
    elif ids.dtype.kind not in "iu":
        # NumPy holds a float id, or an integer past int64, this way
        why = "contains ids that are not int64-sized integers"
    elif bools:  # NumPy reads True as 1
        why = "contains a bool, not a token id"
    elif ids.min() < 0 or ids.max() >= config.vocab:
        why = f"contains ids outside [0, {config.vocab})"
    else:
        return ids.astype(np.int64, copy=False)
    raise ValueError(f"{what} not usable: {why}")


def _pad(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Checked token sequences as a zero-padded (B, L) id matrix and its
    (B, L) validity."""
    lengths = np.array([len(s) for s in seqs])
    valid = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(valid.shape, dtype=np.int64)
    ids[valid] = np.concatenate(seqs)
    return ids, valid


def _embed(w: ModelWeights, ids: np.ndarray, start: int = 0) -> np.ndarray:
    """Scaled token embeddings plus the positions start, start+1, ...; ids
    is a padded batch (B, L)."""
    d = w.config.dim
    return w.tok_emb[ids] * np.sqrt(d) + w.pos_enc[start : start + ids.shape[-1]]


def _encode(w: ModelWeights, src: np.ndarray, self_attn) -> np.ndarray:
    """Final encoder states (the cross sites' memory) for a padded batch of
    checked sources (B, S).

    `self_attn(l, z)` is encoder layer l's attention update for its
    post-norm rows z.
    """
    x = _embed(w, src)
    for l, lay in enumerate(w.enc):
        x = x + self_attn(l, layer_norm(x, lay.ln1))
        x = x + _ffn(layer_norm(x, lay.ln2), lay.ffn)
    return layer_norm(x, w.enc_ln)


def _decode(w: ModelWeights, y: np.ndarray, causal, cross) -> np.ndarray:
    """Logits for embedded target rows y through the decoder stack.

    `causal(l, z)` and `cross(l, q)` are decoder layer l's attention
    updates for its post-norm rows, the sites where full-sequence passes
    and decode steps differ.
    """
    for l, lay in enumerate(w.dec):
        y = y + causal(l, layer_norm(y, lay.ln1))
        y = y + cross(l, layer_norm(y, lay.ln2))
        y = y + _ffn(layer_norm(y, lay.ln3), lay.ffn)
    return affine(layer_norm(y, w.dec_ln), w.w_out, w.b_out)


def _site_params(w: ModelWeights) -> dict[tuple[str, int], AttentionParams]:
    """Every attention site's parameters, keyed (group, layer id) in `sites`
    order."""
    return dict(zip(
        sites(w.config),
        [lay.self_attn for lay in w.enc]
        + [lay.cross_attn for lay in w.dec]
        + [lay.causal_attn for lay in w.dec],
    ))


def _site_ops(model, hook=None):
    """(weights, keys, attend) of a model: the one place the model kinds
    differ, in their key map.

    `keys(site, rows, valid, out=None)` is what a site reads of its
    key/value rows, a `KeyedPosterior` (see `denoising`; its rows written to
    `out` if given).  The standard model's posterior has no forms, which is
    standard attention (`standard_keys`); the twin's is the projected
    posterior (`head_keys`).  Rows are a padded batch (B, n, d) whose (B, n)
    `valid` marks each sequence's real rows, all of them when None; a padded
    row's key has c = -inf and so takes no weight.  `attend(site, q, kv,
    causal=False)` attends queries q over such keys with the head-space
    kernel.  The twin is an NvModel, whose dials every row shares, or a
    `_Twins` batch; a mixed batch (`_Twins` with head n) leads with n rows
    of the standard model.

    `hook` is the standard model's `hook(group, layer_id, rows, valid)`,
    called from the key map with each site's key/value rows and their
    validity before they are keyed, or the twin's map hook
    `hook(group, layer_id, mat)`, given each site's head-averaged (B, m, n+1)
    weights, a mixed batch's standard rows first, whose [P] column is 0.
    """
    # head: how many standard rows lead the twins' rows; None when all do
    w, head = (model, None) if isinstance(model, ModelWeights) else (model.base, model.head)
    params = _site_params(w)

    def keys(site, rows, valid, out=None):
        p = params[site]
        if head is not None:
            return head_keys(rows, model.projs[site], p, model.forms[site], valid, head, out)
        if hook is not None:
            hook(*site, rows, valid)
        return standard_keys(rows, p, valid, out)

    def attend(site, q, kv, causal=False):
        sink = None if hook is None or head is None else lambda mat: hook(*site, mat)
        return eval_dattn_multihead(q, kv, params[site], causal, sink)

    return w, keys, attend


def _attention_sites(ops, src: np.ndarray, src_valid=None, memory=None):
    """Encode a padded batch of checked sources (B, S) with validity
    src_valid (all valid when None) once through `_site_ops`' ops; return
    `cross(l, q)`, the decoder's cross sites for `_decode`.  Each cross site
    keys the memory on its first attend, so hooks fire in site-walk order,
    into `memory`; one full for this batch skips encoding.  The causal sites
    are the caller's: whole targets under the causal mask in
    `_teacher_forced`, one new position per step in `_step_logits`.
    """
    w, keys, attend = ops
    memory = {} if memory is None else memory

    def self_attn(l: int, z: np.ndarray) -> np.ndarray:
        site = ("encoder", l)
        return attend(site, z, keys(site, z, src_valid))

    mem = _encode(w, src, self_attn) if len(memory) < len(w.dec) else None

    def cross(l: int, q: np.ndarray) -> np.ndarray:
        site = ("cross", l)
        if l not in memory:
            memory[l] = keys(site, mem, src_valid)
        return attend(site, q, memory[l])

    return cross


def forward_standard(
    w: ModelWeights, src, tgt, site_hook: SiteHook = None
) -> np.ndarray:
    """Teacher-forced logits, one row per target position.

    `site_hook(group, layer_id, z)` receives the matrix each attention site
    consumes as keys/values (post-norm vectors; final encoder states for the
    cross sites).  Acceptance criterion 8's two-pass estimator oracle uses it.
    """
    if not isinstance(w, ModelWeights):
        raise TypeError(f"forward_standard needs ModelWeights, got {type(w).__name__}")
    src = _check_tokens(src, w.config, "source")
    tgt = _check_tokens(tgt, w.config, "target")
    hook = None if site_hook is None else lambda g, l, z, valid: site_hook(g, l, z[0])
    return _teacher_forced(w, src[None], tgt[None], hook)[0]


def _teacher_forced(model, src, tgt, hook=None, src_valid=None, tgt_valid=None, memory=None):
    """Logits (B, L, vocab) of a padded batch of checked sources (B, S) and
    targets (B, L) through `_attention_sites` (with its `memory`) and
    `_decode`, with `_site_ops`' hook.  A causal site keys whole targets
    with their validity tgt_valid under the causal mask, which hides padded
    positions too, as they come last; padded rows' logits mean nothing."""
    w, keys, attend = ops = _site_ops(model, hook)
    cross = _attention_sites(ops, src, src_valid, memory)

    def causal(l: int, z: np.ndarray) -> np.ndarray:
        site = ("decoder", l)
        return attend(site, z, keys(site, z, tgt_valid), causal=True)

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
    """Attach identity-initialised projections to every attention site,
    with each site's head-space forms: `NvModel(w, priors, taus)`.

    The base weights are shared, not copied; only the projections and forms
    depend on the dial settings.
    """
    return NvModel(w, priors, taus)


def forward_nv(
    m: NvModel, src, tgt, map_hook: SiteHook = None
) -> np.ndarray:
    """Teacher-forced logits through the reinterpreted model.

    `map_hook(group, layer_id, weights)` receives each site's head-averaged
    (queries, n+1) attention matrix; the last column is the prior's.
    """
    if not isinstance(m, NvModel):
        raise TypeError(f"forward_nv needs an NvModel, got {type(m).__name__}")
    src = _check_tokens(src, m.base.config, "source")
    tgt = _check_tokens(tgt, m.base.config, "target")
    hook = None if map_hook is None else lambda g, l, mat: map_hook(g, l, mat[0])
    return _teacher_forced(m, src[None], tgt[None], hook)[0]


def _step_logits(model, src: np.ndarray, positions: int, src_valid=None, memory=None):
    """Coroutine of last-row logits, one new decoder position per step, for
    a padded batch of checked sources (B, S) with validity src_valid (all
    valid when None).

    Prime it with next(), then send the batch's target tokens (B,) one
    position at a time, BOS first; each send returns the (B, vocab) logits
    of the tokens just sent, which are forward_*(src, prefix)[-1] up to
    rounding.  At most `positions` tokens may be sent.  A row that has been
    sent EOS is finished: the positions it is stepped through afterwards are
    padding, keyed as such from its (B,) liveness.

    The cross sites are `_attention_sites`' (with its `memory`); each
    decoder layer's causal site keeps one posterior over a row buffer made
    at t=0: step t keys position t's n rows into buf[:, t : t+n] and
    attends over its prefix `upto(t+n)` with no mask, as causal masking
    means earlier rows never change.  The [P] row moves down one each step.
    """
    w, keys, attend = ops = _site_ops(model)
    cross = _attention_sites(ops, src, src_valid, memory)
    caches = {}  # one posterior over a row buffer per decoder layer
    live = np.ones(len(src), dtype=bool)  # the new position's validity

    def causal(l: int, z: np.ndarray) -> np.ndarray:
        site = ("decoder", l)
        if t == 0:  # this step's n rows, then room for positions - 1 more
            kv = keys(site, z, live[:, None])
            room = np.empty((len(z), positions - 1, kv.rows.shape[2]))
            caches[l] = KeyedPosterior(np.concatenate((kv.rows, room), axis=1), kv.forms)
        end = t + caches[l].rows.shape[1] - positions + 1
        if t > 0:
            keys(site, z, live[:, None], caches[l].rows[:, t:end])
        return attend(site, z, caches[l].upto(end))

    tok = yield
    for t in range(positions):  # the causal sites read t, the new position
        if t > 0:
            live &= tok != EOS_ID
        emb = _embed(w, np.asarray(tok)[:, None], start=t)
        tok = yield _decode(w, emb, causal, cross)[:, 0]


def _greedy(model, src: np.ndarray, positions: int, src_valid=None, memory=None) -> list[list[int]]:
    """Argmax decoding of a padded batch of checked sources (see
    `_step_logits`), at most `positions` tokens per row.  Every row steps
    until all have emitted EOS; each row's tokens end at its first EOS."""
    steps = _step_logits(model, src, positions, src_valid, memory)
    next(steps)
    tok = np.full(len(src), BOS_ID)
    out, done = [], np.zeros(len(src), dtype=bool)
    while len(out) < positions and not done.all():
        tok = np.argmax(steps.send(tok), axis=-1)
        out.append(tok)
        done |= tok == EOS_ID
    rows = np.stack(out, axis=1).tolist()
    return [r[: r.index(EOS_ID) + 1] if EOS_ID in r else r for r in rows]


def greedy_decode(model, src, max_steps: int) -> list[int]:
    """Argmax decoding from BOS until EOS or max_steps tokens.

    Ties resolve to the lowest token id.  Returns the generated tokens
    (EOS included when emitted); max_steps == 0 gives an empty sequence.
    The source is encoded once and each step computes one new decoder
    position (`_step_logits`, as a batch of one); forward_standard /
    forward_nv are its teacher-forced oracle.
    """
    _check_integer(max_steps, "max_steps")
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
    (out,) = _greedy(model, src[None], min(max_steps, config.max_len))
    return out
