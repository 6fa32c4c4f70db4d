"""Tests for streaming prior estimation."""

from dataclasses import replace

import numpy as np
import pytest

from nvtransformer import CorpusError, estimate_priors, prior_report
from nvtransformer import model as model_module
from nvtransformer import priors as priors_module
from nvtransformer.evaluate import make_random_corpus
from nvtransformer.model import BOS_ID, ModelConfig, _pad, forward_standard, init_weights, sites
from nvtransformer.priors import (
    BUCKET_TOKENS,
    VAR_FLOOR,
    WelfordAccumulator,
    _buckets,
    reservoir_subsample,
)
from reference import site_stats


class TestWelford:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(500, 6))
        acc = WelfordAccumulator((6,))
        acc.add_batch(x)
        assert acc.count == 500
        np.testing.assert_allclose(acc.mean, np.mean(x, axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            acc.variance(), np.var(x, axis=0, ddof=1), rtol=1e-12
        )

    def test_scalar_shape(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=200)
        acc = WelfordAccumulator(())
        acc.add_batch(x)
        np.testing.assert_allclose(acc.variance(), np.var(x, ddof=1), rtol=1e-12)

    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(120, 3))
        one = WelfordAccumulator((3,))
        one.add_batch(x)
        stream = WelfordAccumulator((3,))
        for row in x:
            stream.add_batch(row[None, :])
        assert stream.count == one.count
        np.testing.assert_allclose(stream.mean, one.mean, rtol=1e-12)
        np.testing.assert_allclose(stream.variance(), one.variance(), rtol=1e-11)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(70, 4))
        b = rng.normal(2.0, 0.5, size=(41, 4))
        left = WelfordAccumulator((4,))
        left.add_batch(a)
        right = WelfordAccumulator((4,))
        right.add_batch(b)
        left.merge(right)
        both = WelfordAccumulator((4,))
        both.add_batch(np.vstack([a, b]))
        assert left.count == 111
        np.testing.assert_allclose(left.mean, both.mean, rtol=1e-12)
        np.testing.assert_allclose(left.variance(), both.variance(), rtol=1e-11)

    def test_merge_into_empty(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(10, 2))
        src = WelfordAccumulator((2,))
        src.add_batch(x)
        dst = WelfordAccumulator((2,))
        dst.merge(src)
        np.testing.assert_array_equal(dst.mean, src.mean)
        assert dst.count == 10

    def test_empty_batch_is_noop(self):
        acc = WelfordAccumulator((2,))
        acc.add_batch(np.zeros((0, 2)))
        assert acc.count == 0

    def test_variance_needs_two(self):
        acc = WelfordAccumulator(())
        acc.add_batch(np.array([1.0]))
        with pytest.raises(CorpusError, match="at least 2"):
            acc.variance()

    def test_large_offset_stays_accurate(self):
        # a naive sum-of-squares estimator loses everything at this offset
        rng = np.random.default_rng(35)
        x = 1e8 + rng.normal(size=1000)
        acc = WelfordAccumulator(())
        for chunk in np.split(x, 20):
            acc.add_batch(chunk)
        np.testing.assert_allclose(acc.variance(), np.var(x, ddof=1), rtol=1e-9)


class TestSiteStats:
    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(36)
        d, h = 6, 2
        z = rng.normal(size=(40, d))
        p = site_stats(z, d, h, group="cross", layer_id=3)
        scale = np.sqrt(d / h)
        norms = np.sum(z * z, axis=1) / (2.0 * scale)
        np.testing.assert_allclose(p.mu_p, np.mean(z, axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            p.sigma_p, np.sqrt(np.var(z, axis=0, ddof=1)), rtol=1e-12
        )
        np.testing.assert_allclose(p.log_alpha0_p, np.mean(norms), rtol=1e-12)
        np.testing.assert_allclose(
            p.epsilon_alpha, np.std(norms, ddof=1), rtol=1e-11
        )
        assert (p.layer_group, p.layer_id) == ("cross", 3)

    def test_variance_floor(self):
        z = np.ones((5, 2))
        z[:, 1] = [1.0, 2.0, 3.0, 4.0, 5.0]
        p = site_stats(z, 2, 1)
        np.testing.assert_allclose(p.sigma_p[0], np.sqrt(VAR_FLOOR), rtol=1e-12)
        assert p.sigma_p[1] > 1.0

    def test_too_few_vectors(self):
        with pytest.raises(CorpusError, match="at least 2"):
            site_stats(np.ones((1, 2)), 2, 1)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="\\(n, d\\)"):
            site_stats(np.ones((4, 3)), 2, 1)


class TestReservoir:
    def test_deterministic(self):
        a = reservoir_subsample(1000, 0.01, seed=5)
        b = reservoir_subsample(1000, 0.01, seed=5)
        assert a == b

    def test_size_rounding(self):
        assert len(reservoir_subsample(1000, 0.001, seed=0)) == 1
        assert len(reservoir_subsample(1000, 0.25, seed=0)) == 250
        assert reservoir_subsample(7, 1.0, seed=0) == list(range(7))
        # round() takes a half to the even side: 2.5 -> 2, 3.5 -> 4
        assert len(reservoir_subsample(5, 0.5, seed=0)) == 2
        assert len(reservoir_subsample(7, 0.5, seed=0)) == 4

    def test_indices_sorted_unique_in_range(self):
        idx = reservoir_subsample(500, 0.05, seed=9)
        assert idx == sorted(set(idx))
        assert 0 <= idx[0] and idx[-1] < 500

    def test_seed_changes_sample(self):
        assert reservoir_subsample(1000, 0.01, 1) != reservoir_subsample(
            1000, 0.01, 2
        )

    def test_roughly_uniform(self):
        # every position should be picked about k/n of the time
        counts = np.zeros(10)
        for seed in range(2000):
            for i in reservoir_subsample(10, 0.3, seed):
                counts[i] += 1
        assert np.all(counts > 480) and np.all(counts < 720)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            reservoir_subsample(10, 0.0, 0)
        with pytest.raises(ValueError, match="fraction"):
            reservoir_subsample(10, 1.5, 0)

    @pytest.mark.parametrize("fraction", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_fraction_is_refused_by_name(self, toy_model, fraction):
        # fraction=True once ran as 1.0
        corpus = make_random_corpus(toy_model.config, 4, seed=1)
        with pytest.raises(ValueError, match="fraction must be a number, got (np.)?True"):
            estimate_priors(toy_model, corpus, fraction=fraction)

    def test_bool_id_in_a_corpus_is_corpus_error_naming_the_sequence(self, toy_model):
        corpus = make_random_corpus(toy_model.config, 4, seed=1)
        corpus[2] = [5, True, 7]
        with pytest.raises(CorpusError, match="sequence 2 not usable: contains a bool"):
            estimate_priors(toy_model, corpus)

    def test_empty_corpus(self):
        with pytest.raises(CorpusError, match="empty"):
            reservoir_subsample(0, 0.5, 0)


def _at_depth(toy_model, layers_dec):
    """The toy model, or one drawn like it with another decoder depth."""
    if layers_dec == toy_model.config.layers_dec:
        return toy_model
    return init_weights(replace(toy_model.config, layers_dec=layers_dec), seed=7)


def per_sequence_oracle(w, corpus):
    """Priors from one forward_standard per sequence and brute-force
    site_stats over each site's stacked vectors."""
    stacks: dict[tuple[str, int], list[np.ndarray]] = {}
    for seq in corpus:
        tgt = ([BOS_ID] + list(seq))[: w.config.max_len]
        forward_standard(
            w, seq, tgt,
            site_hook=lambda g, l, z: stacks.setdefault((g, l), []).append(z),
        )
    cfg = w.config
    return {
        site: site_stats(np.vstack(zs), cfg.dim, cfg.heads, *site)
        for site, zs in stacks.items()
    }


def assert_priors_close(got, want, atol):
    for p in got:
        q = want[(p.layer_group, p.layer_id)]
        np.testing.assert_allclose(p.mu_p, q.mu_p, atol=atol)
        np.testing.assert_allclose(p.sigma_p, q.sigma_p, atol=atol)
        np.testing.assert_allclose(p.log_alpha0_p, q.log_alpha0_p, atol=atol)
        np.testing.assert_allclose(p.epsilon_alpha, q.epsilon_alpha, atol=atol)


class TestEstimatePriors:
    def test_site_coverage(self, toy_priors):
        sites = sorted((p.layer_group, p.layer_id) for p in toy_priors)
        assert sites == [
            ("cross", 0), ("cross", 1),
            ("decoder", 0), ("decoder", 1),
            ("encoder", 0), ("encoder", 1),
        ]

    def test_streaming_matches_brute_force(self, toy_model):
        corpus = make_random_corpus(toy_model.config, 60, seed=44)
        got = estimate_priors(toy_model, corpus)
        assert_priors_close(got, per_sequence_oracle(toy_model, corpus), 1e-9)

    def test_shard_invariance(self, toy_model):
        corpus = make_random_corpus(toy_model.config, 50, seed=45)
        one = estimate_priors(toy_model, corpus, shards=1)
        four = estimate_priors(toy_model, corpus, shards=4)
        for a, b in zip(one, four):
            np.testing.assert_allclose(a.mu_p, b.mu_p, atol=1e-9)
            np.testing.assert_allclose(a.sigma_p, b.sigma_p, atol=1e-9)
            np.testing.assert_allclose(a.log_alpha0_p, b.log_alpha0_p, atol=1e-9)
            np.testing.assert_allclose(
                a.epsilon_alpha, b.epsilon_alpha, atol=1e-9
            )

    def test_more_shards_than_sequences(self, toy_model):
        # four of the seven shards hold no sequence and merge as nothing
        corpus = make_random_corpus(toy_model.config, 3, seed=48)
        one = estimate_priors(toy_model, corpus, shards=1)
        seven = estimate_priors(toy_model, corpus, shards=7)
        for a, b in zip(one, seven):
            np.testing.assert_allclose(a.mu_p, b.mu_p, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(a.sigma_p, b.sigma_p, rtol=1e-13)
            np.testing.assert_allclose(a.log_alpha0_p, b.log_alpha0_p, rtol=1e-13)
            np.testing.assert_allclose(a.epsilon_alpha, b.epsilon_alpha, rtol=1e-13)

    def test_shards_past_the_subsample_cost_nothing(self, toy_model, monkeypatch):
        # shards past the three sequences would hold nothing: they are
        # neither bucketed nor looped over, and the priors are those of one
        # shard per sequence, bit for bit
        corpus = make_random_corpus(toy_model.config, 3, seed=48)
        want = estimate_priors(toy_model, corpus, shards=3)
        calls = []
        monkeypatch.setattr(priors_module, "_buckets",
                            lambda lengths: calls.append(lengths.size) or _buckets(lengths))
        got = estimate_priors(toy_model, corpus, shards=10**5)
        assert calls == [1, 1, 1]
        for a, b in zip(want, got):
            for name in ("mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_subsample_uses_reservoir_indices(self, toy_model):
        corpus = make_random_corpus(toy_model.config, 40, seed=46)
        got = estimate_priors(toy_model, corpus, fraction=0.5, seed=11)
        idx = reservoir_subsample(40, 0.5, seed=11)
        manual = estimate_priors(toy_model, [corpus[i] for i in idx])
        for a, b in zip(got, manual):
            np.testing.assert_allclose(a.mu_p, b.mu_p, atol=1e-12)
            np.testing.assert_allclose(a.epsilon_alpha, b.epsilon_alpha, atol=1e-12)

    def test_bad_sequence_is_corpus_error(self, toy_model):
        with pytest.raises(CorpusError, match="not usable"):
            estimate_priors(toy_model, [[3, 4], [3, 9999]])

    def test_empty_corpus(self, toy_model):
        with pytest.raises(CorpusError, match="empty"):
            estimate_priors(toy_model, [])

    def test_bad_shards(self, toy_model):
        with pytest.raises(ValueError, match="shards"):
            estimate_priors(toy_model, [[3, 4]], shards=0)


class TestBucketedPass:
    """The padded, length-bucketed corpus pass against the per-sequence
    oracle, on every source length from 1 to max_len."""

    @pytest.fixture(scope="class")
    def every_length(self, toy_model):
        # lengths 1..max_len five times over, shuffled: length-1 sources,
        # targets cut at max_len and many buckets' worth of tokens
        cfg = toy_model.config
        rng = np.random.default_rng(47)
        lengths = np.tile(np.arange(1, cfg.max_len + 1), 5)
        rng.shuffle(lengths)
        corpus = [rng.integers(3, cfg.vocab, n).tolist() for n in lengths]
        assert sum(lengths) > 4 * BUCKET_TOKENS
        return corpus

    # the toy model's two decoder layers at shards 1 and 3, then one and
    # three decoder layers, where the forward stops at other sites
    @pytest.mark.parametrize("layers_dec, shards", [
        pytest.param(2, 1, id="1"),
        pytest.param(2, 3, id="3"),
        *(pytest.param(layers, shards, id=f"{shards}-dec{layers}")
          for layers in (1, 3) for shards in (1, 3)),
    ])
    def test_matches_per_sequence_oracle(self, toy_model, every_length, layers_dec, shards):
        w = _at_depth(toy_model, layers_dec)
        got = estimate_priors(w, every_length, shards=shards)
        assert_priors_close(got, per_sequence_oracle(w, every_length), 1e-9)

    @pytest.mark.parametrize("budget", [1, 10**6])
    def test_bucket_size_does_not_matter(self, toy_model, every_length, budget, monkeypatch):
        # one sequence per bucket, and the whole corpus in one bucket
        usual = estimate_priors(toy_model, every_length)
        monkeypatch.setattr(priors_module, "BUCKET_TOKENS", budget)
        got = estimate_priors(toy_model, every_length)
        assert_priors_close(got, {(p.layer_group, p.layer_id): p for p in usual}, 1e-12)

    def test_buckets_are_sorted_and_fill_the_budget(self):
        lengths = np.random.default_rng(49).integers(1, 33, 300)
        buckets = _buckets(lengths)
        np.testing.assert_array_equal(
            np.concatenate(buckets), np.argsort(lengths, kind="stable")
        )
        for bucket, after in zip(buckets, buckets[1:] + [None]):
            assert bucket.size * lengths[bucket].max() <= BUCKET_TOKENS
            if after is not None:  # the next sequence would not have fit
                assert (bucket.size + 1) * lengths[after[0]] > BUCKET_TOKENS
        # a sequence longer than the budget goes alone
        assert [b.tolist() for b in _buckets(np.array([2, BUCKET_TOKENS + 1]))] == [[0], [1]]

    @pytest.mark.parametrize("layers_dec", [1, 2, 3])
    def test_forward_stops_after_the_last_site(
        self, toy_model, every_length, layers_dec, monkeypatch
    ):
        # per bucket: every encoder layer's attention, then each decoder
        # layer's causal and cross attention up to the last decoder layer's
        # causal site, where the forward stops before attending.  Every
        # cross site reads the encoder states, accumulated once at cross 0;
        # with one decoder layer, cross 0 is the last site.
        w = _at_depth(toy_model, layers_dec)
        enc = w.config.layers_enc
        forwards, attended, added = [], [], []
        teacher_forced, kernel = priors_module._teacher_forced, model_module.eval_dattn_multihead
        add = priors_module._SiteAcc.add

        def counting_forward(*args):
            forwards.append(1)
            return teacher_forced(*args)

        def counting_kernel(*args, **kwargs):
            attended.append(1)
            return kernel(*args, **kwargs)

        def counting_add(*args):
            added.append(1)
            return add(*args)

        monkeypatch.setattr(priors_module, "_teacher_forced", counting_forward)
        monkeypatch.setattr(model_module, "eval_dattn_multihead", counting_kernel)
        monkeypatch.setattr(priors_module._SiteAcc, "add", counting_add)
        estimate_priors(w, every_length)
        assert len(forwards) > 1
        per_forward = enc + 1 if layers_dec == 1 else enc + 2 * layers_dec - 2
        assert len(attended) == len(forwards) * per_forward
        assert len(added) == len(forwards) * (enc + layers_dec + 1)

    def test_memory_is_selected_once_per_bucket(self, toy_model, every_length, monkeypatch):
        # six decoder layers: the hook is offered each site's rows and
        # their validity, and selects the valid rows of every encoder and
        # causal site and of cross 0 alone, not of cross 1..4, whose shared
        # memory cross 0 has read.  The priors are bit for bit those of a
        # walk that selects every site's rows and runs to the end.
        w = _at_depth(toy_model, 6)
        cfg = w.config
        teacher_forced = priors_module._teacher_forced
        forwards, hooked, selected = [], [], []

        class Rows(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray) and key.dtype == bool:
                    selected.append(1)
                return super().__getitem__(key)

        def spying_forward(w, src, tgt, hook, *valid):
            forwards.append(1)

            def spy(g, l, z, z_valid):
                hooked.append(1)
                return hook(g, l, z.view(Rows), z_valid)

            return teacher_forced(w, src, tgt, spy, *valid)

        monkeypatch.setattr(priors_module, "_teacher_forced", spying_forward)
        got = estimate_priors(w, every_length)
        monkeypatch.undo()
        assert len(forwards) > 1
        assert len(hooked) == len(forwards) * (cfg.layers_enc + 2 * cfg.layers_dec - 1)
        assert len(selected) == len(forwards) * (cfg.layers_enc + cfg.layers_dec + 1)

        accs = {site: priors_module._SiteAcc.fresh(cfg.dim) for site in sites(cfg)}
        scale = np.sqrt(cfg.dim / cfg.heads)
        lengths = np.array([len(s) for s in every_length])
        for bucket in _buckets(lengths):
            ids, valid = _pad([np.array(every_length[p]) for p in bucket])
            tgt = np.pad(ids, ((0, 0), (1, 0)), constant_values=BOS_ID)[:, : cfg.max_len]
            tgt_valid = np.pad(valid, ((0, 0), (1, 0)), constant_values=True)[:, : cfg.max_len]
            rows = {}
            teacher_forced(
                w, ids, tgt, lambda g, l, z, v: rows.setdefault((g, l), z[v]), valid, tgt_valid
            )
            for site, acc in accs.items():
                acc.add(rows["cross", 0] if site[0] == "cross" else rows[site], scale)
        want = [accs[site].finalize(*site) for site in sites(cfg)]
        for a, b in zip(got, want):
            assert (a.layer_group, a.layer_id) == (b.layer_group, b.layer_id)
            for name in ("mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (a.layer_group, name)

    def test_bad_sequence_is_named_before_any_forward(self, toy_model, monkeypatch):
        corpus = make_random_corpus(toy_model.config, 200, seed=48)
        corpus[170] = [3] * (toy_model.config.max_len + 1)   # too long
        corpus[150] = [3, toy_model.config.vocab]           # out of vocabulary
        forwards = []
        monkeypatch.setattr(
            priors_module, "_teacher_forced", lambda *a: forwards.append(a)
        )
        for shards in (1, 3):
            with pytest.raises(CorpusError, match="sequence 150 not usable"):
                estimate_priors(toy_model, corpus, shards=shards)
        corpus[150] = [3, 4]
        corpus[190] = []
        with pytest.raises(CorpusError, match="sequence 170 not usable: length 33"):
            estimate_priors(toy_model, corpus)
        corpus[170] = [3, 4]
        with pytest.raises(CorpusError, match="sequence 190 not usable: length 0"):
            estimate_priors(toy_model, corpus)
        corpus[190] = [3, -1]
        with pytest.raises(CorpusError, match="sequence 190 not usable: contains ids"):
            estimate_priors(toy_model, corpus)
        assert forwards == []

    @pytest.mark.parametrize(
        "seq",
        [[], [3] * (ModelConfig().max_len + 1), [3, ModelConfig().vocab], [3.7, 5], [3, 2**70],
         [[3, 4]]],
        ids=["empty", "past-max_len", "out-of-vocab", "float", "past-int64", "2-D"],
    )
    def test_bad_sequence_reason_is_the_models(self, toy_model, seq):
        with pytest.raises(ValueError) as as_source:
            forward_standard(toy_model, seq, [BOS_ID])
        with pytest.raises(CorpusError) as in_corpus:
            estimate_priors(toy_model, [[3, 4], seq])
        source_msg, corpus_msg = str(as_source.value), str(in_corpus.value)
        assert source_msg.startswith("source not usable: ")
        assert corpus_msg.startswith("sequence 1 not usable: ")
        assert corpus_msg.partition("not usable: ")[2] == source_msg.partition("not usable: ")[2]


class TestPriorReport:
    def test_header_rows_order(self, toy_priors):
        text = prior_report(toy_priors)
        lines = text.strip().split("\n")
        assert lines[0] == "layer,group,mu_mean,var_mean,log_alpha0,epsilon_alpha"
        assert len(lines) == 7
        groups = [ln.split(",")[1] for ln in lines[1:]]
        assert groups == ["encoder", "encoder", "cross", "cross",
                          "decoder", "decoder"]
        # numeric fields parse
        for ln in lines[1:]:
            parts = ln.split(",")
            [float(v) for v in parts[2:]]
