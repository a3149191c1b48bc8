"""Transfer network: style/content algebra, conditional denormalization,
residual-block hand traces, and the loss stack that training runs."""

import gc

import numpy as np
import pytest

from mtda.autodiff import ShapeError, Tape, Tensor, instance_norm
from mtda.layers import ParamGroup, identity_fc
from mtda.optim import Adam
from mtda.rng import SplitMix64
from mtda.stats import DomainStatistics
from mtda.tensorio import read_archive
from mtda.toydata import generate, DEFAULT_SOURCE, DEFAULT_TARGETS
from mtda.transfer import (
    DISC_LR_FACTOR,
    ContentTensor,
    MtdtModel,
    MultiHeadDiscriminator,
    PerceptualNet,
    StyleTensors,
    TadResBlock,
    TransferBatch,
    compose,
    mtdt_losses,
    tad_forward,
    train_mtdt,
)


def rand_stats(rng, c):
    return DomainStatistics(mu=rng.normal(c), sigma=np.abs(rng.normal(c)) + 0.3, n=5)


class TestCompose:
    def test_identity_modulation(self):
        rng = SplitMix64(1)
        c = Tensor(rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4))
        style = StyleTensors(gamma=Tensor(np.ones((2, 3, 4, 4))),
                             beta=Tensor(np.zeros((2, 3, 4, 4))))
        np.testing.assert_array_equal(compose(style, ContentTensor(c)).data, c.data)

    def test_zero_gamma_gives_beta(self):
        rng = SplitMix64(2)
        beta = rng.normal(48).reshape(1, 3, 4, 4)
        style = StyleTensors(gamma=Tensor(np.zeros((1, 3, 4, 4))), beta=Tensor(beta))
        out = compose(style, ContentTensor(Tensor(rng.normal(48).reshape(1, 3, 4, 4))))
        np.testing.assert_array_equal(out.data, beta)

    def test_algebraic_identity_gamma2_beta_minus_c(self):
        rng = SplitMix64(3)
        c = rng.normal(48).reshape(1, 3, 4, 4)
        style = StyleTensors(gamma=Tensor(np.full((1, 3, 4, 4), 2.0)), beta=Tensor(-c))
        np.testing.assert_allclose(
            compose(style, ContentTensor(Tensor(c))).data, c, atol=1e-15)

    def test_matches_elementwise_oracle(self):
        rng = SplitMix64(4)
        g, b, c = (rng.normal(48).reshape(1, 3, 4, 4) for _ in range(3))
        out = compose(StyleTensors(Tensor(g), Tensor(b)), ContentTensor(Tensor(c))).data
        assert np.abs(out - (g * c + b)).max() < 1e-12

    def test_shape_mismatch(self):
        style = StyleTensors(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 4))))
        with pytest.raises(ShapeError):
            compose(style, ContentTensor(Tensor(np.zeros((1, 3, 2, 2)))))


class TestTad:
    def test_identity_fcs_match_statistics(self):
        rng = SplitMix64(5)
        eps = 1e-5
        c = 6
        x = Tensor(rng.normal(1 * c * 8 * 8).reshape(1, c, 8, 8) * 2.0 + 0.5)
        stats = rand_stats(rng, c)
        out = tad_forward(x, stats, identity_fc(c), identity_fc(c), eps).data
        for ch in range(c):
            v = x.data[0, ch].var()
            assert abs(out[0, ch].mean() - stats.mu[ch]) < 1e-8
            want_std = stats.sigma[ch] * np.sqrt(v / (v + eps))
            assert abs(out[0, ch].std() - want_std) < 1e-8

    def test_unit_statistics_identity_fcs_give_normalized_input(self):
        rng = SplitMix64(6)
        c = 4
        x = Tensor(rng.normal(1 * c * 5 * 5).reshape(1, c, 5, 5))
        stats = DomainStatistics(mu=np.zeros(c), sigma=np.ones(c), n=3)
        out = tad_forward(x, stats, identity_fc(c), identity_fc(c)).data
        fhat = instance_norm(x, 1e-5).data
        assert np.abs(out - fhat).max() < 1e-12

    def test_random_fcs_match_direct_formula_oracle(self):
        rng = SplitMix64(7)
        from mtda.layers import fc_params

        c = 5
        x = Tensor(rng.normal(2 * c * 4 * 4).reshape(2, c, 4, 4))
        stats = rand_stats(rng, c)
        fs = fc_params(rng, c, c)
        fb = fc_params(rng, c, c)
        got = tad_forward(x, stats, fs, fb).data
        scale = fs.weights.data @ stats.sigma + fs.bias.data
        bias = fb.weights.data @ stats.mu + fb.bias.data
        want = instance_norm(x, 1e-5).data * scale[None, :, None, None] + bias[None, :, None, None]
        assert np.abs(got - want).max() < 1e-12

    def test_dim_mismatch(self):
        x = Tensor(np.zeros((1, 4, 3, 3)))
        stats = DomainStatistics(mu=np.zeros(3), sigma=np.ones(3), n=2)
        with pytest.raises(ShapeError):
            tad_forward(x, stats, identity_fc(4), identity_fc(4))


class TestDstBlock:
    def test_zero_conv_hand_trace(self):
        # conv weights and biases zeroed, identity FCs: each TAD on the zero map
        # contributes only its bias FC(mu), ReLU clips the first, the skip adds x.
        rng = SplitMix64(8)
        c = 4
        params = ParamGroup()
        block = TadResBlock(params, "blk", channels=c, stats_dim=c, rng=rng)
        for p in (block.conv_a, block.conv_b):
            p.weights.data[:] = 0.0
            p.bias.data[:] = 0.0
        for fc in (block.fc_scale_a, block.fc_bias_a, block.fc_scale_b, block.fc_bias_b):
            fc.weights.data = np.eye(c)
            fc.bias.data = np.zeros(c)
        stats = rand_stats(rng, c)
        x = Tensor(rng.normal(1 * c * 6 * 6).reshape(1, c, 6, 6))
        out = block.forward(x, stats).data
        want = x.data + stats.mu[None, :, None, None]  # second TAD bias via dead conv path
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_distinct_statistics_change_output(self):
        rng = SplitMix64(9)
        model = MtdtModel(4, SplitMix64(10))
        imgs = rng.normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32)
        labels = (SplitMix64(11).uniform(32 * 32) * 4).astype(np.int64).reshape(1, 32, 32)
        s1 = rand_stats(rng, 32)
        s2 = rand_stats(rng, 32)
        out1 = model.transfer_image(Tensor(imgs), labels, s1).data
        out2 = model.transfer_image(Tensor(imgs), labels, s2).data
        assert np.abs(out1 - out2).max() > 1e-8


class TestModel:
    def setup_method(self):
        self.model = MtdtModel(4, SplitMix64(20))
        self.rng = SplitMix64(21)
        self.image = Tensor(self.rng.normal(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
        self.labels = (self.rng.uniform(2 * 32 * 32) * 4).astype(np.int64).reshape(2, 32, 32)

    def test_encode_shape_contract(self):
        f = self.model.encode(Tensor(np.zeros((2, 3, 32, 32))))
        assert f.shape == (2, 32, 8, 8)
        assert np.isfinite(f.data).all()

    def test_autoencoder_shape_roundtrip(self):
        out = self.model.reconstruct_direct(self.image)
        assert out.shape == self.image.shape

    def test_bad_spatial_size_names_multiple(self):
        with pytest.raises(ShapeError, match="multiple of 4"):
            self.model.encode(Tensor(np.zeros((1, 3, 30, 30))))

    def test_style_content_shapes_agree(self):
        style, content = self.model.extract_style_content(self.image, self.labels)
        assert style.gamma.shape == style.beta.shape == content.c.shape == (2, 32, 8, 8)

    def test_zero_phi_weights_content_is_bias(self):
        self.model.phi.weights.data[:] = 0.0
        content = self.model.content_from_labels(self.labels)
        want = np.broadcast_to(self.model.phi.bias.data[None, :, None, None], (2, 32, 8, 8))
        np.testing.assert_allclose(content.c.data, want, atol=1e-15)

    def test_label_channel_mismatch(self):
        bad = Tensor(np.zeros((2, 7, 8, 8)))
        with pytest.raises(ShapeError, match="7 channels"):
            self.model.content_from_onehot(bad)

    def test_transfer_image_shape_and_determinism(self):
        stats = rand_stats(self.rng, 32)
        a = self.model.transfer_image(self.image, self.labels, stats).data
        b = self.model.transfer_image(self.image, self.labels, stats).data
        assert a.shape == (2, 3, 32, 32)
        assert (a == b).all()

    def test_parameter_inventory_is_domain_free(self):
        names = [n for n, _ in self.model.params.named()]
        assert len(names) == len(set(names))
        # same inventory no matter how many domains the run uses
        assert names == [n for n, _ in MtdtModel(4, SplitMix64(20)).params.named()]


class TestLossStack:
    def setup_method(self):
        seed = SplitMix64(30)
        self.model = MtdtModel(4, seed.derive("m"))
        self.disc = MultiHeadDiscriminator(2, seed.derive("d"))
        self.pnet = PerceptualNet(3)
        src = generate(DEFAULT_SOURCE, seed=1, count=2, h=32, w=32)
        self.batch = TransferBatch(
            source_image=Tensor(np.stack([s.image for s in src])),
            source_label=np.stack([s.label for s in src]),
            target_images=[
                Tensor(np.stack([s.image for s in generate(spec, seed=2, count=2, h=32, w=32)]))
                for spec in DEFAULT_TARGETS
            ],
        )
        rng = SplitMix64(31)
        self.stats = [rand_stats(rng, 32) for _ in range(2)]

    def test_training_step_is_freed_by_reference_counting(self):
        def step():
            train_mtdt(self.model, self.disc, self.pnet, lambda i: self.batch, self.stats,
                       iterations=1)

        step()  # warm-up: lazy imports and one-time caches
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_training_rejects_stats_count_mismatch(self):
        with pytest.raises(ValueError, match="statistics for"):
            train_mtdt(self.model, self.disc, self.pnet, lambda i: self.batch, self.stats[:1],
                       iterations=1)

    def test_training_logs_the_loss_terms(self):
        want = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats).breakdown()
        log = train_mtdt(self.model, self.disc, self.pnet, lambda i: self.batch, self.stats,
                         iterations=1)
        assert log == [{"iteration": 0, **want}]

    def test_training_steps_each_side_on_its_own_total(self):
        # reference: each total's gradients from a tape of its own, at the
        # initial weights, applied by a fresh Adam to copies of the parameters
        want = {}
        for side, params, lr in (("generator_total", self.model.params, 1e-3),
                                 ("discriminator_total", self.disc.params,
                                  1e-3 * DISC_LR_FACTOR)):
            with Tape() as tape:
                loss = getattr(mtdt_losses(self.model, self.disc, self.pnet,
                                           self.batch, self.stats), side)
            self.model.params.zero_grad()
            self.disc.params.zero_grad()
            tape.backward(loss)
            copies = []
            for name, t in params.named():
                c = Tensor(t.data.copy())
                c.grad = t.grad
                copies.append((name, c))
            Adam(lr=lr, weight_decay=1e-5).step(copies)
            want.update((name, c.data) for name, c in copies)
        self.model.params.zero_grad()
        self.disc.params.zero_grad()

        train_mtdt(self.model, self.disc, self.pnet, lambda i: self.batch, self.stats,
                   iterations=1)
        got = dict(self.model.params.named() + self.disc.params.named())
        assert got.keys() == want.keys()
        for name, t in got.items():
            np.testing.assert_allclose(t.data, want[name], rtol=1e-9, atol=1e-12, err_msg=name)
            assert t.grad is None, name

    def test_all_terms_finite_and_nonnegative(self):
        terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        for name, value in terms.breakdown().items():
            assert np.isfinite(value), name
            if name in ("rec", "per", "adv_g", "cls_g", "adv_d"):
                assert value >= 0.0, name

    def test_rec_matches_term_oracle(self):
        from mtda.autodiff import l1_loss

        terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        style, content = self.model.extract_style_content(
            self.batch.source_image, self.batch.source_label)
        want = l1_loss(self.model.reconstruct_direct(self.batch.source_image),
                       self.batch.source_image).item()
        want += l1_loss(self.model.generate(compose(style, content)),
                        self.batch.source_image).item()
        for t in self.batch.target_images:
            want += l1_loss(self.model.reconstruct_direct(t), t).item()
        assert terms.rec.item() == pytest.approx(want, abs=1e-12)

    def test_stats_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="statistics for"):
            mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats[:1])

    def test_generator_loss_gradient_matches_finite_difference(self):
        from mtda.gradcheck import _central_diff, relative_error

        probe = self.model.se_gamma.weights
        with Tape() as tape:
            terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
            loss = terms.generator_total
        probe.zero_grad()
        tape.backward(loss)
        flat = probe.data.reshape(-1)
        ga = probe.grad.reshape(-1)

        def f():
            return mtdt_losses(self.model, self.disc, self.pnet,
                               self.batch, self.stats).generator_total.item()

        for i in (0, 101, 1007):
            gn = _central_diff(f, flat, i, 1e-5)
            assert float(relative_error(ga[i], gn)) < 1e-4

    def test_discriminator_loss_gradient_matches_finite_difference(self):
        from mtda.gradcheck import _central_diff, relative_error

        probe = self.disc.adv_head.weights
        with Tape() as tape:
            terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
            loss = terms.discriminator_total
        probe.zero_grad()
        tape.backward(loss)
        flat = probe.data.reshape(-1)
        ga = probe.grad.reshape(-1)

        def f():
            return mtdt_losses(self.model, self.disc, self.pnet,
                               self.batch, self.stats).discriminator_total.item()

        for i in (0, 55, 191):
            gn = _central_diff(f, flat, i, 1e-5)
            assert float(relative_error(ga[i], gn)) < 1e-4

    def test_discriminator_loss_never_reaches_generator_params(self):
        with Tape() as tape:
            terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
            loss = terms.discriminator_total
        self.model.params.zero_grad()
        self.disc.params.zero_grad()
        tape.backward(loss)
        assert all(t.grad is None for t in self.model.params.tensors())
        assert any(t.grad is not None for t in self.disc.params.tensors())


def test_train_zero_iterations_keeps_initialization(tmp_path):
    from mtda.config import ExperimentConfig
    from mtda.pipeline import build_datasets, init_models, phase_mtdt, phase_stats

    cfg = ExperimentConfig(seed=5, train_scenes=4, eval_scenes=2,
                           mtdt_iterations=0, out_dir=str(tmp_path))
    data = build_datasets(cfg)
    model, disc, pnet = init_models(cfg)
    before = {k: v.copy() for k, v in model.params.state_arrays().items()}
    stats_list, _ = phase_stats(cfg, model, data, tmp_path)
    phase_mtdt(cfg, model, disc, pnet, data, stats_list, tmp_path)
    after = model.params.state_arrays()
    assert all((before[k] == after[k]).all() for k in before)
    saved = read_archive(tmp_path / "mtdt_model.bin")
    assert all((saved[k] == before[k]).all() for k in before)
