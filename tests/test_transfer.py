"""Transfer network: style/content algebra, conditional denormalization,
residual-block hand traces, and the loss stack that training runs."""

import gc

import numpy as np
import pytest

from mtda.autodiff import (
    NORM_EPS,
    LayerParams,
    ShapeError,
    Tape,
    Tensor,
    clamp_unit,
    conv2d,
    instance_norm,
    l1_loss,
    mse_loss,
    relu,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    upsample_nearest2x,
)
from mtda.layers import ParamGroup
from mtda.optim import Adam
from mtda.rng import SplitMix64
from mtda.stats import DomainStatistics
from mtda.tensorio import read_archive
from mtda.toydata import generate, DEFAULT_SOURCE, DEFAULT_TARGETS
from mtda.transfer import (
    DISC_LR_FACTOR,
    MtdtModel,
    MultiHeadDiscriminator,
    PerceptualNet,
    TadResBlock,
    mtdt_losses,
    tad_forward,
    train_mtdt,
)


def identity_fc(dim):
    return LayerParams(Tensor(np.eye(dim)), Tensor(np.zeros(dim)))


def rand_stats(rng, c):
    return DomainStatistics(mu=rng.normal(c), sigma=np.abs(rng.normal(c)) + 0.3, n=5)


class TestCompose:
    """The image feature ``gamma * content + beta`` that every route composes
    with Tensor ops; a shape mismatch is test_autodiff's non-broadcast check."""

    def test_identity_modulation(self):
        rng = SplitMix64(1)
        c = Tensor(rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4))
        gamma, beta = Tensor(np.ones((2, 3, 4, 4))), Tensor(np.zeros((2, 3, 4, 4)))
        np.testing.assert_array_equal((gamma * c + beta).data, c.data)

    def test_zero_gamma_gives_beta(self):
        rng = SplitMix64(2)
        beta = rng.normal(48).reshape(1, 3, 4, 4)
        gamma = Tensor(np.zeros((1, 3, 4, 4)))
        out = gamma * Tensor(rng.normal(48).reshape(1, 3, 4, 4)) + Tensor(beta)
        np.testing.assert_array_equal(out.data, beta)

    def test_algebraic_identity_gamma2_beta_minus_c(self):
        rng = SplitMix64(3)
        c = rng.normal(48).reshape(1, 3, 4, 4)
        gamma, beta = Tensor(np.full((1, 3, 4, 4), 2.0)), Tensor(-c)
        np.testing.assert_allclose((gamma * Tensor(c) + beta).data, c, atol=1e-15)

    def test_matches_elementwise_oracle(self):
        rng = SplitMix64(4)
        g, b, c = (rng.normal(48).reshape(1, 3, 4, 4) for _ in range(3))
        out = (Tensor(g) * Tensor(c) + Tensor(b)).data
        assert np.abs(out - (g * c + b)).max() < 1e-12


class TestTad:
    def test_identity_fcs_match_statistics(self):
        rng = SplitMix64(5)
        c = 6
        x = Tensor(rng.normal(1 * c * 8 * 8).reshape(1, c, 8, 8) * 2.0 + 0.5)
        stats = rand_stats(rng, c)
        out = tad_forward(x, [stats], identity_fc(c), identity_fc(c)).data
        for ch in range(c):
            v = x.data[0, ch].var()
            assert abs(out[0, ch].mean() - stats.mu[ch]) < 1e-8
            want_std = stats.sigma[ch] * np.sqrt(v / (v + NORM_EPS))
            assert abs(out[0, ch].std() - want_std) < 1e-8

    def test_unit_statistics_identity_fcs_give_normalized_input(self):
        rng = SplitMix64(6)
        c = 4
        x = Tensor(rng.normal(1 * c * 5 * 5).reshape(1, c, 5, 5))
        stats = DomainStatistics(mu=np.zeros(c), sigma=np.ones(c), n=3)
        out = tad_forward(x, [stats], identity_fc(c), identity_fc(c)).data
        fhat = instance_norm(x).data
        assert np.abs(out - fhat).max() < 1e-12

    def test_random_fcs_match_direct_formula_oracle(self):
        rng = SplitMix64(7)
        from mtda.layers import fc_params

        c = 5
        x = Tensor(rng.normal(2 * c * 4 * 4).reshape(2, c, 4, 4))
        stats = rand_stats(rng, c)
        fs = fc_params(rng, c, c)
        fb = fc_params(rng, c, c)
        got = tad_forward(x, [stats], fs, fb).data
        scale = fs.weights.data @ stats.sigma + fs.bias.data
        bias = fb.weights.data @ stats.mu + fb.bias.data
        want = instance_norm(x).data * scale[None, :, None, None] + bias[None, :, None, None]
        assert np.abs(got - want).max() < 1e-12

    def test_dim_mismatch(self):
        x = Tensor(np.zeros((1, 4, 3, 3)))
        stats = DomainStatistics(mu=np.zeros(3), sigma=np.ones(3), n=2)
        with pytest.raises(ShapeError):
            tad_forward(x, [stats], identity_fc(4), identity_fc(4))

    def test_per_sample_statistics_match_one_call_per_sample(self):
        rng = SplitMix64(12)
        from mtda.layers import fc_params

        c = 3
        x = Tensor(rng.normal(2 * c * 4 * 4).reshape(2, c, 4, 4))
        s1, s2 = rand_stats(rng, c), rand_stats(rng, c)
        fs, fb = fc_params(rng, c, c), fc_params(rng, c, c)
        got = tad_forward(x, [s1, s2], fs, fb).data
        for i, stats in enumerate((s1, s2)):
            want = tad_forward(Tensor(x.data[i : i + 1]), [stats], fs, fb).data
            np.testing.assert_allclose(got[i : i + 1], want, rtol=1e-14, atol=1e-14)

    def test_statistics_count_must_be_one_or_batch(self):
        rng = SplitMix64(13)
        x = Tensor(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeError):
            tad_forward(x, [rand_stats(rng, 3) for _ in range(3)],
                        identity_fc(3), identity_fc(3))


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
        out = block.forward(x, [stats]).data
        want = x.data + stats.mu[None, :, None, None]  # second TAD bias via dead conv path
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_distinct_statistics_change_output(self):
        rng = SplitMix64(9)
        model = MtdtModel(4, SplitMix64(10))
        imgs = rng.normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32)
        labels = (SplitMix64(11).uniform(32 * 32) * 4).astype(np.int64).reshape(1, 32, 32)
        s1 = rand_stats(rng, 32)
        s2 = rand_stats(rng, 32)
        style, content = model.extract_style_content(Tensor(imgs), labels)
        out1 = model.transfer_image(style, content, [s1]).data
        out2 = model.transfer_image(style, content, [s2]).data
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
        out = self.model.generate(self.model.encode(self.image))
        assert out.shape == self.image.shape

    def test_generate_matches_upsample_then_conv(self):
        m = self.model
        feature = m.encode(self.image)
        h = relu(conv2d(feature, m.gen1, stride=1, pad=1))
        h = relu(instance_norm(conv2d(upsample_nearest2x(h), m.gen2, stride=1, pad=1)))
        want = conv2d(upsample_nearest2x(h), m.gen3, stride=1, pad=1).data
        got = m.generate(feature).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_bad_spatial_size_names_multiple(self):
        with pytest.raises(ShapeError, match="multiple of 4"):
            self.model.encode(Tensor(np.zeros((1, 3, 30, 30))))

    def test_style_content_shapes_agree(self):
        (gamma, beta), content = self.model.extract_style_content(self.image, self.labels)
        assert gamma.shape == beta.shape == content.shape == (2, 32, 8, 8)

    def test_label_grid_must_match_image(self):
        # a 30x30 map sampled at stride 4 gives the 8x8 content of a 32x32 image
        with pytest.raises(ShapeError, match=r"label shape \(2, 30, 30\) does not match"):
            self.model.extract_style_content(self.image, self.labels[:, :30, :30])

    def test_zero_phi_weights_content_is_bias(self):
        self.model.phi.weights.data[:] = 0.0
        content = self.model.content_from_labels(self.labels)
        want = np.broadcast_to(self.model.phi.bias.data[None, :, None, None], (2, 32, 8, 8))
        np.testing.assert_allclose(content.data, want, atol=1e-15)

    def test_transfer_image_shape_and_determinism(self):
        stats = rand_stats(self.rng, 32)
        a, b = (self.model.transfer_image(
            *self.model.extract_style_content(self.image, self.labels), [stats]).data
            for _ in range(2))
        assert a.shape == (2, 3, 32, 32)
        assert (a == b).all()

    def test_transfer_image_clamps_to_the_image_range(self):
        self.model.gen3.bias.data[:] = [3.0, -3.0, 0.0]  # raw output far outside [-1,1]
        style, content = self.model.extract_style_content(self.image, self.labels)
        stats = [rand_stats(self.rng, 32)]
        gamma, beta = self.model.dst_transfer(style, stats)
        raw = self.model.generate(gamma * content + beta).data
        assert np.abs(raw).max() > 1.0
        out = self.model.transfer_image(style, content, stats).data
        np.testing.assert_array_equal(out, np.clip(raw, -1.0, 1.0))

    def test_parameter_inventory_is_domain_free(self):
        names = list(self.model.params.state_arrays())
        assert len(names) == len(self.model.params.tensors())
        # same inventory no matter how many domains the run uses
        assert names == list(MtdtModel(4, SplitMix64(20)).params.state_arrays())


def looped_losses(model, disc, pnet, batch, stats_list):
    """The one-pass-per-target form of the objective: the oracle that the
    stacked (N*B) batch of ``mtdt_losses`` must reproduce."""
    source_images, source_labels, target_images = batch
    b = len(source_images)
    source = Tensor(source_images)
    (gamma, beta), content = model.extract_style_content(source, source_labels)
    rec = l1_loss(model.generate(model.encode(source)), source)
    rec = rec + l1_loss(model.generate(gamma * content + beta), source)
    per = adv_g = cls_g = adv_d = cls_d = Tensor(0.0)
    p_src = pnet.features(source)
    for k, stats in enumerate(stats_list):
        domain = np.full(b, k)
        target = Tensor(target_images[k * b : (k + 1) * b])
        rec = rec + l1_loss(model.generate(model.encode(target)), target)
        moved_gamma, moved_beta = model.dst_transfer((gamma, beta), [stats])
        fake = clamp_unit(model.generate(moved_gamma * content + moved_beta))
        per = per + mse_loss(pnet.features(fake), p_src)
        patch_fake, dom_fake = disc.forward(fake)
        adv_g = adv_g + sigmoid_bce_with_logits(patch_fake, np.ones(patch_fake.shape))
        cls_g = cls_g + softmax_cross_entropy(dom_fake, domain)
        patch_real, dom_real = disc.forward(target)
        patch_fake_d, _ = disc.forward(Tensor(fake.data))
        adv_d = adv_d + sigmoid_bce_with_logits(patch_real, np.ones(patch_real.shape))
        adv_d = adv_d + sigmoid_bce_with_logits(patch_fake_d, np.zeros(patch_fake_d.shape))
        cls_d = cls_d + softmax_cross_entropy(dom_real, domain)
    terms = {"rec": rec, "per": per, "adv_g": adv_g, "cls_g": cls_g,
             "adv_d": adv_d, "cls_d": cls_d}
    return rec + per + adv_g + cls_g, adv_d + cls_d, terms


def values(totals_and_terms):
    """``mtdt_losses``' output as floats: the six terms, ``g_total`` and ``d_total``."""
    g, d, terms = totals_and_terms
    return {**{name: t.item() for name, t in terms.items()},
            "g_total": g.item(), "d_total": d.item()}


def loss_setup(n):
    """Model, critic, perceptual net, a 2-image batch with n targets, n statistics."""
    seed = SplitMix64(40)
    src = generate(DEFAULT_SOURCE, seed=1, count=2, h=32, w=32)
    targets = [generate(DEFAULT_TARGETS[k % len(DEFAULT_TARGETS)], seed=2 + k, count=2,
                        h=32, w=32) for k in range(n)]
    batch = (src.images, src.labels, np.concatenate([t.images for t in targets]))
    rng = SplitMix64(41)
    return (MtdtModel(4, seed.derive("m")), MultiHeadDiscriminator(n, seed.derive("d")),
            PerceptualNet(3), batch, [rand_stats(rng, 32) for _ in range(n)])


class TestStackedTargets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terms_and_gradients_match_the_looped_oracle(self, n):
        model, disc, pnet, batch, stats = loss_setup(n)
        names = list(model.params.state_arrays()) + list(disc.params.state_arrays())
        tensors = model.params.tensors() + disc.params.tensors()
        results = {}
        for name, fn in (("stacked", mtdt_losses), ("looped", looped_losses)):
            grads = {}
            for side in (0, 1):  # generator total, then discriminator total
                with Tape() as tape:
                    out = fn(model, disc, pnet, batch, stats)
                grads[side] = dict(zip(names, tape.backward(out[side], tensors)))
            results[name] = (values(out), grads)

        (got, got_grads), (want, want_grads) = results["stacked"], results["looped"]
        assert got.keys() == want.keys()
        for term in want:
            assert got[term] == pytest.approx(want[term], rel=1e-12, abs=0.0), term
        # the absolute floor is for gradients that are zero in exact arithmetic,
        # a bias in front of an instance norm: they hold only rounding noise
        for side, grads in want_grads.items():
            for p, g in grads.items():
                if g is None:
                    assert got_grads[side][p] is None, (side, p)
                else:
                    np.testing.assert_allclose(got_grads[side][p], g, rtol=1e-9, atol=1e-15,
                                               err_msg=f"{side} {p}")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_critic_sees_the_restyle_toward_every_target(self, n, monkeypatch):
        model, disc, pnet, batch, stats = loss_setup(n)
        source_images, source_labels, target_images = batch
        seen = []
        forward = MultiHeadDiscriminator.forward

        def spy(self, image):
            seen.append(image.data)
            return forward(self, image)

        monkeypatch.setattr(MultiHeadDiscriminator, "forward", spy)
        mtdt_losses(model, disc, pnet, batch, stats)
        style, content = model.extract_style_content(Tensor(source_images), source_labels)
        want = model.transfer_image(style, content, stats).data
        # the generator's view of the restyles, then the critic's own pass over
        # the real targets and the restyles
        assert len(seen) == 2
        assert seen[0].tobytes() == want.tobytes()
        assert seen[1].tobytes() == np.concatenate([target_images, want]).tobytes()
        b = len(source_images)
        for k, one in enumerate(stats):
            np.testing.assert_allclose(
                want[k * b : (k + 1) * b],
                model.transfer_image(style, content, [one]).data, rtol=0, atol=1e-12)

    def test_first_dst_conv_runs_once_for_every_target(self, monkeypatch):
        import mtda.transfer

        model, disc, pnet, batch, stats = loss_setup(3)
        rows = []

        def spy(x, p, *args, **kwargs):
            rows.append((p, len(x.data)))
            return conv2d(x, p, *args, **kwargs)

        monkeypatch.setattr(mtda.transfer, "conv2d", spy)
        mtdt_losses(model, disc, pnet, batch, stats)
        first, second = model.dst_blocks
        assert [r for p, r in rows if p is first.conv_a] == [2]
        assert [r for p, r in rows if p is first.conv_b] == [6]
        assert [r for p, r in rows if p is second.conv_a] == [6]

    def test_tape_length_does_not_grow_with_targets(self):
        lengths = []
        for n in (1, 2, 3):
            model, disc, pnet, batch, stats = loss_setup(n)
            with Tape() as tape:
                mtdt_losses(model, disc, pnet, batch, stats)
            lengths.append(len(tape._records))
        assert lengths[0] == lengths[1] == lengths[2], lengths


class TestLossStack:
    def setup_method(self):
        seed = SplitMix64(30)
        self.model = MtdtModel(4, seed.derive("m"))
        self.disc = MultiHeadDiscriminator(2, seed.derive("d"))
        self.pnet = PerceptualNet(3)
        src = generate(DEFAULT_SOURCE, seed=1, count=2, h=32, w=32)
        self.batch = (src.images, src.labels,
                      np.concatenate([generate(spec, seed=2, count=2, h=32, w=32).images
                                      for spec in DEFAULT_TARGETS]))
        rng = SplitMix64(31)
        self.stats = [rand_stats(rng, 32) for _ in range(2)]

    def train(self, batches, stats=None):
        """Run ``train_mtdt`` and return the records its log_sink received."""
        sunk = []
        assert train_mtdt(self.model, self.disc, self.pnet, batches,
                          self.stats if stats is None else stats, log_sink=sunk.append) is None
        return sunk

    def test_training_step_is_freed_by_reference_counting(self):
        def step():
            self.train([self.batch])

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
            self.train([self.batch], self.stats[:1])

    def test_training_logs_the_loss_terms(self):
        want = values(mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats))
        assert self.train([self.batch]) == [{"iteration": 0, **want}]
        # each total is the sum of its terms, in this order
        assert want["g_total"] == ((want["rec"] + want["per"]) + want["adv_g"]) + want["cls_g"]
        assert want["d_total"] == want["adv_d"] + want["cls_d"]

    def test_training_runs_one_iteration_per_batch(self):
        assert [r["iteration"] for r in self.train([self.batch] * 3)] == [0, 1, 2]

    def test_training_on_no_batches_keeps_every_parameter(self):
        before = [t.data.copy() for t in self.model.params.tensors() + self.disc.params.tensors()]
        assert self.train([]) == []
        after = [t.data for t in self.model.params.tensors() + self.disc.params.tensors()]
        assert all((a == b).all() for a, b in zip(before, after))

    def test_training_steps_each_side_on_its_own_total(self):
        # reference: each total's gradients from a tape of its own, at the
        # initial weights, applied by a fresh Adam to copies of the parameters
        want = {}
        for side, params, lr in ((0, self.model.params, 1e-3),
                                 (1, self.disc.params, 1e-3 * DISC_LR_FACTOR)):
            with Tape() as tape:
                loss = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)[side]
            copies = [Tensor(t.data.copy()) for t in params.tensors()]
            Adam(lr=lr, weight_decay=1e-5).step(copies, tape.backward(loss, params.tensors()))
            want.update(zip(params.state_arrays(), (c.data for c in copies)))

        self.train([self.batch])
        got = {}
        for params in (self.model.params, self.disc.params):
            got.update(zip(params.state_arrays(), params.tensors()))
        assert got.keys() == want.keys()
        for name, t in got.items():
            np.testing.assert_allclose(t.data, want[name], rtol=1e-9, atol=1e-12, err_msg=name)
            assert not hasattr(t, "grad"), name

    def test_all_terms_finite_and_nonnegative(self):
        got = values(mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats))
        for name, value in got.items():
            assert np.isfinite(value), name
            if name in ("rec", "per", "adv_g", "cls_g", "adv_d"):
                assert value >= 0.0, name

    def test_rec_matches_term_oracle(self):
        from mtda.autodiff import l1_loss

        _, _, terms = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        source_images, source_labels, target_images = self.batch
        source = Tensor(source_images)
        (gamma, beta), content = self.model.extract_style_content(source, source_labels)
        want = l1_loss(self.model.generate(self.model.encode(source)), source).item()
        want += l1_loss(self.model.generate(gamma * content + beta), source).item()
        for k in range(2):
            t = Tensor(target_images[2 * k : 2 * k + 2])
            want += l1_loss(self.model.generate(self.model.encode(t)), t).item()
        assert terms["rec"].item() == pytest.approx(want, abs=1e-12)

    def test_target_images_of_another_size_rejected(self):
        # one encode and one critic pass stack source and targets on the batch axis
        source_images, source_labels, target_images = self.batch
        with pytest.raises(ShapeError, match=r"\(3, 16, 16\) do not match"):
            mtdt_losses(self.model, self.disc, self.pnet,
                        (source_images, source_labels, target_images[:, :, :16, :16]),
                        self.stats)

    def test_stats_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="statistics for"):
            mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats[:1])

    def test_generator_loss_gradient_matches_finite_difference(self):
        from mtda.gradcheck import _central_diff, relative_error

        probe = self.model.se_gamma.weights
        with Tape() as tape:
            loss, _, _ = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        ga = tape.backward(loss, [probe])[0].reshape(-1)
        flat = probe.data.reshape(-1)

        def f():
            return mtdt_losses(self.model, self.disc, self.pnet,
                               self.batch, self.stats)[0].item()

        for i in (0, 101, 1007):
            gn = _central_diff(f, flat, i, 1e-5)
            assert float(relative_error(ga[i], gn)) < 1e-4

    def test_discriminator_loss_gradient_matches_finite_difference(self):
        from mtda.gradcheck import _central_diff, relative_error

        probe = self.disc.adv_head.weights
        with Tape() as tape:
            _, loss, _ = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        ga = tape.backward(loss, [probe])[0].reshape(-1)
        flat = probe.data.reshape(-1)

        def f():
            return mtdt_losses(self.model, self.disc, self.pnet,
                               self.batch, self.stats)[1].item()

        for i in (0, 55, 191):
            gn = _central_diff(f, flat, i, 1e-5)
            assert float(relative_error(ga[i], gn)) < 1e-4

    def test_discriminator_loss_never_reaches_generator_params(self):
        with Tape() as tape:
            _, loss, _ = mtdt_losses(self.model, self.disc, self.pnet, self.batch, self.stats)
        gen_grads = tape.backward(loss, self.model.params.tensors())
        disc_grads = tape.backward(loss, self.disc.params.tensors())
        assert all(g is None for g in gen_grads)
        assert any(g is not None for g in disc_grads)


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
