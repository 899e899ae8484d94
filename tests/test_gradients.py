"""Analytic gradients vs central finite differences.

The gradcheck driver owns the finite-difference oracle; the closed-form
spot checks below are derived independently by hand.
"""
import importlib

import numpy as np
import pytest

from hand25d.errors import ConfigError, ShapeMismatchError, UnknownTargetError
from hand25d.gradcheck import gradcheck
from hand25d.heatmap import (
    HeatmapStack,
    SpreadParams,
    depth_readout,
    spatial_softmax,
    vjp_decode_latent,
    vjp_depth_readout,
    vjp_softargmax,
    vjp_spatial_softmax,
)
from hand25d.types import Pose25D

# the package re-exports the gradcheck function under the module's name
gradcheck_module = importlib.import_module("hand25d.gradcheck")
heatmap_module = importlib.import_module("hand25d.heatmap")


class TestGradcheckDriver:
    @pytest.mark.parametrize(
        "target", ["spatial_softmax", "softargmax", "depth_readout", "decode_latent"]
    )
    def test_all_targets_pass(self, target):
        report = gradcheck(target, seeds=20, eps=1e-4)
        assert report.status == "ok"
        assert report.max_rel_err < 1e-4

    def test_tiny_eps_flags_fd_breakdown(self):
        # at step 1e-12 the difference quotient is rounding noise; the
        # driver must degrade to a warning rather than report a failure
        report = gradcheck("decode_latent", seeds=2, eps=1e-12)
        assert report.max_rel_err > report.tol
        assert report.status == "warning"
        assert any("rounding" in line for line in report.lines())

    def test_unknown_target(self):
        with pytest.raises(UnknownTargetError):
            gradcheck("argmax", seeds=1)

    def test_report_lines_mention_status(self):
        report = gradcheck("softargmax", seeds=3)
        text = "\n".join(report.lines())
        assert "OK" in text and "softargmax" in text


def per_entry_fd(scalar_fn, arrays, eps):
    """Reference central differences: one scalar_fn() call per +eps and
    per -eps perturbation, made in place and undone."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            fp = scalar_fn()
            flat[i] = saved - eps
            fm = scalar_fn()
            flat[i] = saved
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


class TestBatchedFiniteDifferences:
    @pytest.mark.parametrize("target", gradcheck_module.TARGETS)
    def test_fd_equals_per_entry_loop(self, monkeypatch, target):
        forward = gradcheck_module._TABLE[target][2]
        batched_fd = gradcheck_module._fd_gradient
        compared = []

        def checked_fd(batched, upstream, arrays, eps):
            fd = batched_fd(batched, upstream, arrays, eps)
            own = [a.copy() for a in arrays]
            with monkeypatch.context() as m:
                # a map perturbed by eps no longer sums to 1, so the public
                # forward's check is lifted for the reference loop only
                m.setattr(heatmap_module, "_check_prob", lambda prob: np.asarray(prob, float))
                ref = per_entry_fd(lambda: float((upstream * forward(*own)).sum()), own, eps)
            for f, r in zip(fd, ref):
                assert f.shape == r.shape and f.tobytes() == r.tobytes()
            compared.append(len(fd))
            return fd

        monkeypatch.setattr(gradcheck_module, "_fd_gradient", checked_fd)
        gradcheck(target, seeds=5)
        assert len(compared) == 5

    @pytest.mark.parametrize("target", gradcheck_module.TARGETS)
    def test_report_independent_of_chunk_size(self, monkeypatch, target):
        reports = []
        for entries in (1, 10**9):
            monkeypatch.setattr(gradcheck_module, "_FD_BATCH_ENTRIES", entries)
            reports.append(gradcheck(target, seeds=3, eps=1e-6))
        one, whole = reports
        for name in ("max_rel_err", "worst", "per_input_max", "status"):
            assert getattr(one, name) == getattr(whole, name)
        assert one.lines() == whole.lines()

    def test_wrong_public_decode_latent_fails(self, monkeypatch):
        exact = gradcheck_module.decode_latent

        def scaled(stack, spread):
            pose = exact(stack, spread)
            return Pose25D(xy=1.01 * pose.xy, zr=1.01 * pose.zr)

        monkeypatch.setattr(gradcheck_module, "decode_latent", scaled)
        report = gradcheck("decode_latent", seeds=1)
        assert report.status == "fail"
        assert report.max_rel_err == np.inf
        assert set(report.per_input_max.values()) == {np.inf}

    def test_wrong_public_softargmax_fails(self, monkeypatch):
        exact = gradcheck_module.softargmax

        def scaled(prob):
            return tuple(1.01 * v for v in exact(prob))

        monkeypatch.setattr(gradcheck_module, "softargmax", scaled)
        report = gradcheck("softargmax", seeds=1)
        assert report.status == "fail"
        assert report.max_rel_err == np.inf
        assert "FAIL" in report.lines()[0]


class TestGradcheckCanFail:
    @pytest.mark.parametrize("eps", [1e-4, 1e-12])
    def test_nan_vjp_fails_at_any_step(self, monkeypatch, eps):
        def nan_vjp(latent, spread, upstream):
            return np.full_like(latent, np.nan), np.full_like(spread.beta, np.nan)

        monkeypatch.setattr(gradcheck_module, "vjp_spatial_softmax", nan_vjp)
        report = gradcheck("spatial_softmax", seeds=1, eps=eps)
        assert report.status == "fail"
        assert report.max_rel_err == np.inf
        assert "FAIL" in report.lines()[0]

    def test_nan_forward_fails(self, monkeypatch):
        monkeypatch.setattr(gradcheck_module, "depth_readout", lambda *args, **kw: np.nan)
        report = gradcheck("depth_readout", seeds=1)
        assert report.status == "fail"
        assert report.per_input_max == {"prob": np.inf, "depth": np.inf}

    def test_one_percent_vjp_error_fails(self, monkeypatch):
        exact = gradcheck_module.vjp_depth_readout

        def scaled_vjp(*args):
            return tuple(1.01 * cot for cot in exact(*args))

        monkeypatch.setattr(gradcheck_module, "vjp_depth_readout", scaled_vjp)
        report = gradcheck("depth_readout", seeds=2)
        assert report.status == "fail"
        assert report.max_rel_err == pytest.approx(0.01 / 1.01, rel=1e-3)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seeds", 0),
            ("seeds", -3),
            ("seeds", 2.5),
            ("eps", 0.0),
            ("eps", -1e-4),
            ("eps", float("nan")),
            ("eps", float("inf")),
            ("tol", 0.0),
            ("tol", float("nan")),
        ],
    )
    def test_bad_arguments_rejected(self, name, value):
        with pytest.raises(ConfigError):
            gradcheck("softargmax", **{name: value})


class TestVjpDecodeLatent:
    def test_zero_upstream_gives_zero_cotangents(self):
        rng = np.random.default_rng(0)
        stack = HeatmapStack(
            kind="latent", likelihood=rng.normal(size=(4, 6, 6)), depth=rng.normal(size=(4, 6, 6))
        )
        cot_l, cot_d, cot_b = vjp_decode_latent(
            stack, SpreadParams(beta=rng.uniform(0.5, 2, 4)), np.zeros((4, 3))
        )
        assert np.all(cot_l == 0) and np.all(cot_d == 0) and np.all(cot_b == 0)

    def test_constant_map_closed_form(self):
        # for a constant latent map the softmax is uniform, so the gradient
        # of softargmax-x wrt one latent cell is beta * (1/(H W)) * (px - centroid_x)
        h, w, beta = 6, 9, 1.7
        stack = HeatmapStack(
            kind="latent", likelihood=np.full((1, h, w), 0.3), depth=np.zeros((1, h, w))
        )
        upstream = np.array([[1.0, 0.0, 0.0]])
        cot_l, _, _ = vjp_decode_latent(stack, SpreadParams(beta=np.array([beta])), upstream)
        xx = np.arange(w, dtype=float)[None, :].repeat(h, axis=0)
        expected = beta * (1.0 / (h * w)) * (xx - (w - 1) / 2.0)
        np.testing.assert_allclose(cot_l[0], expected, atol=1e-12)

    def test_depth_cotangent_is_probability_scaled(self):
        rng = np.random.default_rng(1)
        like = rng.normal(size=(2, 5, 7))
        stack = HeatmapStack(kind="latent", likelihood=like, depth=rng.normal(size=(2, 5, 7)))
        spread = SpreadParams(beta=rng.uniform(0.5, 2, 2))
        upstream = np.zeros((2, 3))
        upstream[:, 2] = [2.0, -1.5]
        _, cot_d, _ = vjp_decode_latent(stack, spread, upstream)
        prob = spatial_softmax(like, spread)
        np.testing.assert_allclose(cot_d, upstream[:, 2][:, None, None] * prob, rtol=1e-12)

    def test_shape_mismatch(self):
        stack = HeatmapStack(kind="latent", likelihood=np.zeros((2, 4, 4)), depth=np.zeros((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            vjp_decode_latent(stack, SpreadParams.ones(2), np.zeros((3, 3)))


class TestComponentVjps:
    def test_softargmax_cotangent_is_coordinate_field(self):
        prob = np.full((3, 4), 1.0 / 12.0)
        cot = vjp_softargmax(prob, (2.0, -1.0))
        xx, yy = np.meshgrid(np.arange(4.0), np.arange(3.0))
        np.testing.assert_allclose(cot, 2.0 * xx - 1.0 * yy, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_softargmax_cotangent_of_non_map_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match=r"^probability map must be \(H, W\)$"):
            vjp_softargmax(np.full(shape, 0.1), (1.0, 1.0))

    def test_depth_readout_cotangents(self):
        rng = np.random.default_rng(2)
        prob = rng.uniform(0, 1, (4, 4))
        prob /= prob.sum()
        depth = rng.normal(size=(4, 4))
        cot_p, cot_d = vjp_depth_readout(prob, depth, 3.0)
        np.testing.assert_allclose(cot_p, 3.0 * depth, rtol=1e-15)
        np.testing.assert_allclose(cot_d, 3.0 * prob, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (0, 4)])
    def test_depth_readout_cotangent_of_non_map_rejected(self, shape):
        # the same check, and message, as the forward depth_readout
        prob, depth = np.full(shape, 0.1), np.full(shape, 0.1)
        with pytest.raises(ShapeMismatchError, match="^probability map") as forward:
            depth_readout(prob, depth)
        with pytest.raises(ShapeMismatchError) as backward:
            vjp_depth_readout(prob, depth, 1.0)
        assert str(backward.value) == str(forward.value)

    def test_spatial_softmax_rows_sum_to_zero(self):
        # each softmax map sums to 1 whatever the latents, so any upstream
        # cotangent must produce latent cotangents that sum to zero per map
        rng = np.random.default_rng(3)
        latent = rng.normal(size=(5, 6, 6))
        spread = SpreadParams(beta=rng.uniform(0.5, 3, 5))
        cot_l, _ = vjp_spatial_softmax(latent, spread, rng.normal(size=(5, 6, 6)))
        np.testing.assert_allclose(cot_l.sum(axis=(1, 2)), 0.0, atol=1e-12)
