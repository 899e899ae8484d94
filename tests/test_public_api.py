"""The public API's annotations resolve, so typing.get_type_hints works
on every exported name and on the methods of exported classes; settings
that no caller sets are constants, not parameters; a scalar argument that
is not one real number raises the library's own error."""
import dataclasses
import inspect
import re
import typing

import numpy as np
import pytest

import hand25d
from hand25d.errors import BadHeadLengthError, BadScaleError, ConfigError
from hand25d.heatmap import HeatmapGrid


def _annotated():
    for name in hand25d.__all__:
        obj = getattr(hand25d, name)
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("obj", [pytest.param(obj, id=label) for label, obj in _annotated()])
def test_type_hints_resolve(obj):
    typing.get_type_hints(obj)


def test_fixed_settings_are_not_parameters():
    """The synth articulation ranges, depth range, bone jitter and
    normalization, to_25d's and align_root's root (the palm),
    record_to_dict's skeleton (the canonical one) and pose_loss's norms
    (L1) are fixed; a Skeleton stores only what its bones derive from."""
    fields = [f.name for f in dataclasses.fields(hand25d.SynthConfig)]
    assert fields == ["seed", "camera", "grid", "bone_stats"]
    assert list(inspect.signature(hand25d.to_25d).parameters) == ["pose", "cam", "cfg"]
    assert list(inspect.signature(hand25d.serialize.record_to_dict).parameters) == ["rec"]
    assert [f.name for f in dataclasses.fields(hand25d.LossConfig)] == ["alpha"]
    assert [f.name for f in dataclasses.fields(hand25d.Skeleton)] == ["names", "parent"]
    assert list(inspect.signature(hand25d.align_root).parameters) == ["pred", "gt"]
    assert not hasattr(hand25d.Skeleton, "index_of")


_POSE = hand25d.Pose3D(np.ones((21, 3)))
_P25 = hand25d.Pose25D(np.full((1, 2), 4.0), [0.0])
SCALAR_CHECKS = {
    "NormalizationConfig.c": (lambda v: hand25d.NormalizationConfig(c=v), ConfigError,
                              lambda v: "normalization constant c must be positive and finite"),
    "LossConfig.alpha": (lambda v: hand25d.LossConfig(alpha=v), ConfigError,
                         lambda v: "alpha must be positive and finite"),
    "absolute_pose.s_hat": (lambda v: hand25d.absolute_pose(_POSE, v), BadScaleError,
                            lambda v: f"scale must be positive and finite, got {v}"),
    "pckh_curve.head_length": (lambda v: hand25d.pckh_curve(np.zeros((1, 2)), np.zeros((1, 2)),
                                                            v, [1.0]),
                               BadHeadLengthError, lambda v: f"head length must be positive, got {v}"),
    "encode_direct.sigma": (lambda v: hand25d.encode_direct(_P25, HeatmapGrid(width=9, height=9), sigma=v),
                            ConfigError, lambda v: f"sigma must be finite and positive, got {v}"),
    "gradcheck.eps": (lambda v: hand25d.gradcheck("softargmax", seeds=1, eps=v), ConfigError,
                      lambda v: f"eps must be finite and positive, got {v!r}"),
}
NOT_ONE_REAL = {"str": "2.0", "None": None, "complex": 2j, "two-values": np.array([1.0, 2.0]),
                "one-value-array": np.array([2.0]), "huge-int": 10**400, "nan": float("nan")}


@pytest.mark.parametrize("check", SCALAR_CHECKS)
@pytest.mark.parametrize("value", NOT_ONE_REAL)
def test_scalar_arguments_raise_the_library_errors(check, value):
    """A str, None, a complex number, an array that is not 0-d or an int
    beyond float64 is rejected as NaN is, with the same message, instead of
    escaping as numpy's TypeError or ValueError."""
    call, error, message = SCALAR_CHECKS[check]
    v = NOT_ONE_REAL[value]
    with pytest.raises(error, match=f"^{re.escape(message(v))}$"):
        call(v)


@pytest.mark.parametrize("value", [2, np.float64(2.0), np.array(2.0), np.float32(2.0)])
def test_scalar_arguments_accept_numpy_scalars(value):
    assert hand25d.NormalizationConfig(c=value).c is value
    np.testing.assert_array_equal(hand25d.absolute_pose(_POSE, value).xyz, 2.0)
