"""The public API's annotations resolve, so typing.get_type_hints works
on every exported name and on the methods of exported classes; settings
that no caller sets are constants, not parameters; a scalar argument that
is not one real number raises the library's own error."""
import dataclasses
import inspect
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import hand25d
from hand25d import serialize
from hand25d.errors import BadHeadLengthError, BadScaleError, ConfigError, NonFiniteError
from hand25d.heatmap import HeatmapGrid


def _annotated():
    for name in hand25d.__all__:
        obj = getattr(hand25d, name)
        yield name, obj
        if inspect.isclass(obj):
            # the members of obj and of its bases defined in hand25d, each once
            bases = [c for c in reversed(obj.__mro__) if c.__module__.startswith("hand25d.")]
            members = {attr: m for c in bases for attr, m in vars(c).items()}
            for attr, member in members.items():
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
_CAMERA = {"fx": 40.0, "fy": 40.0, "cx": 15.5, "cy": 15.5}
SCALAR_CHECKS = {
    "NormalizationConfig.c": (lambda v: hand25d.NormalizationConfig(c=v), ConfigError,
                              lambda v: "normalization constant c must be positive and finite"),
    "LossConfig.alpha": (lambda v: hand25d.LossConfig(alpha=v), ConfigError,
                         lambda v: "alpha must be positive and finite"),
    "absolute_pose.s_hat": (lambda v: hand25d.absolute_pose(_POSE, v), BadScaleError,
                            lambda v: f"scale must be positive and finite, got {v}"),
    "absolute_pose.c": (lambda v: hand25d.absolute_pose(_POSE, 2.0, c=v), ConfigError,
                        lambda v: "normalization constant c must be positive and finite"),
    "pckh_curve.head_length": (lambda v: hand25d.pckh_curve(np.zeros((1, 2)), np.zeros((1, 2)),
                                                            v, [1.0]),
                               BadHeadLengthError, lambda v: f"head length must be positive, got {v}"),
    "encode_direct.sigma": (lambda v: hand25d.encode_direct(_P25, HeatmapGrid(width=9, height=9), sigma=v),
                            ConfigError, lambda v: f"sigma must be finite and positive, got {v}"),
    "gradcheck.eps": (lambda v: hand25d.gradcheck("softargmax", seeds=1, eps=v), ConfigError,
                      lambda v: f"eps must be finite and positive, got {v!r}"),
    **{f"CameraIntrinsics.{name}": (
        lambda v, name=name: hand25d.CameraIntrinsics(**{**_CAMERA, name: v}), NonFiniteError,
        lambda v: "intrinsics must be finite") for name in ("fx", "fy", "cx", "cy", "skew")},
}
NOT_ONE_REAL = {"str": "2.0", "None": None, "complex": 2j, "two-values": np.array([1.0, 2.0]),
                "one-value-array": np.array([2.0]), "huge-int": 10**400, "nan": float("nan"),
                "bool": True, "numpy-bool": np.True_, "bool-array": np.array(True)}


@pytest.mark.parametrize("check", SCALAR_CHECKS)
@pytest.mark.parametrize("value", NOT_ONE_REAL)
def test_scalar_arguments_raise_the_library_errors(check, value):
    """A str, None, a complex number, an array that is not 0-d, an int
    beyond float64 or a bool is rejected as NaN is, with the same message, instead of
    escaping as numpy's TypeError or ValueError."""
    call, error, message = SCALAR_CHECKS[check]
    v = NOT_ONE_REAL[value]
    with pytest.raises(error, match=f"^{re.escape(message(v))}$"):
        call(v)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_absolute_pose_rejects_a_non_positive_c(value):
    """c = 0 would divide by zero and c < 0 would mirror the pose through
    the camera centre; both are rejected as NormalizationConfig rejects them."""
    with pytest.raises(ConfigError, match="^normalization constant c must be positive and finite$"):
        hand25d.absolute_pose(_POSE, 2.0, c=value)


@pytest.mark.parametrize("value", [2, np.float64(2.0), np.array(2.0), np.float32(2.0)])
def test_scalar_arguments_accept_numpy_scalars(value):
    c = hand25d.NormalizationConfig(c=value).c
    assert c == 2.0 and type(c) is float
    np.testing.assert_array_equal(hand25d.absolute_pose(_POSE, value).xyz, 2.0)
    np.testing.assert_array_equal(hand25d.absolute_pose(_POSE, 4.0, c=value).xyz, 2.0)


INTEGER_FIELDS = {
    "pair-three-values": (lambda: hand25d.NormalizationConfig(pair=(5, 0, 1)),
                          "pair must be two integers (child, parent), got (5, 0, 1)"),
    "pair-one-int": (lambda: hand25d.NormalizationConfig(pair=5),
                     "pair must be two integers (child, parent), got 5"),
    "pair-float-child": (lambda: hand25d.NormalizationConfig(pair=(5.0, 0)),
                         "pair must be two integers (child, parent), got (5.0, 0)"),
    "pair-float-parent": (lambda: hand25d.NormalizationConfig(pair=(5, 0.0)),
                          "pair must be two integers (child, parent), got (5, 0.0)"),
    "pair-bool": (lambda: hand25d.NormalizationConfig(pair=(True, False)),
                  "pair must be two integers (child, parent), got (True, False)"),
    "grid-str-width": (lambda: HeatmapGrid("5", 5), "grid width must be an integer, got '5'"),
    "grid-float-width": (lambda: HeatmapGrid(4.5, 4), "grid width must be an integer, got 4.5"),
    "grid-float-height": (lambda: HeatmapGrid(4, 4.0), "grid height must be an integer, got 4.0"),
    "seed-str": (lambda: hand25d.SynthConfig(seed="3"), "seed must be an integer, got '3'"),
    "seed-float": (lambda: hand25d.SynthConfig(seed=1.5), "seed must be an integer, got 1.5"),
    "gradcheck-seeds-bool": (lambda: hand25d.gradcheck("softargmax", seeds=True),
                             "seeds must be an integer >= 1, got True"),
    "gradcheck-seeds-float": (lambda: hand25d.gradcheck("softargmax", seeds=1.0),
                              "seeds must be an integer >= 1, got 1.0"),
    "synth-grid-one-value": (lambda: hand25d.SynthConfig(grid=(128,)),
                             "grid must be two integers (width, height), got (128,)"),
    "synth-grid-float": (lambda: hand25d.SynthConfig(grid=(128.5, 128)),
                         "grid must be two integers (width, height), got (128.5, 128)"),
    "root-float": (lambda: hand25d.Pose25D(np.zeros((3, 2)), np.zeros(3), root=1.5),
                   "root must be an integer, got 1.5"),
    "root-bool": (lambda: hand25d.Pose25D(np.zeros((3, 2)), np.zeros(3), root=True),
                  "root must be an integer, got True"),
    "root-str": (lambda: hand25d.Pose25D(np.zeros((3, 2)), np.zeros(3), root="0"),
                 "root must be an integer, got '0'"),
    "root-none": (lambda: hand25d.Pose25D(np.zeros((3, 2)), np.zeros(3), root=None),
                  "root must be an integer, got None"),
    "spread-ones-float": (lambda: hand25d.SpreadParams.ones(2.5), "k must be an integer >= 1, got 2.5"),
    "spread-ones-bool": (lambda: hand25d.SpreadParams.ones(True), "k must be an integer >= 1, got True"),
    "spread-ones-str": (lambda: hand25d.SpreadParams.ones("3"), "k must be an integer >= 1, got '3'"),
    "spread-ones-negative": (lambda: hand25d.SpreadParams.ones(-1), "k must be an integer >= 1, got -1"),
    "spread-ones-zero": (lambda: hand25d.SpreadParams.ones(0), "k must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("case", INTEGER_FIELDS)
def test_integer_fields_raise_config_error_naming_the_field(case):
    """An integer field given a float, a str, a bool or the wrong number of
    values raises ConfigError when the config is built, not Python's or
    numpy's error when it is first used."""
    call, message = INTEGER_FIELDS[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_fields_accept_numpy_integers():
    i = np.int64
    assert hand25d.NormalizationConfig(pair=(i(12), i(11))).pair == (12, 11)
    assert hand25d.NormalizationConfig(pair=[5, 0]).pair == (5, 0)
    assert HeatmapGrid(i(5), np.int32(4)).width == 5
    cfg = hand25d.SynthConfig(seed=i(3), grid=(i(128), 128))
    seed = hand25d.gen_pose(cfg, 0)[2].meta["seed"]  # written to JSON as a plain int
    assert type(seed) is int and seed == 3


def test_root_and_spread_size_accept_numpy_integers():
    root = hand25d.Pose25D(np.zeros((3, 2)), np.zeros(3), root=np.int64(2)).root
    assert type(root) is int and root == 2
    assert hand25d.SpreadParams.ones(np.int32(3)).beta.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("make, plain", [
    (lambda: hand25d.SynthConfig(grid=[128, 128]), hand25d.SynthConfig()),
    (lambda: hand25d.SynthConfig(seed=np.int64(3), grid=(np.int32(64), np.int64(96))),
     hand25d.SynthConfig(seed=3, grid=(64, 96))),
    (lambda: hand25d.NormalizationConfig(c=np.array(2.0)), hand25d.NormalizationConfig(c=2.0)),
    (lambda: hand25d.NormalizationConfig(c=np.float32(2.0)), hand25d.NormalizationConfig(c=2.0)),
    (lambda: hand25d.NormalizationConfig(c=2), hand25d.NormalizationConfig(c=2.0)),
    (lambda: hand25d.LossConfig(alpha=np.array(20.0)), hand25d.LossConfig()),
    (lambda: hand25d.LossConfig(alpha=np.float32(20.0)), hand25d.LossConfig()),
], ids=["grid-list", "numpy-ints", "c-0d-array", "c-float32", "c-int", "alpha-0d-array",
        "alpha-float32"])
def test_configs_store_plain_python_numbers(make, plain):
    """A config built from a list, numpy integers or a numpy float stores
    Python ints and floats: it equals, hashes and prints as the plain one."""
    cfg = make()
    assert cfg == plain and hash(cfg) == hash(plain) and repr(cfg) == repr(plain)


@pytest.mark.parametrize("value", [np.float32(40.0), np.array(40.0), 40],
                         ids=["float32", "0d-array", "int"])
def test_camera_stores_plain_floats(tmp_path, value):
    """A camera built from a numpy float, a 0-d array or an int equals and
    hashes as the float camera, and writes the same camera JSON bytes."""
    cam = hand25d.CameraIntrinsics(**{**_CAMERA, "fx": value})
    plain = hand25d.CameraIntrinsics(**_CAMERA)
    assert cam == plain and hash(cam) == hash(plain) and type(cam.fx) is float
    serialize.write_camera_json(tmp_path / "cam.json", cam)
    serialize.write_camera_json(tmp_path / "plain.json", plain)
    assert (tmp_path / "cam.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_float32_settings_compute_in_float64():
    """A float32 c or alpha gives the bits of the Python float, not float32
    arithmetic through numpy's promotion rules."""
    pose, p25, _ = hand25d.gen_pose(hand25d.SynthConfig(seed=3), 0)
    cam = hand25d.SynthConfig().camera
    zr = [hand25d.to_25d(pose, cam, hand25d.NormalizationConfig(c=c)).zr
          for c in (np.float32(2.0), 2.0)]
    assert zr[0].tobytes() == zr[1].tobytes()
    pred = hand25d.Pose25D(p25.xy + 0.5, p25.zr + 0.01)
    ann = hand25d.SampleAnnotations(hand25d.Pose2D(p25.xy), gt_zr=p25.zr)
    losses = [hand25d.pose_loss(pred, ann, hand25d.LossConfig(alpha=a))
              for a in (np.float32(20.0), 20.0)]
    assert losses[0] == losses[1] and type(losses[0][0]) is float


def test_readme_library_tour_runs(capsys):
    """The Python block of README's "Library tour" runs, and the metric pose
    it rebuilds from the 2.5D view matches the generated one as its comment
    says."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-9
