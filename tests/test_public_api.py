"""The public API's annotations resolve, so typing.get_type_hints works
on every exported name and on the methods of exported classes; settings
that no caller sets are constants, not parameters."""
import dataclasses
import inspect
import typing

import pytest

import hand25d


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
