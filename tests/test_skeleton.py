import numpy as np
import pytest

from hand25d.errors import BadFactorError, EmptyInputError, NonFiniteError, ShapeMismatchError
from hand25d.skeleton import (
    FINGERTIP_INDICES,
    BoneStats,
    Skeleton,
    bone_lengths,
    canonical_skeleton,
    mean_bone_stats,
    shorten_fingertips,
)
from hand25d.types import Pose3D


def random_pose(seed=0, scale=50.0):
    rng = np.random.default_rng(seed)
    return Pose3D(xyz=rng.normal(scale=scale, size=(21, 3)) + [0, 0, 500])


class TestCanonicalSkeleton:
    def test_root_is_self_parented(self):
        assert canonical_skeleton().parent[0] == 0

    def test_index_mcp_attaches_to_palm(self):
        skel = canonical_skeleton()
        assert skel.parent[5] == 0
        assert skel.names[5] == "index_mcp"

    def test_twenty_bones(self):
        assert len(canonical_skeleton().bones) == 20

    def test_bone_id_is_child_minus_one(self):
        skel = canonical_skeleton()
        for bone_id, (child, parent) in enumerate(skel.bones):
            assert bone_id == child - 1
            assert parent == skel.parent[child]

    def test_bone_ends_follow_bones(self):
        skel = canonical_skeleton()
        children, parents = skel.bone_ends
        assert list(zip(children.tolist(), parents.tolist())) == list(skel.bones)
        with pytest.raises(ValueError):
            children[0] = 3  # shared by every caller, so read-only

    @pytest.mark.parametrize("names, parent", [
        (("palm", "a"), (0,)),                  # one parent short
        (("palm", "a"), (1, 0)),                # root not first
        (("palm", "a", "b"), (0, 2, 0)),        # a parent after its child
        (("palm", "a", "b"), (0, 2, 1)),        # a two-node cycle
        ((), ()),                               # no root at all
    ], ids=["length-mismatch", "root-not-first", "parent-after-child", "two-node-cycle",
            "empty"])
    def test_every_parent_precedes_its_child(self, names, parent):
        with pytest.raises(ShapeMismatchError):
            Skeleton(names, parent)

    def test_pinned_to_the_canonical_hand(self):
        """The canonical hand as literals: its names and parents, and the
        num_keypoints, bones and bone_ends derived from them."""
        skel = canonical_skeleton()
        assert skel.num_keypoints == 21
        assert skel.bones == (
            (1, 0), (2, 1), (3, 2), (4, 3), (5, 0), (6, 5), (7, 6), (8, 7), (9, 0), (10, 9),
            (11, 10), (12, 11), (13, 0), (14, 13), (15, 14), (16, 15), (17, 0), (18, 17),
            (19, 18), (20, 19))
        children, parents = skel.bone_ends
        assert children.tolist() == list(range(1, 21))
        assert parents.tolist() == [0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0,
                                    17, 18, 19]
        assert skel.names == (
            "palm", "thumb_mcp", "thumb_pip", "thumb_dip", "thumb_tip", "index_mcp", "index_pip",
            "index_dip", "index_tip", "middle_mcp", "middle_pip", "middle_dip", "middle_tip",
            "ring_mcp", "ring_pip", "ring_dip", "ring_tip", "pinky_mcp", "pinky_pip", "pinky_dip",
            "pinky_tip")
        assert skel.parent == (0, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17,
                               18, 19)

    def test_every_node_reaches_root_within_four_hops(self):
        skel = canonical_skeleton()
        for k in range(skel.num_keypoints):
            node, hops = k, 0
            while node != 0:
                node = skel.parent[node]
                hops += 1
            assert hops <= 4

    def test_fingertips_are_leaves(self):
        skel = canonical_skeleton()
        parents = set(skel.parent[k] for k in range(1, 21))
        for tip in FINGERTIP_INDICES:
            assert tip not in parents


class TestBoneStats:
    @pytest.mark.parametrize("lengths, error, message", [
        (np.ones((20, 1)), ShapeMismatchError, "mean_length must be a flat array indexed by bone id"),
        (5.0, ShapeMismatchError, "mean_length must be a flat array indexed by bone id"),
        ([30.0, 0.0], NonFiniteError, "bone length means must be finite and positive"),
        ([30.0, -1.0], NonFiniteError, "bone length means must be finite and positive"),
        ([30.0, np.inf], NonFiniteError, "bone length means must be finite and positive"),
    ], ids=["2d", "scalar", "zero", "negative", "inf"])
    def test_rejected(self, lengths, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            BoneStats(mean_length=lengths)


class TestBoneLengths:
    def test_all_zero_pose(self):
        pose = Pose3D(xyz=np.zeros((21, 3)))
        assert np.all(bone_lengths(pose, canonical_skeleton()) == 0)

    def test_three_four_five(self):
        skel = canonical_skeleton()
        xyz = np.zeros((21, 3))
        xyz[1] = [3.0, 4.0, 0.0]  # thumb MCP, parent is palm at origin
        lengths = bone_lengths(Pose3D(xyz=xyz), skel)
        assert lengths[0] == 5.0

    def test_uniform_scale_homogeneity(self):
        skel = canonical_skeleton()
        pose = random_pose(3)
        doubled = Pose3D(xyz=2.0 * pose.xyz)
        np.testing.assert_allclose(
            bone_lengths(doubled, skel), 2.0 * bone_lengths(pose, skel), rtol=1e-12
        )

    def test_nonfinite_rejected(self):
        xyz = np.zeros((21, 3))
        xyz[7, 1] = np.nan
        with pytest.raises(NonFiniteError):
            bone_lengths(Pose3D(xyz=xyz), canonical_skeleton())


class TestMeanBoneStats:
    def test_single_pose_equals_its_lengths(self):
        skel = canonical_skeleton()
        pose = random_pose(1)
        stats = mean_bone_stats([pose], skel)
        np.testing.assert_array_equal(stats.mean_length, bone_lengths(pose, skel))

    def test_arithmetic_mean_of_two(self):
        skel = canonical_skeleton()
        xyz_a = np.zeros((21, 3))
        xyz_b = np.zeros((21, 3))
        for child, parent in skel.bones:
            xyz_a[child] = xyz_a[parent] + [4.0, 0, 0]
            xyz_b[child] = xyz_b[parent] + [6.0, 0, 0]
        stats = mean_bone_stats([Pose3D(xyz=xyz_a), Pose3D(xyz=xyz_b)], skel)
        np.testing.assert_allclose(stats.mean_length, 5.0)

    def test_order_invariance(self):
        skel = canonical_skeleton()
        poses = [random_pose(s) for s in range(5)]
        forward = mean_bone_stats(poses, skel)
        backward = mean_bone_stats(poses[::-1], skel)
        np.testing.assert_allclose(forward.mean_length, backward.mean_length, rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mean_bone_stats([], canonical_skeleton())


class TestShortenFingertips:
    def test_identity_factor(self):
        skel = canonical_skeleton()
        pose = random_pose(5)
        out = shorten_fingertips(pose, 1.0, skel)
        np.testing.assert_array_equal(out.xyz, pose.xyz)

    def test_point_nine_moves_tip(self):
        skel = canonical_skeleton()
        xyz = np.zeros((21, 3))
        tip, parent = 4, skel.parent[4]
        xyz[parent] = [1.0, 2.0, 3.0]
        xyz[tip] = xyz[parent] + [10.0, 0.0, 0.0]
        out = shorten_fingertips(Pose3D(xyz=xyz), 0.9, skel)
        np.testing.assert_allclose(out.xyz[tip], xyz[parent] + [9.0, 0.0, 0.0], rtol=1e-15)

    def test_twice_f_equals_once_f_squared(self):
        skel = canonical_skeleton()
        pose = random_pose(6)
        twice = shorten_fingertips(shorten_fingertips(pose, 0.8, skel), 0.8, skel)
        once = shorten_fingertips(pose, 0.64, skel)
        np.testing.assert_allclose(twice.xyz, once.xyz, rtol=0, atol=1e-12)

    def test_only_tip_bones_change(self):
        skel = canonical_skeleton()
        pose = random_pose(7)
        before = bone_lengths(pose, skel)
        out = shorten_fingertips(pose, 0.9, skel)
        after = bone_lengths(out, skel)
        tip_bones = [t - 1 for t in FINGERTIP_INDICES]
        for bone_id in range(20):
            if bone_id in tip_bones:
                assert abs(after[bone_id] / before[bone_id] - 0.9) < 1e-12
            else:
                assert after[bone_id] == before[bone_id]
        non_tips = [k for k in range(21) if k not in FINGERTIP_INDICES]
        np.testing.assert_array_equal(out.xyz[non_tips], pose.xyz[non_tips])

    def test_tip_with_an_invalid_end_stays_in_place(self):
        skel = canonical_skeleton()
        pose = random_pose(9)
        valid = np.ones(21, dtype=bool)
        valid[[3, 8]] = False  # thumb DIP (parent of tip 4) and index tip
        xyz = np.where(valid[:, None], pose.xyz, 0.0)  # placeholders at the invalid rows
        out = shorten_fingertips(Pose3D(xyz=xyz, valid=valid), 0.9, skel)
        np.testing.assert_array_equal(out.xyz[[3, 4, 8]], xyz[[3, 4, 8]])
        moved = shorten_fingertips(Pose3D(xyz=xyz), 0.9, skel)
        np.testing.assert_array_equal(out.xyz[[12, 16, 20]], moved.xyz[[12, 16, 20]])
        np.testing.assert_array_equal(out.valid, valid)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_bad_factor(self, factor):
        with pytest.raises(BadFactorError):
            shorten_fingertips(random_pose(8), factor, canonical_skeleton())

    def test_keypoint_count_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="^pose and skeleton keypoint counts differ$"):
            shorten_fingertips(Pose3D(xyz=np.zeros((20, 3))), 0.9, canonical_skeleton())
