import hashlib
import json
import logging
import pathlib
import re

import numpy as np
import pytest

from radsurv.phantoms import (CohortSpec, PhantomError, PhantomSpec,
                              gen_cohort, gen_mask)


class TestGenMask:
    def test_sphere_volume_within_digitization_tolerance(self):
        spec = PhantomSpec(shape="sphere", params=(10.0,), center=(12, 12, 12),
                           label_fill=1, dims=(25, 25, 25))
        count = np.count_nonzero(gen_mask(spec).labels == 1)
        analytic = 4.0 / 3.0 * np.pi * 1000.0
        assert abs(count - analytic) / analytic < 0.02
        assert count == 4169   # frozen digitization of the canonical phantom

    def test_cuboid_exact_count(self):
        spec = PhantomSpec(shape="cuboid", params=(4, 6, 8),
                           center=(10.5, 10.5, 10.5), label_fill=2,
                           dims=(24, 24, 24))
        assert np.count_nonzero(gen_mask(spec).labels == 2) == 192

    def test_single_voxel(self):
        spec = PhantomSpec(shape="single_voxel", params=(),
                           center=(5, 5, 5), label_fill=4, dims=(12, 12, 12))
        mask = gen_mask(spec)
        assert np.count_nonzero(mask.labels == 4) == 1
        assert mask.labels[5, 5, 5] == 4

    @pytest.mark.parametrize("center,voxel", [((11.5, 0, 0), (11, 0, 0)),
                                              ((-0.5, 0, 0), (0, 0, 0))])
    def test_single_voxel_on_the_grid_face(self, center, voxel):
        """A centre on the grid's outer face rounds (half to even) past the
        edge; the voxel is the one on that face."""
        spec = PhantomSpec(shape="single_voxel", params=(), center=center,
                           label_fill=4, dims=(12, 12, 12))
        assert np.argwhere(gen_mask(spec).labels == 4).tolist() == [
            list(voxel)]

    @pytest.mark.parametrize("shape,params", [("sphere", ()),
                                              ("ellipsoid", (3, 2)),
                                              ("cuboid", (1, 2, 3, 4)),
                                              ("single_voxel", (1,))])
    def test_wrong_param_count(self, shape, params):
        spec = PhantomSpec(shape=shape, params=params, center=(6, 6, 6),
                           dims=(12, 12, 12))
        with pytest.raises(PhantomError, match="takes"):
            gen_mask(spec)

    @pytest.mark.parametrize("grid", [dict(spacing=(1, np.inf, 1)),
                                      dict(spacing=(1, np.nan, 1)),
                                      dict(origin=(0, 0, -np.inf))])
    def test_non_finite_geometry(self, grid):
        spec = PhantomSpec(shape="sphere", params=(2,), center=(6, 6, 6),
                           dims=(12, 12, 12), **grid)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            gen_mask(spec)

    def test_ellipsoid_between_bounding_shapes(self):
        spec = PhantomSpec(shape="ellipsoid", params=(8, 6, 4),
                           center=(15, 15, 15), label_fill=1,
                           dims=(32, 32, 32))
        count = np.count_nonzero(gen_mask(spec).labels == 1)
        analytic = 4.0 / 3.0 * np.pi * 8 * 6 * 4
        assert abs(count - analytic) / analytic < 0.05

    def test_shape_exceeding_grid(self):
        spec = PhantomSpec(shape="sphere", params=(10.0,), center=(5, 12, 12),
                           label_fill=1, dims=(25, 25, 25))
        with pytest.raises(PhantomError, match="exceeds"):
            gen_mask(spec)

    def test_sphere_octant_symmetry(self):
        spec = PhantomSpec(shape="sphere", params=(8.0,), center=(12, 12, 12),
                           label_fill=2, dims=(25, 25, 25))
        member = gen_mask(spec).labels == 2
        flips = [member,
                 member[::-1, :, :], member[:, ::-1, :], member[:, :, ::-1],
                 member[::-1, ::-1, ::-1]]
        for f in flips[1:]:
            assert np.array_equal(flips[0], f)


class TestGenCohort:
    def _spec(self, **kw):
        base = dict(n_subjects=6, seed=99,
                    link={"shape.mesh_volume": 0.15, "meta.age": 2.0},
                    noise_std=0.0, n_distractors=2)
        base.update(kw)
        return CohortSpec(**base)

    def test_zero_noise_identity(self):
        cohort, _ = gen_cohort(self._spec())
        link = (0.15 * cohort.column("shape.mesh_volume")
                + 2.0 * cohort.column("meta.age"))
        assert np.array_equal(cohort.survival_days, np.maximum(link, 1.0))

    def test_same_seed_bit_identical(self, tmp_path):
        c1, _ = gen_cohort(self._spec(noise_std=12.0))
        c2, _ = gen_cohort(self._spec(noise_std=12.0))
        assert np.array_equal(c1.X, c2.X)
        assert np.array_equal(c1.survival_days, c2.survival_days)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        c1.write_features_csv(str(p1))
        c2.write_features_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        c1, _ = gen_cohort(self._spec())
        c2, _ = gen_cohort(self._spec(seed=100))
        assert not np.array_equal(c1.X, c2.X)

    def test_class_proportions_near_mix(self, class_mix_cohort):
        cohort, _, spec = class_mix_cohort
        days = cohort.survival_days
        t_lo, t_hi = spec.thresholds
        short = float((days < t_lo).mean())
        mid = float(((days >= t_lo) & (days <= t_hi)).mean())
        long = float((days > t_hi).mean())
        for observed, target in zip((short, mid, long), spec.class_mix):
            assert abs(observed - target) <= 0.1

    def test_distractor_count_and_names(self, class_mix_cohort):
        cohort, _, spec = class_mix_cohort
        noise = [n for n in cohort.feature_names if n.startswith("noise.")]
        assert len(noise) == 17
        assert len(cohort.feature_names) == 7 + 12 + 107 + 17

    def test_unknown_link_feature_rejected(self, monkeypatch):
        """before any subject is extracted"""
        import radsurv.radiomics

        calls = []
        monkeypatch.setattr(radsurv.radiomics, "extract_radiomics",
                            lambda *args: calls.append(args))
        with pytest.raises(PhantomError, match="unknown feature"):
            gen_cohort(self._spec(link={"does.not.exist": 1.0}))
        assert calls == []

    def test_bad_class_mix_rejected(self):
        with pytest.raises(PhantomError, match="class_mix"):
            gen_cohort(self._spec(class_mix=(0.5, 0.4, 0.4)))

    def test_negative_resection_mix_rejected(self):
        """(-0.5, 1.5, 0) sums to 1 and used to make every subject STR."""
        with pytest.raises(PhantomError, match="resection_mix must be 3 "
                           "proportions summing to 1, got \\(-0.5, 1.5"):
            gen_cohort(self._spec(resection_mix=(-0.5, 1.5, 0.0)))

    def test_reversed_thresholds_rejected(self):
        """With a class mix they used to give a negative calibration scale,
        which inverts the link."""
        with pytest.raises(ValueError, match="t_lo 500.0 is above t_hi 300.0"):
            gen_cohort(self._spec(class_mix=(0.3, 0.3, 0.4),
                                  thresholds=(500.0, 300.0)))

    def test_survival_floored_at_one_day(self):
        cohort, _ = gen_cohort(self._spec(
            link={"meta.age": 1.0}, intercept=-1000.0))
        assert np.all(cohort.survival_days >= 1.0)

    def test_floored_survival_is_logged_once_per_cohort(self, caplog):
        """A spec with no link floors every value at 1 day, which used to
        pass without a word; the README's desk-scale spec floors none."""
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        spec = json.loads(re.search(r"cat > spec.json <<'EOF'\n(.*?)\nEOF",
                                    readme, re.S).group(1))["cohort"]
        for kw, message in (({"n_subjects": 6, "seed": 3}, "6 of 6"),
                            (spec, None)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="radsurv"):
                cohort, _ = gen_cohort(CohortSpec(**kw))
            records = [r for r in caplog.records if r.name == "radsurv"]
            if message is None:
                assert records == [] and cohort.survival_days.min() > 1.0
                continue
            [record] = records
            assert record.levelno == logging.WARNING
            assert record.getMessage() == ("cohort survival floored at 1 "
                                           f"day for {message} subjects")
            assert np.all(cohort.survival_days == 1.0)


# Golden digests, recorded before the voxel-centre grid was replaced by
# per-axis coordinate vectors: any change of a phantom bit fails here.
ODD_SPACING = (0.9, 1.3, 0.5)
ODD_ORIGIN = (-20.25, 3.5, 11.0)

GOLDEN_MASKS = {
    "sphere": (
        PhantomSpec(shape="sphere", params=(7.3,), center=(12.2, 11.7, 13.1),
                    dims=(26, 25, 27)),
        "22f355b3d2f009ed53bf7b7c465b1b9d8b7b49c65d6b80d807da21c9655969c4"),
    "sphere_odd": (
        PhantomSpec(shape="sphere", params=(5.2,), center=(-9.1, 18.4, 18.3),
                    label_fill=2, dims=(27, 24, 30), spacing=ODD_SPACING,
                    origin=ODD_ORIGIN),
        "95d360d48f7ff511ef53d5dc472cd049f04ed89e0748b00a371c531a18872529"),
    "ellipsoid": (
        PhantomSpec(shape="ellipsoid", params=(9.5, 6.25, 4.8),
                    center=(14.3, 12.9, 11.6), label_fill=4,
                    dims=(30, 28, 26)),
        "69415f630a2421c11f54c9aba9a4eef6a4244cb932f4d8cdb8fa576b2ae4926c"),
    "ellipsoid_odd": (
        PhantomSpec(shape="ellipsoid", params=(8.4, 5.1, 3.7),
                    center=(-7.6, 17.2, 17.9), dims=(28, 22, 28),
                    spacing=ODD_SPACING, origin=ODD_ORIGIN),
        "1f367e4a8ea597651f7b4a95cabc6fc86ffa485499369d515a0a56b5a0959ee5"),
    "cuboid": (
        PhantomSpec(shape="cuboid", params=(7.3, 5.5, 9.1),
                    center=(10.4, 9.8, 11.2), label_fill=2, dims=(22, 20, 24)),
        "3d30195e5b2c79562c75d51e51bceaaefd7331e0b1bd238c45f7ef74e85bb347"),
    "cuboid_odd": (
        PhantomSpec(shape="cuboid", params=(9.7, 8.3, 5.9),
                    center=(-8.8, 16.9, 18.6), label_fill=4, dims=(26, 22, 30),
                    spacing=ODD_SPACING, origin=ODD_ORIGIN),
        "b9fdfbc34730f29eb907a96199c566a4a761237ddedeb2183ca39f24eb5c815b"),
    "single_voxel": (
        PhantomSpec(shape="single_voxel", params=(), center=(6, 7, 8),
                    dims=(12, 13, 14)),
        "a5868b75b7ae3c7ec2b7f9323488ac0d953e908de37adf7f0a111d45ffd6faea"),
    "single_voxel_odd": (
        PhantomSpec(shape="single_voxel", params=(),
                    center=(-13.95, 9.0, 14.5), label_fill=2,
                    dims=(12, 10, 16), spacing=ODD_SPACING, origin=ODD_ORIGIN),
        "77e974fdeb1c5a3644368b67e3c61fd5facff962161c4c7874d0ed9c53519c3e"),
    # surfaces through voxel centres: (15, 10, 10) and (13, 14, 10) on the
    # sphere, (14, 10, 10) on the ellipsoid and the cuboid faces at 8 / 12,
    # 7 / 13 and 6 / 14 all lie exactly on the boundary, which is inclusive
    "sphere_on_centres": (
        PhantomSpec(shape="sphere", params=(5.0,), center=(10, 10, 10),
                    dims=(21, 21, 21)),
        "39cd3eee0b2b6219ad0641a4e71e926f861c863537669a7799430468060e3f52"),
    "ellipsoid_on_centres": (
        PhantomSpec(shape="ellipsoid", params=(4.0, 3.0, 5.0),
                    center=(10, 10, 10), dims=(21, 21, 21)),
        "a63806e5117ad1e6304ebaafa2889169a738c62b793bc9d7a3bcaf1cd5b29299"),
    "cuboid_on_centres": (
        PhantomSpec(shape="cuboid", params=(4.0, 6.0, 8.0),
                    center=(10, 10, 10), dims=(21, 21, 21)),
        "984ccae1d3dc456d7ee67a23697aab817e792af5d9932196a332c33ba6d2ee56"),
}

GOLDEN_COHORT = {
    "X": "53cedb7f4c66603e20a47698a953cbcbe5cde3d06eccddaa1ff668352bc22206",
    "survival_days":
        "61626652c4a052631922f7113eddd1e1c87e77994f8a16117f55a32d0467cc7d",
    "report":
        "1ad8a7346f5b7044a702af30ac93119c081da34b20962902061514a81f4cf166",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MASKS))
def test_gen_mask_golden_digest(name):
    spec, digest = GOLDEN_MASKS[name]
    labels = gen_mask(spec).labels
    assert labels.dtype == np.int16 and labels.shape == spec.dims
    assert _sha(np.ascontiguousarray(labels).tobytes()) == digest


def test_surface_through_voxel_centres_is_inside():
    for name, point in (("sphere_on_centres", (15, 10, 10)),
                        ("sphere_on_centres", (13, 14, 10)),
                        ("ellipsoid_on_centres", (14, 10, 10)),
                        ("cuboid_on_centres", (8, 13, 14))):
        spec = GOLDEN_MASKS[name][0]
        assert gen_mask(spec).labels[point] == spec.label_fill, name


def test_gen_cohort_golden_digest():
    spec = CohortSpec(n_subjects=12, seed=31,
                      link={"shape.mesh_volume": 0.1, "meta.age": 3.0,
                            "mask.amount_edema": 0.02},
                      noise_std=25.0, class_mix=(0.3, 0.4, 0.3),
                      n_distractors=3)
    cohort, report = gen_cohort(spec)
    got = {"X": _sha(cohort.X.tobytes()),
           "survival_days": _sha(cohort.survival_days.tobytes()),
           "report": _sha(json.dumps(report, sort_keys=True).encode())}
    assert got == GOLDEN_COHORT
