"""Mask decoding: the integer fast path against the former float64 decode,
the rejections of out-of-range and non-finite values, the box of labelled
voxels a loaded mask holds, the gzip stream's edge cases and their messages, a seeded byte-mutation fuzz test over hand-built
NIfTI files and memory guards on ``load_nifti`` and ``load_mask``."""

import ast
import gzip
import inspect
import re
import struct
import zlib

import numpy as np
import pytest

import radsurv.volumeio as volumeio
from radsurv.volumeio import (ROI_KINDS, LabelMask, MaskLabelError,
                              NiftiError, derive_roi, load_mask, load_nifti)
import oracles
from conftest import traced_peak, write_brats_mask

_CODES = {"u1": (2, 8), "i2": (4, 16), "i4": (8, 32), "f4": (16, 32),
          "f8": (64, 64)}


def nifti_blob(stored, byteorder="<", slope=0.0, inter=0.0,
               spacing=(1.0, 1.5, 2.0), origin=(-3.0, 4.5, 0.25)):
    """A single-file NIfTI-1 image of ``stored`` written field by field in
    ``byteorder``, with the payload in the array's own dtype kind and size."""
    stored = np.asarray(stored)
    key = stored.dtype.str[1:]
    code, bitpix = _CODES[key]
    hdr = bytearray(348)
    struct.pack_into(byteorder + "i", hdr, 0, 348)
    struct.pack_into(byteorder + "8h", hdr, 40, 3, *stored.shape, 1, 1, 1, 1)
    struct.pack_into(byteorder + "2h", hdr, 70, code, bitpix)
    struct.pack_into(byteorder + "8f", hdr, 76, 1.0, *spacing, 0, 0, 0, 0)
    struct.pack_into(byteorder + "3f", hdr, 108, 352.0, slope, inter)
    struct.pack_into(byteorder + "3f", hdr, 268, *origin)
    hdr[344:348] = b"n+1\x00"
    payload = stored.astype(byteorder + key).tobytes(order="F")
    return bytes(hdr) + b"\x00" * 4 + payload


def write_blob(path, blob):
    path.write_bytes(gzip.compress(blob, mtime=0)
                     if path.name.endswith(".gz") else blob)
    return str(path)


def random_labels(rng, shape=(7, 37, 6)):
    return rng.choice(np.array([0, 1, 2, 4]), size=shape,
                      p=(0.4, 0.2, 0.2, 0.2))


class TestFastPathEquivalence:
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("key", ["u1", "i2", "i4", "f4", "f8"])
    def test_labels_equal_float_decode(self, tmp_path, key, byteorder,
                                       suffix):
        rng = np.random.default_rng(2020)
        labels = random_labels(rng)
        halves = rng.choice(np.array([0, 1, 2]), size=labels.shape)
        # labels in an inner box, stored + 1 and scaled back by scl_inter
        # -1: the background is stored as 1, so only a box found on the
        # scaled samples is the box of the labelled voxels
        inner = (slice(1, -1), slice(2, -3), slice(1, -1))
        framed = np.zeros_like(labels)
        framed[inner] = labels[inner]
        whole = (slice(None),) * 3
        cases = ((0.0, 0.0, labels, labels, whole),
                 (1.0, 0.0, labels, labels, whole),
                 (2.0, 0.0, halves, 2 * halves, whole),
                 (1.0, -1.0, framed + 1, framed[inner], inner))
        for n, (slope, inter, stored, expected, held) in enumerate(cases):
            path = write_blob(tmp_path / f"m{n}{suffix}",
                              nifti_blob(stored.astype(key), byteorder,
                                         slope, inter))
            mask = load_mask(path)
            want = oracles.load_mask_via_float(path)[held]
            assert mask.corner == tuple(b.indices(d)[0] for b, d in
                                        zip(held, mask.dims))
            # every accepted label fits in u1; labels stay in file order
            # and read-only
            assert mask.labels.dtype == np.uint8
            assert mask.labels.flags.f_contiguous
            assert not mask.labels.flags.writeable
            assert np.array_equal(mask.labels, want)
            assert np.array_equal(mask.labels, expected)
            vol = load_nifti(path)
            assert (mask.dims, mask.spacing, mask.origin) == \
                (vol.dims, vol.spacing, vol.origin)

    @pytest.mark.parametrize("key", ["u1", "i2", "i4", "f4"])
    def test_bad_label_message_unchanged(self, tmp_path, key):
        labels = np.zeros((3, 4, 2), dtype=key)
        labels[2, 1, 0] = 3
        labels[2, 3, 1] = 5
        for byteorder in "<>":
            path = write_blob(tmp_path / f"bad{byteorder == '>'}.nii.gz",
                              nifti_blob(labels, byteorder))
            with pytest.raises(MaskLabelError) as want:
                oracles.load_mask_via_float(path)
            with pytest.raises(MaskLabelError) as got:
                load_mask(path)
            assert str(got.value) == str(want.value)
            assert "label 3 at voxel (2, 1, 0)" in str(got.value)

    def test_non_integer_message_unchanged(self, tmp_path):
        stored = np.zeros((3, 3, 3), dtype=np.int16)
        stored[1, 0, 2] = 3
        cases = (("f4", np.where(stored, 1.5, 0.0), 0.0),
                 ("i2", stored, 0.5))       # 3 * 0.5 = 1.5 after scaling
        for key, values, slope in cases:
            path = write_blob(tmp_path / f"frac_{key}.nii",
                              nifti_blob(values.astype(key), slope=slope))
            with pytest.raises(MaskLabelError) as want:
                oracles.load_mask_via_float(path)
            with pytest.raises(MaskLabelError) as got:
                load_mask(path)
            assert str(got.value) == str(want.value)
            assert "voxel (1, 0, 2) holds non-integer value" in str(got.value)

    @pytest.mark.parametrize("key", ["u1", "i2"])
    def test_int16_payload_scanned_once(self, tmp_path, key, monkeypatch):
        scans = []
        check = volumeio._check_vocabulary
        monkeypatch.setattr(volumeio, "_check_vocabulary",
                            lambda *args: scans.append(args) or check(*args))
        labels = random_labels(np.random.default_rng(4)).astype(key)
        path = write_blob(tmp_path / "once.nii", nifti_blob(labels))
        assert np.array_equal(load_mask(path).labels, labels)
        assert len(scans) == 1


def _box_cases(rng, shape=(9, 8, 7)):
    """(name, labels): random labels in a random inner box, none, labels
    over the whole grid, one voxel at each grid corner, and a blob touching
    each face."""
    labels = np.zeros(shape, dtype=np.int16)
    lo = [int(rng.integers(1, n // 2)) for n in shape]
    hi = [int(rng.integers(m + 1, n - 1)) for m, n in zip(lo, shape)]
    inner = tuple(map(slice, lo, hi))
    labels[inner] = random_labels(rng, labels[inner].shape)
    labels[tuple(lo)] = labels[tuple(h - 1 for h in hi)] = 4
    yield "random", labels
    yield "all-zero", np.zeros(shape, dtype=np.int16)
    whole = random_labels(rng, shape)
    whole[0, 0, 0] = whole[-1, -1, -1] = 2
    yield "whole-grid", whole
    for corner in np.ndindex(2, 2, 2):
        labels = np.zeros(shape, dtype=np.int16)
        labels[tuple(-c for c in corner)] = 1
        yield f"corner {corner}", labels
    for axis in range(3):
        for end in (0, -1):
            labels = np.zeros(shape, dtype=np.int16)
            index = [slice(2, 5)] * 3
            index[axis] = end
            labels[tuple(index)] = random_labels(rng, (3, 3))
            labels[tuple(index)][1, 1] = 2
            yield f"face {axis}:{end}", labels


class TestBoxForm:
    """A loaded mask holds the box of its labelled voxels at ``corner``;
    the oracle's whole-grid decode is zero outside it, and every region
    equals the oracle's whole-grid region cropped to the same box."""

    @pytest.mark.parametrize("key", ["u1", "i2", "f4"])
    def test_box_equals_whole_grid_decode(self, tmp_path, key):
        for n, (name, labels) in enumerate(_box_cases(
                np.random.default_rng(36))):
            # f4 halves, scaled back by slope 2: a payload that is cast
            stored, slope = ((labels / 2).astype(key), 2.0) if key == "f4" \
                else (labels.astype(key), 0.0)
            path = write_blob(tmp_path / f"b{n}.nii.gz",
                              nifti_blob(stored, slope=slope))
            mask = load_mask(path)
            want = oracles.load_mask_via_float(path)
            box = mask.box
            assert mask.corner == tuple(b.start for b in box), name
            assert np.array_equal(mask.labels, want[box]), name
            outside = want.copy()
            outside[box] = 0
            assert not outside.any(), name
            assert mask.labels.flags.f_contiguous, name
            assert not mask.labels.flags.writeable, name
            if name == "whole-grid":
                assert mask.labels.shape == mask.dims
            if name == "all-zero":
                assert mask.labels.shape == (0, 0, 0)
                assert mask.corner == (0, 0, 0)
            whole = LabelMask(dims=mask.dims, spacing=mask.spacing,
                              origin=mask.origin, labels=want)
            for kind in ROI_KINDS:
                roi = derive_roi(mask, kind)
                full = oracles._full_roi(whole, kind).membership
                assert roi.box == box, (name, kind)
                assert np.array_equal(roi.membership, full[box]), (name, kind)
                full[box] = False
                assert not full.any(), (name, kind)

    def test_near_zero_float_sample_widens_only_the_held_box(self,
                                                             tmp_path):
        """A float sample within 1e-6 of 0 is label 0: it widens the box
        the mask holds, but not ``LabelMask.box``, so no region changes; a
        mask with no other sample has the empty box at (0, 0, 0)."""
        stored = np.zeros((6, 7, 5), dtype="f4")
        stored[2:4, 3:6, 1:4] = 2
        stored[5, 0, 4] = 1e-7
        box = (slice(2, 4), slice(3, 6), slice(1, 4))
        for n, (corner, want, labelled) in enumerate((
                ((2, 0, 1), box, 18), ((5, 0, 4), (slice(0, 0),) * 3, 0))):
            mask = load_mask(write_blob(tmp_path / f"near{n}.nii",
                                        nifti_blob(stored)))
            assert mask.corner == corner
            assert mask.box == want
            assert np.count_nonzero(mask.labels) == labelled
            for kind in ("WT", "LABEL2"):
                assert derive_roi(mask, kind).box == want
            stored[box] = 0

    def test_negative_label_outside_the_box_is_rejected(self, tmp_path):
        """A bad label or value anywhere, in or outside the box of the
        positive labels, is named as the whole-grid decode names it: the
        first bad voxel in C order, by its grid index."""
        rng = np.random.default_rng(40)
        shape = (6, 7, 5)
        base = np.zeros(shape, dtype=np.int16)
        base[2:4, 3:6, 1:4] = 2
        # outside the box; in it and outside, the one in it first
        placements = [[(0, 5, 1)], [(5, 0, 4), (3, 4, 2)]]
        placements += [[tuple(int(rng.integers(n)) for n in shape)
                        for _ in range(int(rng.integers(1, 3)))]
                       for _ in range(4)]
        placements += [[tuple(c * (n - 1) for c, n in zip(corner, shape))]
                       for corner in np.ndindex(2, 2, 2)]
        n = 0
        for key in ("u1", "i2", "i4", "f4"):
            for bad in (-1, 3, 5, 255):
                if key == "u1" and bad < 0:
                    continue
                for voxels in placements:
                    labels = base.copy()
                    for voxel in voxels:
                        labels[voxel] = bad
                    # f4 halves, scaled back by slope 2
                    stored, slope = ((labels / 2).astype(key), 2.0) \
                        if key == "f4" else (labels.astype(key), 0.0)
                    path = write_blob(tmp_path / f"bad{n}.nii.gz",
                                      nifti_blob(stored, "<>"[n % 2],
                                                 slope=slope))
                    n += 1
                    first = min(voxels)
                    with pytest.raises(MaskLabelError) as want:
                        oracles.load_mask_via_float(path)
                    with pytest.raises(MaskLabelError) as got:
                        load_mask(path)
                    assert str(got.value) == str(want.value)
                    assert f"label {bad} at voxel {first}" in str(got.value)
        # float and scaled payloads holding a non-integer or non-finite
        # value: the oracle's drift check passes NaN (NaN > 1e-6 is False),
        # so a non-finite value's message is pinned by its text
        for key, slope, inter in (("f4", 0.0, 0.0), ("f8", 0.0, 0.0),
                                  ("f4", 2.0, 0.0), ("f8", 1.0, -1.0)):
            for bad in (1.5, np.nan, np.inf, -np.inf):
                for voxels in placements:
                    values = base.astype(np.float64)
                    for voxel in voxels:
                        values[voxel] = bad
                    stored = (values - inter) / (slope or 1.0)
                    path = write_blob(tmp_path / f"bad{n}.nii.gz",
                                      nifti_blob(stored.astype(key),
                                                 "<>"[n % 2], slope, inter))
                    n += 1
                    kind = "non-integer" if bad == 1.5 else "non-finite"
                    with pytest.raises(MaskLabelError) as got:
                        load_mask(path)
                    assert str(got.value) == (
                        f"{path}: voxel {min(voxels)} holds {kind} value "
                        f"{np.float64(bad)!r}")
                    if bad == 1.5:
                        with pytest.raises(MaskLabelError) as want:
                            oracles.load_mask_via_float(path)
                        assert str(got.value) == str(want.value)


class TestRejectedValues:
    @pytest.mark.parametrize("key,value", [("i4", 65537), ("i4", 65540),
                                           ("i4", -65535), ("f4", 65537.0),
                                           ("f8", 65540.0)])
    def test_out_of_range_value_does_not_wrap(self, tmp_path, key, value):
        # the int16 image of each value is a valid label (1, 4 or 1)
        stored = np.zeros((3, 3, 3), dtype=key)
        stored[0, 1, 2] = value
        stored[2, 2, 2] = 1
        path = write_blob(tmp_path / "wrap.nii.gz", nifti_blob(stored))
        with pytest.raises(MaskLabelError, match=re.escape(
                f"{path}: label {int(value)} at voxel (0, 1, 2) is not in "
                "{0,1,2,4}")):
            load_mask(path)

    @pytest.mark.parametrize("key", ["f4", "f8"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_rejected(self, tmp_path, key, value):
        stored = np.zeros((2, 3, 4), dtype=key)
        stored[1, 2, 0] = 2
        stored[1, 1, 3] = value
        path = write_blob(tmp_path / "nf.nii", nifti_blob(stored))
        with pytest.raises(MaskLabelError, match=re.escape(
                f"{path}: voxel (1, 1, 3) holds non-finite value")):
            load_mask(path)

    @pytest.mark.parametrize("slope,inter", [(np.nan, 0.0), (np.inf, 0.0),
                                             (1.0, np.nan), (2.0, -np.inf)])
    def test_non_finite_scaling_rejected(self, tmp_path, slope, inter):
        stored = np.ones((2, 2, 2), dtype=np.uint8)
        path = write_blob(tmp_path / "scl.nii.gz",
                          nifti_blob(stored, slope=slope, inter=inter))
        for load in (load_nifti, load_mask):
            with pytest.raises(NiftiError, match=re.escape(path)) as err:
                load(path)
            assert "non-finite scl_" in str(err.value)


class TestMutationFuzz:
    """Seeded byte mutations of hand-built files: the loaders may only raise
    NiftiError (MaskLabelError included) or FileNotFoundError."""

    def _bases(self):
        rng = np.random.default_rng(31)
        labels = random_labels(rng, (4, 3, 5))
        # a payload of several inflate steps (80,000 bytes), so mutations
        # and truncations land across step boundaries; with ten bases each
        # one meets all three ways of writing a trial. Its 5x5 blocks keep
        # gzip.compress fast (random labels take 20x as long).
        large = np.repeat(np.repeat(random_labels(rng, (10, 8, 20)), 5, 0),
                          5, 1).astype("i2")
        for byteorder in "<>":
            for key in ("u1", "i2", "f4"):
                yield nifti_blob(labels.astype(key), byteorder)
            yield nifti_blob((labels // 2).astype("i2"), byteorder, slope=2.0)
            yield nifti_blob(large, byteorder)

    def _load_all(self, path, note):
        for load in (load_nifti, load_mask):
            try:
                load(path)
            except (NiftiError, FileNotFoundError):
                pass
            except Exception as exc:       # anything else is a failure
                pytest.fail(f"{note}: {load.__name__} raised "
                            f"{type(exc).__name__}: {exc}")

    def test_mutated_files_raise_only_named_errors(self, tmp_path):
        rng = np.random.default_rng(1155)
        bases = list(self._bases())
        with np.errstate(all="ignore"):
            for trial in range(600):
                blob = bytearray(bases[trial % len(bases)])
                zipped = trial % 3 == 2
                if zipped:                  # mutate the gzip stream itself
                    blob = bytearray(gzip.compress(bytes(blob), mtime=0))
                for _ in range(int(rng.integers(1, 9))):
                    # most mutations land in the header, where parsing is
                    at = int(rng.integers(0, 352 if rng.random() < 0.8
                                          else len(blob)))
                    blob[min(at, len(blob) - 1)] = int(rng.integers(0, 256))
                if rng.random() < 0.1:
                    blob = blob[:int(rng.integers(0, len(blob)))]
                path = tmp_path / f"t{trial}.nii{'.gz' if trial % 3 else ''}"
                if zipped:
                    path.write_bytes(bytes(blob))
                else:
                    write_blob(path, bytes(blob))
                path = str(path)
                self._load_all(path, f"trial {trial}")
        self._load_all(str(tmp_path / "missing.nii"), "missing file")

    def test_header_fields_set_to_extremes(self, tmp_path):
        """Every float32 and int16 header field the reader uses, set to
        NaN/inf/huge or to the int16 extremes, in both byte orders."""
        stored = np.zeros((3, 3, 3), dtype=np.uint8)
        floats = [76 + 4 * k for k in range(1, 4)] + [108, 112, 116, 268,
                                                      272, 276]
        shorts = [40 + 2 * k for k in range(8)] + [70, 72]
        n = 0
        with np.errstate(all="ignore"):
            for byteorder in "<>":
                base = nifti_blob(stored, byteorder)
                for offset in floats:
                    for value in (np.nan, np.inf, -np.inf, 3.4e38, -1.0,
                                  0.0):
                        blob = bytearray(base)
                        struct.pack_into(byteorder + "f", blob, offset, value)
                        self._load_all(write_blob(tmp_path / f"f{n}.nii",
                                                  bytes(blob)), f"f{offset}")
                        n += 1
                for offset in shorts:
                    for value in (-32768, -1, 0, 32767):
                        blob = bytearray(base)
                        struct.pack_into(byteorder + "h", blob, offset, value)
                        self._load_all(write_blob(tmp_path / f"h{n}.nii.gz",
                                                  bytes(blob)), f"h{offset}")
                        n += 1


def test_load_mask_peak_memory_stays_near_the_label_grid(tmp_path):
    """The decoded mask's peak traced allocation stays within 4x its labels
    (here the u1 payload as stored); the float64 round trip took about 36x
    that, 18x an int16 copy."""
    rng = np.random.default_rng(96)
    labels = random_labels(rng, (96, 96, 96)).astype(np.uint8)
    path = write_blob(tmp_path / "m96.nii.gz", nifti_blob(labels))
    load_mask(path)                          # warm imports and caches
    mask, peak = traced_peak(lambda: load_mask(path))
    assert peak <= 4 * mask.labels.nbytes, (peak, mask.labels.nbytes)


def _brats_mask_load_peak(tmp_path, dtype):
    """(labels, peak): the BraTS-size mask stored as ``dtype``, and the
    traced peak of one ``load_mask`` of it, which holds its u1 labels' box."""
    path, labels = write_brats_mask(tmp_path, dtype)
    load_mask(path)                          # warm imports and caches
    mask, peak = traced_peak(lambda: load_mask(path))
    assert mask.corner == (100, 90, 60) and mask.labels.dtype == np.uint8
    assert np.array_equal(mask.labels, labels[100:140, 90:135, 60:95])
    return labels, peak


def test_int32_mask_is_cast_only_in_its_box(tmp_path):
    """A BraTS-size int32 mask with a small tumour peaks below its payload
    plus 1.5 bytes a voxel: the vocabulary and box are found on the payload
    (one grid of bools at a time) and only the box is cast. Casting the
    whole payload to int16 first held the payload and the int16 grid, 2
    bytes a voxel."""
    labels, peak = _brats_mask_load_peak(tmp_path, np.int32)
    assert peak < labels.nbytes + labels.size * 1.5, \
        f"{peak / 2**20:.1f} MiB traced"


def test_u1_mask_load_peaks_below_a_quarter_of_its_payload(tmp_path):
    """A BraTS-size u1 mask with a small tumour peaks below a quarter of its
    8.5 MiB payload: it is read in blocks of k-slabs through one buffer,
    and each block keeps only the box of its nonzero samples. Reading the
    payload whole peaked at 8.8 MiB."""
    labels, peak = _brats_mask_load_peak(tmp_path, np.uint8)
    assert peak < labels.nbytes / 4, f"{peak / 2**20:.2f} MiB traced"


def test_f4_mask_is_checked_in_its_box(tmp_path):
    """A BraTS-size float32 mask with a small tumour peaks below its
    payload plus 4 MiB: its box is found on the payload, and only the box
    becomes float64 to be checked. Converting and checking the whole grid
    as float64 peaked at 272.5 MiB for this 34.1 MiB payload."""
    labels, peak = _brats_mask_load_peak(tmp_path, np.float32)
    assert peak < labels.nbytes + 4 * 2**20, f"{peak / 2**20:.1f} MiB traced"


def test_scaled_mask_peaks_below_its_payload(tmp_path):
    """A BraTS-size scaled int16 mask (labels + 1 stored, scl_inter -1)
    peaks below its 17.0 MiB payload: each block of k-slabs is scaled on
    its own, and only its box of nonzero scaled samples is kept. Finding
    the box on the whole grid's scaled samples peaked at 85.2 MiB."""
    _, labels = write_brats_mask(tmp_path, np.uint8)
    stored = labels.astype("i2") + 1
    path = write_blob(tmp_path / "scaled.nii.gz",
                      nifti_blob(stored, slope=1.0, inter=-1.0))
    load_mask(path)                          # warm imports and caches
    mask, peak = traced_peak(lambda: load_mask(path))
    assert mask.corner == (100, 90, 60)
    assert np.array_equal(mask.labels, labels[100:140, 90:135, 60:95])
    assert peak < stored.nbytes, f"{peak / 2**20:.2f} MiB traced"


def test_load_mask_reaches_no_whole_payload_read_and_no_isin():
    """``load_mask`` reaches ``load_nifti`` through no function of
    ``volumeio`` (it reads its payload in blocks), and ``volumeio`` calls
    no ``np.isin`` (a region is one comparison per label)."""
    tree = ast.parse(inspect.getsource(volumeio))
    names = {fn.name: {node.id for node in ast.walk(fn)
                       if isinstance(node, ast.Name)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo = set(), ["load_mask"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [n for n in names.get(name, ()) if n in names
                 and n not in reached]
    assert "_nonzero_crops" in reached
    assert "load_nifti" not in reached
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "isin"]


class TestGzipStream:
    """What the decoder accepts around the payload, and the exact message of
    each stream it rejects, for both loaders; the large shape's payload spans
    several inflate steps."""

    SHAPES = ((4, 5, 6), (50, 40, 40))

    def _blob(self, shape):
        return nifti_blob(random_labels(np.random.default_rng(8), shape)
                          .astype("u1"))

    def _expect(self, path, message):
        for load in (load_nifti, load_mask):
            with pytest.raises(NiftiError) as err:
                load(path)
            assert str(err.value) == f"{path}: {message}", load.__name__

    @staticmethod
    def _member_with_every_header_field(blob):
        """A gzip member whose header carries FEXTRA, FNAME, FCOMMENT and
        FHCRC, as gzip.compress writes none of them."""
        head = bytearray(b"\x1f\x8b\x08\x1e\x00\x00\x00\x00\x00\xff")
        head += struct.pack("<H", 3) + b"xyz" + b"m.nii\x00" + b"note\x00"
        head += struct.pack("<H", zlib.crc32(head) & 0xFFFF)
        deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
        body = deflate.compress(blob) + deflate.flush()
        return bytes(head) + body + struct.pack(
            "<II", zlib.crc32(blob), len(blob) & 0xFFFFFFFF)

    @staticmethod
    def _crc_flipped(blob):
        """A one-member stream of ``blob`` whose trailer's CRC is flipped,
        and the message that names it: the stored CRC, then the CRC of the
        inflated bytes."""
        flipped = bytearray(gzip.compress(blob, mtime=0))
        flipped[-8] ^= 0xFF
        stored = struct.unpack_from("<I", flipped, len(flipped) - 8)[0]
        return bytes(flipped), (f"CRC check failed {hex(stored)} != "
                                f"{hex(zlib.crc32(blob))}")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_accepted_streams_load_the_payload(self, tmp_path, shape):
        blob = self._blob(shape)
        want = load_mask(write_blob(tmp_path / "plain.nii", blob)).labels
        cut = len(blob) // 3
        streams = {
            "two_members": gzip.compress(blob[:cut], mtime=0)
            + gzip.compress(blob[cut:], mtime=0),
            "padded_members": gzip.compress(blob[:cut], mtime=0) + b"\x00" * 7
            + gzip.compress(blob[cut:], mtime=0) + b"\x00" * 70000,
            "zero_padding": gzip.compress(blob, mtime=0) + b"\x00" * 512,
            "bytes_after_payload": gzip.compress(blob + b"extra", mtime=0),
            "empty_member_first": gzip.compress(b"", mtime=0)
            + gzip.compress(blob, mtime=0),
            "every_header_field": self._member_with_every_header_field(blob),
        }
        for name, stream in streams.items():
            path = tmp_path / f"{name}.nii.gz"
            path.write_bytes(stream)
            assert np.array_equal(load_mask(str(path)).labels, want), name
            assert np.array_equal(load_nifti(str(path)).region(...), want), \
                name
        path = write_blob(tmp_path / "after.nii", blob + b"extra")
        assert np.array_equal(load_mask(path).labels, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_corrupt_streams_are_named(self, tmp_path, shape):
        blob = self._blob(shape)
        stream = gzip.compress(blob, mtime=0)
        cut = len(blob) // 3
        first, first_message = self._crc_flipped(blob[:cut])
        cases = (
            ("crc", *self._crc_flipped(blob)),
            ("first_member_crc", first + gzip.compress(blob[cut:], mtime=0),
             first_message),
            ("garbage", stream + b"garbage", "Not a gzipped file (b'ga')"),
            ("cut_trailer", stream[:-3], "Compressed file ended before the "
             "end-of-stream marker was reached"),
        )
        for name, data, message in cases:
            path = tmp_path / f"{name}.nii.gz"
            path.write_bytes(data)
            self._expect(str(path), f"corrupt gzip stream: {message}")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_short_payload_is_named_after_any_gzip_error(self, tmp_path,
                                                         shape):
        blob = self._blob(shape)
        need = len(blob) - 352
        message = (f"truncated payload, need {need} bytes at offset 352, "
                   f"file holds {need - 10}")
        for suffix in (".nii", ".nii.gz"):
            self._expect(write_blob(tmp_path / f"short{suffix}", blob[:-10]),
                         message)
        cut = len(blob) // 3            # the count spans both members
        path = tmp_path / "short_two_members.nii.gz"
        path.write_bytes(gzip.compress(blob[:cut], mtime=0)
                         + gzip.compress(blob[cut:-10], mtime=0))
        self._expect(str(path), message)
        flipped, crc_message = self._crc_flipped(blob[:-10])
        path = tmp_path / "short_crc.nii.gz"
        path.write_bytes(flipped)
        self._expect(str(path), f"corrupt gzip stream: {crc_message}")

    def test_gzip_error_is_named_before_a_header_fault(self, tmp_path):
        blob = bytearray(self._blob((4, 5, 6)))
        blob[344:348] = b"bad\x00"            # no NIfTI-1 magic
        self._expect(write_blob(tmp_path / "magic.nii.gz", bytes(blob)),
                     "missing NIfTI-1 magic, got b'bad\\x00'")
        flipped, message = self._crc_flipped(bytes(blob))
        path = tmp_path / "magic_crc.nii.gz"
        path.write_bytes(flipped)
        self._expect(str(path), f"corrupt gzip stream: {message}")

    def test_short_payload_example(self, tmp_path):
        blob = self._blob((4, 5, 6))
        self._expect(write_blob(tmp_path / "s.nii.gz", blob[:-10]),
                     "truncated payload, need 120 bytes at offset 352, "
                     "file holds 110")

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_huge_claimed_payload_is_a_named_error(self, tmp_path, suffix):
        """A tiny file whose header claims 2**40 bytes: a truncated-payload
        NiftiError, never a MemoryError from allocating the claim."""
        blob = bytearray(nifti_blob(np.zeros((2, 2, 2), dtype="f8")))
        struct.pack_into("<3h", blob, 42, 8192, 8192, 2048)
        path = write_blob(tmp_path / f"huge{suffix}", bytes(blob))
        self._expect(path, f"truncated payload, need {2 ** 40} bytes at "
                     "offset 352, file holds 64")


@pytest.mark.parametrize("load, key, bound", [(load_nifti, "i2", 2.0),
                                              (load_mask, "u1", 2.5)])
def test_gzip_load_peak_memory_stays_below_twice_the_payload(tmp_path, load,
                                                             key, bound):
    """One load of a .nii.gz peaks below ``bound`` times its payload: the
    payload is inflated in steps into the one array that keeps it. A noise
    scan barely compresses, so the compressed file is near the payload's
    size too."""
    rng = np.random.default_rng(97)
    if key == "u1":
        stored = random_labels(rng, (96, 96, 96)).astype("u1")
    else:
        stored = rng.integers(-3000, 3000, (96, 96, 96)).astype("i2")
    path = write_blob(tmp_path / f"{key}.nii.gz", nifti_blob(stored))
    load(path)                               # warm imports and caches
    _, peak = traced_peak(lambda: load(path))
    assert peak < bound * stored.nbytes, (peak / stored.nbytes)
