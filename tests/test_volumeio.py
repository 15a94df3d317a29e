import gzip
import re
import struct
import time

import numpy as np
import pytest

from radsurv.radiomics import Binning, discretize, extract_radiomics
from radsurv.radiomics.discretize import DiscretizationError
from radsurv.volumeio import (GeometryError, LabelMask, MaskLabelError,
                              NiftiError, RoiMask, SubjectRecord, derive_roi,
                              load_mask, load_nifti, read_metadata_csv,
                              write_metadata_csv, write_nifti)
from radsurv import volumeio
from conftest import make_mask, traced_peak


def handcrafted_header(dims=(2, 2, 2), datatype=16, bitpix=32,
                       scl_slope=0.0, scl_inter=0.0, vox_offset=348.0,
                       byteorder="<", dim0=3, sizeof_hdr=348,
                       magic=b"n+1\x00", pixdim=(1.0, 1.0, 1.0)):
    hdr = bytearray(348)
    struct.pack_into(byteorder + "i", hdr, 0, sizeof_hdr)
    struct.pack_into(byteorder + "8h", hdr, 40, dim0, dims[0], dims[1],
                     dims[2], 1, 1, 1, 1)
    struct.pack_into(byteorder + "h", hdr, 70, datatype)
    struct.pack_into(byteorder + "h", hdr, 72, bitpix)
    struct.pack_into(byteorder + "8f", hdr, 76, 1.0, pixdim[0], pixdim[1],
                     pixdim[2], 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(byteorder + "f", hdr, 108, vox_offset)
    struct.pack_into(byteorder + "f", hdr, 112, scl_slope)
    struct.pack_into(byteorder + "f", hdr, 116, scl_inter)
    hdr[344:348] = magic
    return bytes(hdr)


def _unheld_after_file_order():
    """Three unheld voxels; (2, 0, 3) comes first in file order (i fastest),
    not in C order."""
    data = np.zeros((3, 4, 5))
    data[2, 0, 3] = data[0, 1, 3] = data[1, 3, 4] = 0.5
    return data


class TestLoadNifti:
    def test_minimal_handcrafted_file(self, tmp_path):
        payload = np.ones(8, dtype="<f4").tobytes()
        path = tmp_path / "one.nii"
        path.write_bytes(handcrafted_header() + payload)
        vol = load_nifti(str(path))
        assert vol.dims == (2, 2, 2)
        assert np.all(vol.region(...) == 1.0)

    def test_scl_slope_intercept_applied(self, tmp_path):
        payload = np.full(8, 3, dtype="<i2").tobytes()
        path = tmp_path / "scaled.nii"
        path.write_bytes(handcrafted_header(datatype=4, bitpix=16,
                                            scl_slope=2.0, scl_inter=1.0)
                         + payload)
        vol = load_nifti(str(path))
        assert np.all(vol.region(...) == 7.0)

    def test_big_endian_header(self, tmp_path):
        payload = np.arange(8, dtype=">i2").tobytes()
        path = tmp_path / "be.nii"
        path.write_bytes(handcrafted_header(datatype=4, bitpix=16,
                                            byteorder=">") + payload)
        vol = load_nifti(str(path))
        assert np.array_equal(np.sort(vol.region(...).ravel()), np.arange(8))

    def test_round_trip_all_datatypes(self, tmp_path):
        rng = np.random.default_rng(7)
        for dtype in (np.uint8, np.int16, np.int32, np.float32, np.float64):
            if np.issubdtype(dtype, np.integer):
                data = rng.integers(0, 100, size=(4, 4, 4)).astype(dtype)
            else:
                data = rng.random((4, 4, 4)).astype(dtype)
            for suffix in (".nii", ".nii.gz"):
                path = tmp_path / f"rt_{np.dtype(dtype).name}{suffix}"
                write_nifti(str(path), data, spacing=(1.0, 2.0, 0.5),
                            origin=(1.0, -2.0, 3.5))
                vol = load_nifti(str(path))
                assert vol.dims == (4, 4, 4)
                assert vol.spacing == (1.0, 2.0, 0.5)
                assert vol.origin == (1.0, -2.0, 3.5)
                assert np.array_equal(vol.region(...), data.astype(np.float64))

    def test_gzip_rewrite_byte_identical(self, tmp_path, monkeypatch):
        data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
        blobs = []
        for clock, sub in ((1.0e9, "a"), (1.7e9, "b")):
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            path = tmp_path / sub / "vol.nii.gz"
            path.parent.mkdir()
            write_nifti(str(path), data)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0][4:8] == b"\x00\x00\x00\x00"       # gzip mtime
        assert blobs[0][8] == 4                # XFL: deflated at level 1
        assert blobs[0][3] & 0x08 and blobs[0][10:18] == b"vol.nii\x00"

    def test_random_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
            data = rng.standard_normal(dims)
            path = tmp_path / f"r{trial}.nii"
            write_nifti(str(path), data)
            assert np.array_equal(load_nifti(str(path)).region(...), data)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_write_holds_no_copy_of_the_grid(self, tmp_path, suffix):
        """The payload is written one k-slab at a time: one write of an
        8 MiB grid traces less than a quarter of its bytes."""
        data = np.full((128, 128, 64), 0.25)
        path = tmp_path / f"big{suffix}"
        _, peak = traced_peak(lambda: write_nifti(str(path), data))
        assert peak < data.nbytes / 4, f"{peak / 2**20:.1f} MiB traced"
        assert np.array_equal(load_nifti(str(path)).region(...), data)

    @pytest.mark.parametrize("stored,dtype", [("<f8", None), (">i2", None),
                                              ("<f8", "float32"),
                                              ("<i4", "uint8")])
    def test_c_and_f_order_write_the_same_bytes(self, tmp_path, monkeypatch,
                                                stored, dtype):
        """The payload is gathered in blocks of k-slabs, here 3, 3 and 2:
        both layouts of one array write the file-order bytes, and the
        .nii.gz the same deflate stream."""
        rng = np.random.default_rng(21)
        data = rng.integers(0, 200, (5, 4, 8)).astype(stored)
        slab = 5 * 4 * np.dtype(dtype or stored).itemsize
        monkeypatch.setattr(volumeio, "_WRITE_BLOCK", 3 * slab + 1)
        payload = data.astype("<" + np.dtype(dtype or stored).str[1:]
                              ).tobytes(order="F")
        for suffix in (".nii", ".nii.gz"):
            blobs = []
            for name, layout in (("c", np.ascontiguousarray),
                                 ("f", np.asfortranarray)):
                (tmp_path / name).mkdir(exist_ok=True)
                path = tmp_path / name / f"vol{suffix}"   # gzip names it
                write_nifti(str(path), layout(data), dtype=dtype)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], suffix
            if suffix == ".nii":
                assert blobs[0][352:] == payload
            else:
                assert gzip.decompress(blobs[0])[352:] == payload

    @pytest.mark.parametrize("data,dtype,geometry,shown", [
        (np.zeros((40000, 1, 1), np.uint8), None, {},
         "dims[0]: 40000 is not an integer"),
        (np.zeros((2, 2, 2), np.uint8), None, {"spacing": (1e300, 1, 1)},
         "spacing[0]: 1e+300 is not"),
        (np.zeros((2, 2, 2), np.uint8), None, {"spacing": (1, 1e-50, 1)},
         "spacing[1]: 1e-50 is not"),
        (np.zeros((2, 2, 2), np.uint8), None, {"origin": (0, -1e39, 0)},
         "origin[1]: -1e+39 is not"),
        (np.full((2, 2, 2), 300), np.uint8, {},
         "voxel (0, 0, 0) holds 300, which uint8 cannot hold"),
        (np.full((2, 2, 2), -1, np.int16), np.uint8, {},
         "voxel (0, 0, 0) holds -1, which uint8 cannot hold"),
        (np.full((2, 2, 2), 2.7), np.int16, {},
         "voxel (0, 0, 0) holds 2.7, which int16 cannot hold"),
        (np.full((2, 2, 2), 70000.0), np.int16, {},
         "voxel (0, 0, 0) holds 70000.0, which int16 cannot hold"),
        (np.full((2, 2, 2), np.nan), np.int16, {},
         "voxel (0, 0, 0) holds nan, which int16 cannot hold"),
        (np.full((2, 2, 2), 1e300), np.float32, {},
         "voxel (0, 0, 0) holds 1e+300, which float32 cannot hold"),
        (_unheld_after_file_order(), np.int32, {},
         "voxel (2, 0, 3) holds 0.5, which int32 cannot hold")])
    def test_write_rejects_what_the_header_cannot_hold(self, tmp_path, data,
                                                       dtype, geometry, shown):
        """These raised a bare struct.error or OverflowError naming no
        file, or wrote values that read back changed (300 as uint8 read 44,
        NaN as int16 read 0); no file is left behind."""
        path = tmp_path / "big.nii.gz"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {shown}")):
            write_nifti(str(path), data, dtype=dtype, **geometry)
        assert not path.exists()

    @pytest.mark.parametrize("value,dtype", [
        (255, np.uint8), (-32768.0, np.int16), (np.inf, np.float32),
        (np.nan, np.float32), (0.1, np.float32), (np.float64(3.4028235e38),
                                                  np.float32)])
    def test_write_keeps_what_the_header_can_hold(self, tmp_path, value,
                                                  dtype):
        """Values in range, and a float64 rounded to float32 precision."""
        data = np.full((2, 3, 4), value)
        path = tmp_path / "ok.nii.gz"
        write_nifti(str(path), data, dtype=dtype)
        assert np.array_equal(load_nifti(str(path)).stored,
                              data.astype(dtype), equal_nan=True)

    def test_malformed_sizeof_hdr(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(handcrafted_header(sizeof_hdr=400) + b"\x00" * 32)
        with pytest.raises(NiftiError, match="sizeof_hdr"):
            load_nifti(str(path))

    def test_unsupported_datatype(self, tmp_path):
        path = tmp_path / "cplx.nii"
        path.write_bytes(handcrafted_header(datatype=32, bitpix=64)
                         + b"\x00" * 64)
        with pytest.raises(NiftiError, match="datatype"):
            load_nifti(str(path))

    def test_wrong_dim0(self, tmp_path):
        path = tmp_path / "d5.nii"
        path.write_bytes(handcrafted_header(dim0=5) + b"\x00" * 32)
        with pytest.raises(NiftiError, match="dim\\[0\\]"):
            load_nifti(str(path))

    def test_dim0_invalid_under_both_byte_orders(self, tmp_path):
        path = tmp_path / "d0.nii"
        path.write_bytes(handcrafted_header(dim0=0) + b"\x00" * 32)
        with pytest.raises(NiftiError, match="byte order"):
            load_nifti(str(path))

    def test_truncated_payload(self, tmp_path):
        payload = np.ones(8, dtype="<f4").tobytes()[:-8]
        path = tmp_path / "trunc.nii"
        path.write_bytes(handcrafted_header() + payload)
        with pytest.raises(NiftiError, match="truncated"):
            load_nifti(str(path))

    def test_paired_format_rejected(self, tmp_path):
        path = tmp_path / "pair.nii"
        path.write_bytes(handcrafted_header(magic=b"ni1\x00") + b"\x00" * 32)
        with pytest.raises(NiftiError, match="ni1"):
            load_nifti(str(path))


class TestRegion:
    """``region(box)`` is where a loaded scan's samples become float64; it
    gives the bits of ``data[box]``, and ``data`` those of the whole file."""

    BOXES = ((slice(1, 5), slice(0, 6), slice(2, 3)), (slice(None),) * 3,
             (slice(6, 7), slice(5, 6), slice(4, 5)), (slice(2, 2),) * 3)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("code, slope, inter", [
        ("u1", 0.0, 0.0), ("i2", 0.0, 0.0), ("i4", 0.0, 0.0),
        ("f4", 0.0, 0.0), ("f8", 0.0, 0.0), ("i2", 0.37, -12.5)])
    def test_region_is_the_box_of_data(self, tmp_path, suffix, byteorder,
                                       code, slope, inter):
        rng = np.random.default_rng(5)
        dims = (7, 6, 5)
        dtype = np.dtype(byteorder + code)
        if dtype.kind == "f":
            stored = (rng.standard_normal(dims) * 300).astype(dtype)
        else:
            low = 0 if dtype.kind == "u" else -300
            stored = rng.integers(low, 255, dims).astype(dtype)
        codes = {"u1": 2, "i2": 4, "i4": 8, "f4": 16, "f8": 64}
        blob = handcrafted_header(
            dims, datatype=codes[code], bitpix=dtype.itemsize * 8,
            scl_slope=slope, scl_inter=inter,
            byteorder=byteorder) + stored.tobytes(order="F")
        path = tmp_path / f"scan{suffix}"
        path.write_bytes(gzip.compress(blob) if suffix == ".nii.gz" else blob)

        expected = stored.astype(np.float64)
        if slope:
            expected = (expected * np.float64(np.float32(slope))
                        + np.float64(np.float32(inter)))
        whole = load_nifti(str(path)).region(...)
        for box in self.BOXES:
            region = load_nifti(str(path)).region(box)
            assert region.dtype == np.float64
            assert region.tobytes() == whole[box].tobytes()
        assert whole.tobytes() == expected.tobytes()

    def test_loaded_scan_of_another_grid_rejected(self, tmp_path):
        path = tmp_path / "scan.nii.gz"
        write_nifti(str(path), np.ones((4, 5, 6), dtype=np.int16))
        labels = np.zeros((4, 5, 7), dtype=np.int16)
        labels[1:3, 1:3, 1:3] = 2
        mask = make_mask(labels)
        with pytest.raises(GeometryError, match=re.escape(
                "volume dims (4, 5, 6) != mask dims (4, 5, 7)")):
            extract_radiomics(load_nifti(str(path)), mask)
        with pytest.raises(ValueError, match=re.escape(
                "scan data shape (4, 5, 6) does not match dims (4, 5, 7)")):
            discretize(load_nifti(str(path)), derive_roi(mask, "WT"),
                       Binning("fixed_bin_count", 8))

    def test_non_finite_voxel_of_a_loaded_scan(self, tmp_path):
        data = np.random.default_rng(2).random((8, 7, 6)).astype(np.float32)
        data[0, 0, 0] = np.nan      # outside the mask's box: accepted
        labels = np.zeros(data.shape, dtype=np.int16)
        labels[2:6, 3:7, 1:5] = 2
        mask = make_mask(labels)
        path = tmp_path / "scan.nii"
        write_nifti(str(path), data)
        extract_radiomics(load_nifti(str(path)), mask)
        data[4, 5, 2] = np.inf
        write_nifti(str(path), data)
        with pytest.raises(DiscretizationError, match=re.escape(
                "non-finite ROI intensity inf at voxel (4, 5, 2)")):
            extract_radiomics(load_nifti(str(path)), mask)


class TestLoadMask:
    def _write_mask(self, path, labels):
        write_nifti(str(path), np.asarray(labels, dtype=np.int16))

    def test_all_zero_mask(self, tmp_path):
        path = tmp_path / "zero.nii"
        self._write_mask(path, np.zeros((3, 3, 3)))
        mask = load_mask(str(path))
        assert [np.count_nonzero(mask.labels == k) for k in (1, 2, 4)] \
            == [0, 0, 0]

    def test_one_voxel_each_label(self, tmp_path):
        labels = np.zeros((4, 4, 4))
        labels[0, 0, 0] = 1
        labels[1, 1, 1] = 2
        labels[2, 2, 2] = 4
        path = tmp_path / "three.nii"
        self._write_mask(path, labels)
        mask = load_mask(str(path))
        assert [np.count_nonzero(mask.labels == k) for k in (1, 2, 4)] \
            == [1, 1, 1]

    def test_out_of_vocabulary_label(self, tmp_path):
        labels = np.zeros((3, 3, 3))
        labels[1, 2, 0] = 3
        path = tmp_path / "bad.nii"
        self._write_mask(path, labels)
        with pytest.raises(MaskLabelError, match=re.escape(
                f"{path}: label 3 at voxel (1, 2, 0) is not in {{0,1,2,4}}")):
            load_mask(str(path))

    def test_non_integer_mask_value(self, tmp_path):
        path = tmp_path / "frac.nii"
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = 1.5
        write_nifti(str(path), data)
        with pytest.raises(MaskLabelError):
            load_mask(str(path))


class TestDeriveRoi:
    @pytest.fixture()
    def mixed_mask(self):
        labels = np.zeros((6, 6, 6), dtype=np.int16)
        labels.ravel()[:5] = 1
        labels.ravel()[5:12] = 2
        labels.ravel()[12:15] = 4
        return make_mask(labels)

    def test_roi_counts(self, mixed_mask):
        assert derive_roi(mixed_mask, "WT").voxel_count == 15
        assert derive_roi(mixed_mask, "TC").voxel_count == 8
        assert derive_roi(mixed_mask, "ET").voxel_count == 3
        assert derive_roi(mixed_mask, "LABEL2").voxel_count == 7

    def test_empty_mask_wt(self):
        mask = make_mask(np.zeros((3, 3, 3)))
        assert derive_roi(mask, "WT").voxel_count == 0

    def test_region_is_the_crop_of_the_labelled_box(self):
        labels = np.zeros((7, 6, 5), dtype=np.int16)
        labels[2, 1, 3] = 2
        labels[4, 3, 1] = 4
        mask = make_mask(labels)
        assert mask.box == (slice(2, 5), slice(1, 4), slice(1, 4))
        for kind in ("WT", "ET", "LABEL1"):
            roi = derive_roi(mask, kind)
            assert roi.dims == (7, 6, 5) and roi.corner == (2, 1, 1)
            assert roi.box == mask.box
            assert np.array_equal(roi.membership, np.isin(
                labels, {"WT": (1, 2, 4), "ET": (4,), "LABEL1": (1,)}[kind]
            )[mask.box])
        empty = derive_roi(make_mask(np.zeros((3, 3, 3))), "WT")
        assert empty.membership.shape == (0, 0, 0)

    @pytest.mark.parametrize("shape,corner", [
        ((3, 3, 3), (2, 0, 0)), ((2, 2, 2), (0, 0, 4)),
        ((2, 2, 2), (-1, 0, 0)), ((5, 5), (0, 0, 0)),
        ((2, 2, 2), (0, 0))])
    def test_membership_that_does_not_fit_is_rejected(self, shape, corner):
        with pytest.raises(ValueError, match="does not fit dims"):
            RoiMask(dims=(4, 5, 5), spacing=(1.0, 1.0, 1.0),
                    origin=(0.0, 0.0, 0.0),
                    membership=np.zeros(shape, dtype=bool), corner=corner)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            labels = rng.choice([0, 1, 2, 4], size=(5, 5, 5))
            mask = make_mask(labels)
            c = {k: derive_roi(mask, k).voxel_count
                 for k in ("WT", "TC", "ET", "LABEL1", "LABEL2", "LABEL4")}
            assert c["LABEL1"] + c["LABEL2"] + c["LABEL4"] == c["WT"]
            assert c["LABEL1"] + c["LABEL4"] == c["TC"]
            assert c["LABEL4"] == c["ET"]


class TestMetadataCsv:
    def test_round_trip(self, tmp_path):
        records = [
            SubjectRecord("A-001", 54.3, 321.0, "GTR"),
            SubjectRecord("A-002", 61.0, None, "STR"),
            SubjectRecord("A-003", 47.5, 95.0, "NA"),
        ]
        path = tmp_path / "meta.csv"
        write_metadata_csv(str(path), records)
        loaded = read_metadata_csv(str(path))
        assert [r.subject_id for r in loaded] == ["A-001", "A-002", "A-003"]
        assert loaded[0].survival_days == 321.0
        assert loaded[1].survival_days is None
        assert loaded[2].resection_status == "NA"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        "A,50,100,GTR\nB,55,200,STR\nA,60,300,GTR\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: duplicate subject ID 'A'")):
            read_metadata_csv(str(path))

    def test_invalid_age_rejected(self):
        with pytest.raises(ValueError):
            SubjectRecord("X", age=0.0)

    def test_negative_survival_rejected(self):
        with pytest.raises(ValueError):
            SubjectRecord("X", age=50.0, survival_days=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("age", "inf"), ("age", "-inf"), ("age", "nan"),
        ("survival_days", "inf"), ("survival_days", "nan")])
    def test_non_finite_value_rejected(self, field, value):
        values = {"age": 50.0, "survival_days": 300.0, field: float(value)}
        with pytest.raises(ValueError, match=f"^X-7: {field} must be finite"):
            SubjectRecord("X-7", **values)

    def test_non_finite_csv_value_names_the_subject(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        "A,50,100,GTR\nB,inf,200,STR\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: subject 'B' column 'Age' holds a non-finite value "
                "'inf'")):
            read_metadata_csv(str(path))
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        "A,50,inf,GTR\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: subject 'A' column 'Survival_days' holds a "
                "non-finite value 'inf'")):
            read_metadata_csv(str(path))

    @pytest.mark.parametrize("row,cells", [
        ("S2,60", 2), ("S2,60,200", 3), ("S2,60,200,GTR,extra", 5)])
    def test_row_length_differs_from_header(self, tmp_path, row, cells):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        f"S1,50,200,GTR\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: subject 'S2' has {cells} cells, the header has 4")):
            read_metadata_csv(str(path))

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n\n"
                        "S1,50,200,GTR\n\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: subject '' has 0 cells, the header has 4")):
            read_metadata_csv(str(path))

    def test_latin1_file_named_with_byte_offset(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_bytes("ID,Age,Survival_days,Extent_of_Resection\n"
                         "Jos\u00e9,50,200,GTR\n".encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not UTF-8 text at byte 44 (invalid continuation "
                "byte)")):
            read_metadata_csv(str(path))

    def test_id_whitespace_stripped(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        " S1 ,50,200,GTR\nS2\t,60,300,STR\n")
        assert [r.subject_id for r in read_metadata_csv(str(path))] == \
            ["S1", "S2"]

    def test_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection,Age\n"
                        "S1,50,200,GTR,70\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: duplicate column name 'Age'")):
            read_metadata_csv(str(path))

    @pytest.mark.parametrize("column,row", [
        ("Age", "B,abc,200,STR"), ("Survival_days", "B,55,abc,STR"),
        ("Age", "B,,200,STR")])
    def test_non_numeric_cell_names_file_subject_and_column(self, tmp_path,
                                                            column, row):
        path = tmp_path / "meta.csv"
        path.write_text("ID,Age,Survival_days,Extent_of_Resection\n"
                        f"A,50,100,GTR\n{row}\n")
        cell = "abc" if "abc" in row else ""
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: subject 'B' column {column!r} holds a non-numeric "
                f"value {cell!r}")):
            read_metadata_csv(str(path))
