"""NIfTI-1 volume and mask I/O, ROI derivation, and the metadata CSV.

Scope and conventions:

* Single-file NIfTI-1 only (``.nii`` / ``.nii.gz``), little- or big-endian.
  Endianness is decided by the dim[0] sanity check (valid range 1..7), per
  the format convention. Paired ``.hdr``/``.img`` files are rejected.
* Voxel data is kept in the file's native i-fastest order: ``data[i, j, k]``
  with axis 0 fastest on disk. Orientation fields (qform/sform rotations)
  are ignored beyond spacing and offset; the features computed downstream
  aggregate over directions, so anatomical orientation does not affect
  them. This limitation is deliberate.
* The physical center of voxel ``(i, j, k)`` is ``origin + index * spacing``.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .util import fmt_float, reject_duplicate_ids, write_csv

HEADER_SIZE = 348

# NIfTI-1 datatype code -> numpy dtype character (unscaled storage type)
_DTYPES = {
    2: "u1",   # uint8
    4: "i2",   # int16
    8: "i4",   # int32
    16: "f4",  # float32
    64: "f8",  # float64
}
_DTYPE_CODES = {np.dtype(v).str[1:]: k for k, v in _DTYPES.items()}

TUMOR_LABELS = (0, 1, 2, 4)

RESECTION_STATUSES = ("GTR", "STR", "NA")

ROI_KINDS = ("WT", "TC", "ET", "LABEL1", "LABEL2", "LABEL4")
_ROI_LABEL_SETS = {
    "WT": (1, 2, 4),
    "TC": (1, 4),
    "ET": (4,),
    "LABEL1": (1,),
    "LABEL2": (2,),
    "LABEL4": (4,),
}


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI input."""


class MaskLabelError(NiftiError):
    """Mask voxel value outside the {0, 1, 2, 4} vocabulary."""


class GeometryError(ValueError):
    """A scan and a mask that do not lie on the same voxel grid."""


# NIfTI stores spacing and origin as float32 (relative round-off ~6e-8)
GEOMETRY_RTOL = 1e-6


@dataclass
class VoxelGrid:
    """Grid geometry: voxel counts, spacing (mm) and origin (mm) per axis."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    def _check_shape(self, name: str, array: np.ndarray) -> None:
        if tuple(array.shape) != self.dims:
            raise ValueError(
                f"{name} shape {array.shape} does not match dims {self.dims}")

    @property
    def voxel_volume_mm3(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


@dataclass
class VoxelVolume(VoxelGrid):
    """A 3D scalar grid with physical spacing (mm) and origin (mm)."""

    data: np.ndarray  # float64, shape == dims

    def __post_init__(self):
        super().__post_init__()
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        self._check_shape("data", self.data)


@dataclass
class LabelMask(VoxelGrid):
    """Integer-labeled grid; labels come from the {0, 1, 2, 4} vocabulary."""

    labels: np.ndarray  # int16, shape == dims

    def __post_init__(self):
        super().__post_init__()
        self._check_shape("labels", self.labels)
        bad = ~np.isin(self.labels, TUMOR_LABELS)
        if bad.any():
            idx = tuple(int(c[0]) for c in np.nonzero(bad))
            raise MaskLabelError(
                f"label {int(self.labels[idx])} at voxel {idx} is not in {{0,1,2,4}}")

    def label_count(self, label: int) -> int:
        return int(np.count_nonzero(self.labels == label))


@dataclass
class RoiMask(VoxelGrid):
    """Binary region of interest derived from a LabelMask."""

    membership: np.ndarray  # bool, shape == dims
    roi_kind: str

    def __post_init__(self):
        if self.roi_kind not in ROI_KINDS:
            raise ValueError(f"unknown roi_kind {self.roi_kind!r}")
        super().__post_init__()

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.membership))


@dataclass
class SubjectRecord:
    """One row of the subject metadata table."""

    subject_id: str
    age: float
    survival_days: Optional[float] = None
    resection_status: str = "NA"

    def __post_init__(self):
        if not self.age > 0:
            raise ValueError(f"{self.subject_id}: age must be > 0, got {self.age}")
        if self.survival_days is not None and self.survival_days < 0:
            raise ValueError(
                f"{self.subject_id}: survival_days must be >= 0, got {self.survival_days}")
        if self.resection_status not in RESECTION_STATUSES:
            raise ValueError(
                f"{self.subject_id}: resection_status {self.resection_status!r} "
                "not one of GTR/STR/NA")


def _open_maybe_gzip(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(raw: bytes, path: str):
    """Decode the 348-byte header; returns a dict of the fields we use."""
    if len(raw) < HEADER_SIZE:
        raise NiftiError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

    # Endianness: dim[0] (offset 40) must land in 1..7 under the true byte order.
    dim0_le = struct.unpack_from("<h", raw, 40)[0]
    dim0_be = struct.unpack_from(">h", raw, 40)[0]
    if 1 <= dim0_le <= 7:
        bo = "<"
    elif 1 <= dim0_be <= 7:
        bo = ">"
    else:
        raise NiftiError(
            f"{path}: dim[0] is {dim0_le} (LE) / {dim0_be} (BE), "
            "outside 1..7 under either byte order")

    sizeof_hdr = struct.unpack_from(bo + "i", raw, 0)[0]
    if sizeof_hdr != HEADER_SIZE:
        raise NiftiError(f"{path}: malformed header, sizeof_hdr={sizeof_hdr} != 348")

    magic = raw[344:348]
    if magic[:3] == b"ni1":
        raise NiftiError(f"{path}: paired .hdr/.img NIfTI (magic 'ni1') is not supported")
    if magic[:3] != b"n+1":
        raise NiftiError(f"{path}: missing NIfTI-1 magic, got {magic!r}")

    dim = struct.unpack_from(bo + "8h", raw, 40)
    datatype = struct.unpack_from(bo + "h", raw, 70)[0]
    bitpix = struct.unpack_from(bo + "h", raw, 72)[0]
    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    vox_offset = struct.unpack_from(bo + "f", raw, 108)[0]
    scl_slope = struct.unpack_from(bo + "f", raw, 112)[0]
    scl_inter = struct.unpack_from(bo + "f", raw, 116)[0]
    qoffset = struct.unpack_from(bo + "3f", raw, 268)
    return {
        "byteorder": bo,
        "dim": dim,
        "datatype": datatype,
        "bitpix": bitpix,
        "pixdim": pixdim,
        "vox_offset": vox_offset,
        "scl_slope": scl_slope,
        "scl_inter": scl_inter,
        "qoffset": qoffset,
    }


def load_nifti(path: str) -> VoxelVolume:
    """Load a single-file NIfTI-1 volume as float64 scalars.

    Data scaling (scl_slope/scl_inter) is applied when scl_slope != 0.
    Raises NiftiError with a distinct diagnostic for malformed headers,
    unsupported datatypes, unexpected dimensionality and truncated payloads.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with _open_maybe_gzip(path) as fh:
        raw = fh.read()
    hdr = _read_header(raw, path)

    dim = hdr["dim"]
    if dim[0] not in (3, 4):
        raise NiftiError(f"{path}: dim[0]={dim[0]}, only 3D (or 4D single-frame) supported")
    if dim[0] == 4 and dim[4] > 1:
        raise NiftiError(f"{path}: 4D file with {dim[4]} frames, only single-frame supported")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise NiftiError(f"{path}: non-positive dimension in dim[1..3]={dims}")

    if hdr["datatype"] not in _DTYPES:
        raise NiftiError(f"{path}: unsupported datatype code {hdr['datatype']}")
    dtype = np.dtype(hdr["byteorder"] + _DTYPES[hdr["datatype"]])
    if hdr["bitpix"] != dtype.itemsize * 8:
        raise NiftiError(
            f"{path}: bitpix={hdr['bitpix']} inconsistent with datatype "
            f"({dtype.itemsize * 8} expected)")

    offset = int(round(hdr["vox_offset"]))
    if offset == 0:
        offset = 352
    if offset < HEADER_SIZE:
        raise NiftiError(f"{path}: vox_offset={offset} points inside the header")

    count = dims[0] * dims[1] * dims[2]
    nbytes = count * dtype.itemsize
    if len(raw) < offset + nbytes:
        raise NiftiError(
            f"{path}: truncated payload, need {nbytes} bytes at offset {offset}, "
            f"file holds {max(0, len(raw) - offset)}")

    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    data = flat.reshape(dims, order="F").astype(np.float64)

    slope, inter = hdr["scl_slope"], hdr["scl_inter"]
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        data = data * np.float64(slope) + np.float64(inter)

    spacing = tuple(float(p) for p in hdr["pixdim"][1:4])
    if any(s <= 0 for s in spacing):
        raise NiftiError(f"{path}: non-positive pixdim[1..3]={spacing}")
    origin = tuple(float(q) for q in hdr["qoffset"])
    return VoxelVolume(dims=dims, spacing=spacing, origin=origin, data=data)


def write_nifti(path: str, data: np.ndarray, spacing=(1.0, 1.0, 1.0),
                origin=(0.0, 0.0, 0.0), dtype=None) -> None:
    """Write a 3D array as a little-endian single-file NIfTI-1 volume.

    ``dtype`` must be one of uint8/int16/int32/float32/float64 (default: the
    array's dtype). Gzip compression is chosen by a ``.gz`` suffix. No data
    scaling is written, so load(write(v)) reproduces values bit-exactly.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3D array, got shape {arr.shape}")
    dtype = np.dtype(dtype) if dtype is not None else arr.dtype
    key = dtype.str[1:]
    if key not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype} for NIfTI output")
    code = _DTYPE_CODES[key]
    arr = arr.astype("<" + key)

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, arr.shape[0], arr.shape[1], arr.shape[2],
                     1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, spacing[0], spacing[1], spacing[2],
                     0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<f", hdr, 112, 0.0)   # scl_slope 0: no scaling
    struct.pack_into("<f", hdr, 116, 0.0)
    struct.pack_into("<3f", hdr, 268, origin[0], origin[1], origin[2])
    hdr[344:348] = b"n+1\x00"

    payload = arr.tobytes(order="F")
    blob = bytes(hdr) + b"\x00\x00\x00\x00" + payload
    # mtime 0 keeps the wall clock out of the gzip header, so rewriting the
    # same volume gives the same bytes
    with (gzip.GzipFile(path, "wb", mtime=0) if path.endswith(".gz")
          else open(path, "wb")) as fh:
        fh.write(blob)


def load_mask(path: str) -> LabelMask:
    """Load a segmentation mask, rejecting any label outside {0, 1, 2, 4}.

    Labels are stored C-ordered: ``np.isin``, which derives every ROI, first
    ravels a copy of a Fortran-ordered grid."""
    vol = load_nifti(path)
    rounded = np.rint(vol.data)
    drift = np.abs(vol.data - rounded)
    if drift.max(initial=0.0) > 1e-6:
        idx = tuple(int(c[0]) for c in np.nonzero(drift > 1e-6))
        raise MaskLabelError(
            f"{path}: voxel {idx} holds non-integer value {vol.data[idx]!r}")
    try:
        return LabelMask(dims=vol.dims, spacing=vol.spacing, origin=vol.origin,
                         labels=rounded.astype(np.int16, order="C"))
    except MaskLabelError as exc:
        raise MaskLabelError(f"{path}: {exc}") from None


def bounding_box(member: np.ndarray) -> Optional[tuple[slice, slice, slice]]:
    """Index slices of the smallest box holding every set voxel of a 3D
    mask, or None if none is set.

    Each axis comes from an any-projection of the box found so far, so only
    the first projection reads the whole grid.
    """
    box = [slice(None)] * 3
    for axis in range(3):
        other = tuple(a for a in range(3) if a != axis)
        hits = np.flatnonzero(member[tuple(box)].any(axis=other))
        if hits.size == 0:
            return None
        box[axis] = slice(int(hits[0]), int(hits[-1]) + 1)
    return tuple(box)


def check_same_grid(vol: VoxelVolume, mask: LabelMask) -> None:
    """GeometryError unless the scan and the mask share dims, and spacing and
    origin up to the relative tolerance ``GEOMETRY_RTOL``."""
    if vol.dims != mask.dims:
        raise GeometryError(f"volume dims {vol.dims} != mask dims {mask.dims}")
    for field in ("spacing", "origin"):
        a, b = getattr(vol, field), getattr(mask, field)
        if not all(math.isclose(x, y, rel_tol=GEOMETRY_RTOL)
                   for x, y in zip(a, b)):
            raise GeometryError(
                f"scan {field} {a} differs from mask {field} {b} beyond "
                f"relative tolerance {GEOMETRY_RTOL:g}")


def derive_roi(mask: LabelMask, kind: str) -> RoiMask:
    """Derive a binary ROI (WT/TC/ET or a single label) from a label mask."""
    if kind not in _ROI_LABEL_SETS:
        raise ValueError(f"unknown roi_kind {kind!r}, expected one of {ROI_KINDS}")
    membership = np.isin(mask.labels, _ROI_LABEL_SETS[kind])
    return RoiMask(dims=mask.dims, spacing=mask.spacing, origin=mask.origin,
                   membership=membership, roi_kind=kind)


def read_metadata_csv(path: str) -> list[SubjectRecord]:
    """Read the subject metadata CSV (ID, Age, Survival_days, Extent_of_Resection)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"ID", "Age", "Survival_days", "Extent_of_Resection"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing metadata columns {sorted(missing)}")
        records = []
        for row in reader:
            surv_raw = (row["Survival_days"] or "").strip()
            survival = None
            if surv_raw and surv_raw.upper() != "NA":
                survival = float(surv_raw)
            status = (row["Extent_of_Resection"] or "").strip() or "NA"
            if status.upper() == "NA":
                status = "NA"
            records.append(SubjectRecord(
                subject_id=row["ID"].strip(),
                age=float(row["Age"]),
                survival_days=survival,
                resection_status=status,
            ))
    reject_duplicate_ids((r.subject_id for r in records), path)
    return records


def write_metadata_csv(path: str, records: list[SubjectRecord]) -> None:
    rows = []
    for rec in records:
        surv = "" if rec.survival_days is None else fmt_float(float(rec.survival_days))
        rows.append([rec.subject_id, fmt_float(float(rec.age)), surv,
                     rec.resection_status])
    write_csv(path, ["ID", "Age", "Survival_days", "Extent_of_Resection"], rows)
