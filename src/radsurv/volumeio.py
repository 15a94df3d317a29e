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
* A loaded scan keeps its samples as stored (``VoxelVolume.stored``: the
  file's dtype, with its ``scaling``). ``VoxelVolume.region(box)`` is where
  samples become float64, one index box at a time, so extraction holds no
  whole-grid float copy.
* The physical center of voxel ``(i, j, k)`` is ``origin + index * spacing``.
* A region (``RoiMask``) is the crop of its mask to the box of the
  labelled voxels (``LabelMask.box``, found once per mask) at ``corner``;
  its dims, spacing and origin stay the whole grid's.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .util import fmt_float, numbers, read_cell, read_csv, write_csv

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

RESECTION_STATUSES = ("GTR", "STR", "NA")
METADATA_COLUMNS = ("ID", "Age", "Survival_days", "Extent_of_Resection")

_ROI_LABEL_SETS = {
    "WT": (1, 2, 4),
    "TC": (1, 4),
    "ET": (4,),
    "LABEL1": (1,),
    "LABEL2": (2,),
    "LABEL4": (4,),
}
ROI_KINDS = tuple(_ROI_LABEL_SETS)


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI input."""


class MaskLabelError(NiftiError):
    """Mask voxel value outside the {0, 1, 2, 4} vocabulary."""


class GeometryError(ValueError):
    """A scan and a mask that do not lie on the same voxel grid."""


# NIfTI stores spacing and origin as float32 (relative round-off ~6e-8)
GEOMETRY_RTOL = 1e-6

# what a NIfTI-1 header holds: int16 grid axes (dim[1..3]), and float32
# spacing (pixdim[1..3]) and origin (qoffset); a spacing below the least
# float32 above 0 is stored as 0
NIFTI_MAX_DIM = 32767
NIFTI_MAX_FLOAT = float(np.finfo(np.float32).max)
NIFTI_MIN_SPACING = float(np.finfo(np.float32).smallest_subnormal)


def _check_vocabulary(labels: np.ndarray, where: str = "") -> None:
    """MaskLabelError naming the first voxel whose integer value is not in
    {0, 1, 2, 4}; the grid is only compared voxel by voxel to find it."""
    if labels.size and (labels.min() < 0 or labels.max() > 4
                        or (labels == 3).any()):
        bad = (labels < 0) | (labels > 4) | (labels == 3)
        idx = tuple(int(c[0]) for c in np.nonzero(bad))
        raise MaskLabelError(
            f"{where}label {int(labels[idx])} at voxel {idx} is not in {{0,1,2,4}}")


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
        if not all(0 < s < math.inf for s in self.spacing):
            raise ValueError(
                f"spacing must be finite and positive, got {self.spacing}")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")

    def _check_shape(self, name: str, array: np.ndarray) -> None:
        if tuple(array.shape) != self.dims:
            raise ValueError(
                f"{name} shape {array.shape} does not match dims {self.dims}")

    @property
    def voxel_volume_mm3(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


@dataclass
class VoxelVolume(VoxelGrid):
    """A 3D scalar grid with physical spacing (mm) and origin (mm).

    Built from samples as stored, with their scaling (``scaling=``, as
    ``load_nifti`` does) or unscaled. ``region(box)`` gives one index box
    as float64.
    """

    stored: np.ndarray  # samples as stored (any numeric dtype), shape == dims
    scaling: Optional[tuple[float, float]] = None  # (scl_slope, scl_inter)

    def __post_init__(self):
        self.stored = np.asarray(self.stored)
        super().__post_init__()
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        self._check_shape("data", self.stored)

    def region(self, box) -> np.ndarray:
        """The float64 (scaled) samples of the index box ``box``, each
        voxel's bits the same whatever the box, as conversion and scaling
        are elementwise."""
        return _to_float(self.stored[box], self.scaling)


@dataclass
class LabelMask(VoxelGrid):
    """Integer-labeled grid; labels come from the {0, 1, 2, 4} vocabulary."""

    labels: np.ndarray  # int16, shape == dims

    def __post_init__(self):
        super().__post_init__()
        self._check_shape("labels", self.labels)
        _check_vocabulary(self.labels)

    @cached_property
    def box(self) -> tuple[slice, slice, slice]:
        """The box of the labelled voxels; empty if no voxel is labelled."""
        return bounding_box(self.labels > 0) or (slice(0, 0),) * 3


@dataclass
class RoiMask(VoxelGrid):
    """Binary region of interest: ``membership`` is the box of the grid
    whose first voxel has index ``corner``; no voxel outside it is a member."""

    membership: np.ndarray  # bool, 3D, fits inside dims at corner
    roi_kind: str
    corner: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if self.roi_kind not in ROI_KINDS:
            raise ValueError(f"unknown roi_kind {self.roi_kind!r}")
        super().__post_init__()
        self.corner = tuple(int(c) for c in self.corner)
        shape = self.membership.shape
        if len(shape) != 3 or len(self.corner) != 3 or not all(
                0 <= c <= d - n for c, n, d in zip(self.corner, shape, self.dims)):
            raise ValueError(f"membership shape {shape} at corner {self.corner} "
                             f"does not fit dims {self.dims}")

    @property
    def box(self) -> tuple[slice, slice, slice]:
        """Index slices of the grid that ``membership`` covers."""
        return tuple(slice(c, c + n)
                     for c, n in zip(self.corner, self.membership.shape))

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
        if not (math.isfinite(self.age) and self.age > 0):
            raise ValueError(
                f"{self.subject_id}: age must be finite and > 0, got {self.age}")
        if self.survival_days is not None and not (
                math.isfinite(self.survival_days) and self.survival_days >= 0):
            raise ValueError(
                f"{self.subject_id}: survival_days must be finite and >= 0, "
                f"got {self.survival_days}")
        if self.resection_status not in RESECTION_STATUSES:
            raise ValueError(
                f"{self.subject_id}: resection_status {self.resection_status!r} "
                "not one of GTR/STR/NA")


def _read_bytes(path: str) -> bytes:
    """The file's bytes, decompressed if they start with the gzip magic."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise NiftiError(f"{path}: corrupt gzip stream: {exc}") from None


def _decode(path: str):
    """Read and check a single-file NIfTI-1 file. Returns the payload as
    stored (a read-only Fortran-ordered view in the file's dtype), the
    (scl_slope, scl_inter) pair or None if the values are stored unscaled,
    and the dims/spacing/origin keywords of the grid."""
    raw = _read_bytes(path)
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
    datatype, bitpix = struct.unpack_from(bo + "2h", raw, 70)
    floats = {
        "pixdim[1..3]": struct.unpack_from(bo + "8f", raw, 76)[1:4],
        "vox_offset": struct.unpack_from(bo + "f", raw, 108)[0],
        "scl_slope": struct.unpack_from(bo + "f", raw, 112)[0],
        "scl_inter": struct.unpack_from(bo + "f", raw, 116)[0],
        "qoffset": struct.unpack_from(bo + "3f", raw, 268),
    }
    for name, value in floats.items():
        if not np.isfinite(value).all():
            raise NiftiError(f"{path}: non-finite {name}={value}")

    if dim[0] not in (3, 4):
        raise NiftiError(f"{path}: dim[0]={dim[0]}, only 3D (or 4D single-frame) supported")
    if dim[0] == 4 and dim[4] > 1:
        raise NiftiError(f"{path}: 4D file with {dim[4]} frames, only single-frame supported")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise NiftiError(f"{path}: non-positive dimension in dim[1..3]={dims}")

    if datatype not in _DTYPES:
        raise NiftiError(f"{path}: unsupported datatype code {datatype}")
    dtype = np.dtype(bo + _DTYPES[datatype])
    if bitpix != dtype.itemsize * 8:
        raise NiftiError(
            f"{path}: bitpix={bitpix} inconsistent with datatype "
            f"({dtype.itemsize * 8} expected)")

    offset = int(round(floats["vox_offset"]))
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
    stored = np.frombuffer(raw, dtype=dtype, count=count,
                           offset=offset).reshape(dims, order="F")

    slope, inter = floats["scl_slope"], floats["scl_inter"]
    scaling = None if slope == 0.0 or (slope, inter) == (1.0, 0.0) else (slope, inter)
    spacing = tuple(float(p) for p in floats["pixdim[1..3]"])
    if any(s <= 0 for s in spacing):
        raise NiftiError(f"{path}: non-positive pixdim[1..3]={spacing}")
    origin = tuple(float(q) for q in floats["qoffset"])
    return stored, scaling, dict(dims=dims, spacing=spacing, origin=origin)


def _to_float(stored: np.ndarray, scaling) -> np.ndarray:
    data = stored.astype(np.float64)
    if scaling is not None:
        data = data * np.float64(scaling[0]) + np.float64(scaling[1])
    return data


def load_nifti(path: str) -> VoxelVolume:
    """Load a single-file NIfTI-1 volume; its samples stay as stored, and
    ``region`` gives them as float64.

    Data scaling (scl_slope/scl_inter) is applied when scl_slope != 0.
    Raises NiftiError with a distinct diagnostic for malformed headers,
    non-finite header fields, unsupported datatypes, unexpected
    dimensionality, corrupt gzip streams and truncated payloads.
    """
    stored, scaling, grid = _decode(path)
    return VoxelVolume(**grid, stored=stored, scaling=scaling)


def write_nifti(path: str, data: np.ndarray, spacing=(1.0, 1.0, 1.0),
                origin=(0.0, 0.0, 0.0), dtype=None) -> None:
    """Write a 3D array as a little-endian single-file NIfTI-1 volume.

    ``dtype`` must be one of uint8/int16/int32/float32/float64 (default: the
    array's dtype). Gzip compression is chosen by a ``.gz`` suffix. No data
    scaling is written, so load(write(v)) reproduces values bit-exactly. A
    grid, spacing or origin the header cannot hold is a ValueError naming
    the file and the field, raised before the file is opened.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3D array, got shape {arr.shape}")
    numbers(arr.shape, f"{path}: dims", "i", high=NIFTI_MAX_DIM)
    numbers(spacing, f"{path}: spacing", shape=(3,), low=NIFTI_MIN_SPACING,
            high=NIFTI_MAX_FLOAT)
    numbers(origin, f"{path}: origin", shape=(3,), low=-NIFTI_MAX_FLOAT,
            high=NIFTI_MAX_FLOAT)
    dtype = np.dtype(dtype) if dtype is not None else arr.dtype
    key = dtype.str[1:]
    if key not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype} for NIfTI output")
    code = _DTYPE_CODES[key]

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

    # mtime 0 keeps the wall clock out of the gzip header, so rewriting the
    # same volume gives the same bytes
    with (gzip.GzipFile(path, "wb", mtime=0) if path.endswith(".gz")
          else open(path, "wb")) as fh:
        fh.write(hdr + b"\x00\x00\x00\x00")
        # the payload in file (Fortran) order, one k-slab at a time, so no
        # copy of the whole grid is made
        for k in range(arr.shape[2]):
            fh.write(arr[:, :, k].astype("<" + key).tobytes(order="F"))


def load_mask(path: str) -> LabelMask:
    """Load a segmentation mask, rejecting any label outside {0, 1, 2, 4}.

    An unscaled integer payload is checked as stored; any other must hold
    finite integers once scaled to float64. Labels are checked before they
    are narrowed to C-ordered int16, so no value wraps into a valid label.
    A payload that int16 holds exactly (u1, i1, i2) is checked once, after
    the cast, by ``LabelMask``.
    """
    values, scaling, grid = _decode(path)
    if scaling is not None or values.dtype.kind == "f":
        values = _to_float(values, scaling)
        rounded = np.rint(values)
        with np.errstate(invalid="ignore"):     # inf - inf: NaN, flagged
            off = ~(np.abs(values - rounded) <= 1e-6)
        if off.any():
            idx = tuple(int(c[0]) for c in np.nonzero(off))
            kind = "non-integer" if np.isfinite(values[idx]) else "non-finite"
            raise MaskLabelError(
                f"{path}: voxel {idx} holds {kind} value {values[idx]!r}")
        values = rounded
    if not np.can_cast(values.dtype, np.int16):
        _check_vocabulary(values, f"{path}: ")
    # copied in slabs along axis 1: one whole-grid transposing copy strides
    # through memory and takes about 3x as long on a BraTS grid
    labels = np.empty(values.shape, dtype=np.int16)
    for j in range(0, values.shape[1], 16):
        labels[:, j:j + 16] = values[:, j:j + 16]
    try:
        return LabelMask(**grid, labels=labels)
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
    """Derive a binary ROI (WT/TC/ET or a single label) from a label mask,
    as the crop of the mask's box: every region lies inside it."""
    if kind not in _ROI_LABEL_SETS:
        raise ValueError(f"unknown roi_kind {kind!r}, expected one of {ROI_KINDS}")
    box = mask.box
    return RoiMask(dims=mask.dims, spacing=mask.spacing, origin=mask.origin,
                   membership=np.isin(mask.labels[box], _ROI_LABEL_SETS[kind]),
                   roi_kind=kind, corner=tuple(b.start for b in box))


def read_metadata_csv(path: str) -> list[SubjectRecord]:
    """Read the subject metadata CSV (ID, Age, Survival_days, Extent_of_Resection)."""
    header, rows = read_csv(path, key="ID", required=METADATA_COLUMNS)
    records = []
    for cells in rows:
        row = dict(zip(header, cells))
        sid = row["ID"]
        survival = read_cell(path, sid, "Survival_days", row["Survival_days"],
                             missing=True)
        status = row["Extent_of_Resection"].strip() or "NA"
        if status.upper() == "NA":
            status = "NA"
        records.append(SubjectRecord(
            subject_id=sid,
            age=read_cell(path, sid, "Age", row["Age"]),
            survival_days=None if math.isnan(survival) else survival,
            resection_status=status,
        ))
    return records


def write_metadata_csv(path: str, records: list[SubjectRecord]) -> None:
    rows = []
    for rec in records:
        surv = "" if rec.survival_days is None else fmt_float(float(rec.survival_days))
        rows.append([rec.subject_id, fmt_float(float(rec.age)), surv,
                     rec.resection_status])
    write_csv(path, METADATA_COLUMNS, rows)
