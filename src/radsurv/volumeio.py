"""NIfTI-1 volume and mask I/O, ROI derivation, and the metadata CSV.

Scope and conventions:

* Single-file NIfTI-1 only (``.nii`` / ``.nii.gz``), little- or big-endian.
  Endianness is decided by the dim[0] sanity check (valid range 1..7), per
  the format convention. Paired ``.hdr``/``.img`` files are rejected. The
  header's fields are declared once (``_HEADER``), for reader and writer.
* Voxel data is kept in the file's native i-fastest order: ``data[i, j, k]``
  with axis 0 fastest on disk. Orientation fields (qform/sform rotations)
  are ignored beyond spacing and offset; the features computed downstream
  aggregate over directions, so anatomical orientation does not affect
  them. This limitation is deliberate.
* A payload is read into the one array that keeps it, 64 KiB at a time:
  a ``.nii`` file straight from disk, a ``.nii.gz`` through
  ``gzip.GzipFile``, which is then read to its end, so every gzip member's
  CRC is checked. A header's claim is bounded by what the file can hold
  before that array is allocated.
* A loaded scan keeps its samples as stored (``VoxelVolume.stored``: the
  file's dtype, with its ``scaling``). ``VoxelVolume.region(box)`` is where
  samples become float64, one index box at a time, so extraction holds no
  whole-grid float copy.
* A loaded mask is checked in the box of its nonzero voxels, then holds
  only a copy of that box (``LabelMask.labels`` at ``LabelMask.corner``),
  so an unscaled integer payload's load makes no other grid. A u1 or
  native i2 payload keeps its stored type; any other type becomes int16.
  Either way the labels are in file order and read-only.
* The physical center of voxel ``(i, j, k)`` is ``origin + index * spacing``.
* ``LabelMask`` and ``RoiMask`` hold a box of the grid at ``corner``;
  their dims, spacing and origin stay the whole grid's. ``LabelMask.box``
  (found once per mask) and ``RoiMask.box`` are grid index slices. A
  region is the crop of its mask to ``LabelMask.box``.
"""

from __future__ import annotations

import gzip
import math
import os
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .util import fmt_float, numbers, read_cell, read_csv, write_csv

# the NIfTI-1 header fields read or written, at their nifti1.h offsets,
# little-endian; magic stays raw bytes, so a message shows the file's own
_HEADER = np.dtype({
    "names": ["sizeof_hdr", "dim", "datatype", "bitpix", "pixdim",
              "vox_offset", "scl_slope", "scl_inter", "qoffset", "magic"],
    "formats": ["<i4", ("<i2", 8), "<i2", "<i2", ("<f4", 8), "<f4", "<f4",
                "<f4", ("<f4", 3), "V4"],
    "offsets": [0, 40, 70, 72, 76, 108, 112, 116, 268, 344]})
HEADER_SIZE = _HEADER.itemsize
# bytes read per call into a payload or while reading a file to its end:
# each call's buffer stays below glibc's mmap threshold (128 KiB), so the
# heap reuses it
_STEP = 1 << 16
# deflate's largest expansion: one compressed byte inflates to at most 1032
_DEFLATE_MAX_RATIO = 1032
# deflate level of written .nii.gz files: level 1 writes about 2.6x faster
# than gzip's default 9 for about 6% more bytes (nibabel writes 1 too)
_GZIP_LEVEL = 1
# payload bytes write_nifti gathers at a time (at least one k-slab)
_WRITE_BLOCK = 1 << 20

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

# what dim, pixdim and qoffset hold (a smaller spacing is stored as 0)
NIFTI_MAX_DIM = int(np.iinfo(_HEADER["dim"].base).max)
NIFTI_MAX_FLOAT = float(np.finfo(_HEADER["pixdim"].base).max)
NIFTI_MIN_SPACING = float(np.finfo(_HEADER["pixdim"].base).smallest_subnormal)


def _check_vocabulary(labels: np.ndarray, corner, where: str) -> None:
    """MaskLabelError naming, by its grid index, the first voxel of the box
    ``labels`` at ``corner`` whose integer value is not in {0, 1, 2, 4};
    the box is only compared voxel by voxel to find it."""
    if labels.size and (labels.min() < 0 or labels.max() > 4
                        or (labels == 3).any()):
        bad = (labels < 0) | (labels > 4) | (labels == 3)
        idx = tuple(k + int(c[0]) for k, c in zip(corner, np.nonzero(bad)))
        raise MaskLabelError(
            f"{where}label {int(labels[bad][0])} at voxel {idx} is not in {{0,1,2,4}}")


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

    def _check_fits(self, name: str, array: np.ndarray,
                    corner) -> tuple[int, int, int]:
        """``corner`` as ints; a ValueError unless ``array`` is a 3D box
        that fits inside dims with its first voxel at ``corner``."""
        corner = tuple(int(c) for c in corner)
        shape = array.shape
        if len(shape) != 3 or len(corner) != 3 or not all(
                0 <= c <= d - n for c, n, d in zip(corner, shape, self.dims)):
            raise ValueError(f"{name} shape {shape} at corner {corner} "
                             f"does not fit dims {self.dims}")
        return corner

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
    """Integer-labeled grid; its makers keep labels in {0, 1, 2, 4}.

    ``labels`` is the box of the grid whose first voxel has index
    ``corner``; no voxel outside it is labelled. A mask built from a whole
    grid (``gen_mask``) keeps it at corner (0, 0, 0); ``load_mask`` keeps
    only the box of the labelled voxels.
    """

    labels: np.ndarray  # integers (load_mask: u1 or int16), 3D, fits at corner
    corner: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        super().__post_init__()
        self.corner = self._check_fits("labels", self.labels, self.corner)

    @cached_property
    def box(self) -> tuple[slice, slice, slice]:
        """The grid's index box of the labelled voxels; empty if no voxel
        is labelled."""
        box = bounding_box(self.labels) or (slice(0, 0),) * 3
        return tuple(slice(c + b.start, c + b.stop)
                     for c, b in zip(self.corner, box))


@dataclass
class RoiMask(VoxelGrid):
    """Binary region of interest: ``membership`` is the box of the grid
    whose first voxel has index ``corner``; no voxel outside it is a member."""

    membership: np.ndarray  # bool, 3D, fits inside dims at corner
    corner: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        super().__post_init__()
        self.corner = self._check_fits("membership", self.membership,
                                       self.corner)

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


def _fill(fh, view) -> int:
    """Read ``fh`` into ``view`` as far as the file goes; the count. Each
    call fills at most ``_STEP`` bytes, as ``GzipFile.readinto`` reads a
    whole request into a new bytes object before copying it."""
    view = memoryview(view)
    got = 0
    while got < len(view) and (n := fh.readinto(view[got:got + _STEP])):
        got += n
    return got


def _drain(fh) -> int:
    """Read ``fh`` to its end, which checks every gzip member's CRC and
    length; the count of bytes in the file."""
    while fh.read(_STEP):
        pass
    return fh.tell()


def _decode(path: str):
    """Read and check a single-file NIfTI-1 file. Returns the payload as
    stored (a read-only Fortran-ordered array in the file's dtype), the
    (scl_slope, scl_inter) pair or None if the values are stored unscaled,
    and the dims/spacing/origin keywords of the grid.

    A file that starts with the gzip magic is read through
    ``gzip.GzipFile``, the payload straight into its array, and then read
    to its end, so a corrupt stream anywhere in it is named first, before
    any fault of the header or payload found in it."""
    with open(path, "rb") as raw:
        zipped = raw.read(2) == b"\x1f\x8b"
        raw.seek(0)
        # the most bytes the file can hold
        limit = os.fstat(raw.fileno()).st_size * (
            _DEFLATE_MAX_RATIO if zipped else 1)
        with (gzip.GzipFile(fileobj=raw) if zipped else raw) as fh:
            try:
                try:
                    decoded = _decode_stream(path, fh, limit)
                except NiftiError:
                    _drain(fh)
                    raise
                _drain(fh)
            except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
                raise NiftiError(f"{path}: corrupt gzip stream: {exc}") from None
    return decoded


def _truncated(path: str, nbytes: int, offset: int, fh) -> NiftiError:
    return NiftiError(
        f"{path}: truncated payload, need {nbytes} bytes at offset {offset}, "
        f"file holds {max(0, _drain(fh) - offset)}")


def _decode_stream(path: str, fh, limit: int):
    header = bytearray(HEADER_SIZE)
    if _fill(fh, header) < HEADER_SIZE:
        raise NiftiError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

    # Endianness: dim[0] must land in 1..7 under the true byte order.
    le, be = (np.frombuffer(header, _HEADER.newbyteorder(bo))[0]
              for bo in "<>")
    if 1 <= le["dim"][0] <= 7:
        hdr, bo = le, "<"
    elif 1 <= be["dim"][0] <= 7:
        hdr, bo = be, ">"
    else:
        raise NiftiError(
            f"{path}: dim[0] is {le['dim'][0]} (LE) / {be['dim'][0]} (BE), "
            "outside 1..7 under either byte order")

    if hdr["sizeof_hdr"] != HEADER_SIZE:
        raise NiftiError(f"{path}: malformed header, sizeof_hdr={hdr['sizeof_hdr']} != 348")

    magic = hdr["magic"].tobytes()
    if magic[:3] == b"ni1":
        raise NiftiError(f"{path}: paired .hdr/.img NIfTI (magic 'ni1') is not supported")
    if magic[:3] != b"n+1":
        raise NiftiError(f"{path}: missing NIfTI-1 magic, got {magic!r}")

    dim = hdr["dim"].tolist()
    datatype, bitpix = int(hdr["datatype"]), int(hdr["bitpix"])
    floats = {
        "pixdim[1..3]": tuple(hdr["pixdim"][1:4].tolist()),
        "vox_offset": hdr["vox_offset"].item(),
        "scl_slope": hdr["scl_slope"].item(),
        "scl_inter": hdr["scl_inter"].item(),
        "qoffset": tuple(hdr["qoffset"].tolist()),
    }
    for name, value in floats.items():
        if not np.isfinite(value).all():
            raise NiftiError(f"{path}: non-finite {name}={value}")

    if dim[0] not in (3, 4):
        raise NiftiError(f"{path}: dim[0]={dim[0]}, only 3D (or 4D single-frame) supported")
    if dim[0] == 4 and dim[4] > 1:
        raise NiftiError(f"{path}: 4D file with {dim[4]} frames, only single-frame supported")
    dims = tuple(dim[1:4])
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
    # a header may claim any size, so the claim is bounded by what the file
    # can hold before the array is allocated
    if offset + nbytes > limit:
        raise _truncated(path, nbytes, offset, fh)
    stored = np.empty(count, dtype=dtype)
    fh.seek(offset)
    if _fill(fh, stored.view(np.uint8)) < nbytes:
        raise _truncated(path, nbytes, offset, fh)
    stored.flags.writeable = False
    stored = stored.reshape(dims, order="F")

    slope, inter = floats["scl_slope"], floats["scl_inter"]
    scaling = None if slope == 0.0 or (slope, inter) == (1.0, 0.0) else (slope, inter)
    spacing = floats["pixdim[1..3]"]
    if any(s <= 0 for s in spacing):
        raise NiftiError(f"{path}: non-positive pixdim[1..3]={spacing}")
    origin = floats["qoffset"]
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


def _check_holds(path: str, arr: np.ndarray, dtype: np.dtype) -> None:
    """ValueError naming the file and the first voxel, in file order, whose
    value ``dtype`` cannot hold. An integer type holds the finite integers
    of its range; a float type holds any value that does not overflow it
    (rounding to its precision is allowed). A cast numpy deems safe, such
    as to the array's own dtype, is not checked; nor is an integer array
    whose minimum and maximum fit, as found by two reductions that copy
    nothing. Any other is checked one k-slab at a time."""
    if arr.size == 0 or np.can_cast(arr.dtype, dtype):
        return
    if dtype.kind == "f":
        if arr.dtype.kind != "f":
            return              # float32 spans every integer type's range

        def unheld(slab):
            with np.errstate(over="ignore"):
                return np.isfinite(slab) & np.isinf(slab.astype(dtype))
    else:
        info = np.iinfo(dtype)
        if arr.dtype.kind in "iu" and (
                info.min <= arr.min() and arr.max() <= info.max):
            return

        def unheld(slab):
            held = (slab >= info.min) & (slab <= info.max)   # NaN: False
            if slab.dtype.kind == "f":
                held &= np.trunc(slab) == slab
            return ~held

    for k in range(arr.shape[2]):
        bad = unheld(arr[:, :, k])
        if bad.any():
            j, i = np.argwhere(bad.T)[0]        # file order: i fastest
            raise ValueError(
                f"{path}: voxel {(int(i), int(j), k)} holds "
                f"{arr[i, j, k].item()!r}, which {dtype} cannot hold")


def write_nifti(path: str, data: np.ndarray, spacing=(1.0, 1.0, 1.0),
                origin=(0.0, 0.0, 0.0), dtype=None) -> None:
    """Write a 3D array as a little-endian single-file NIfTI-1 volume.

    ``dtype`` must be one of uint8/int16/int32/float32/float64 (default: the
    array's dtype). Gzip compression is chosen by a ``.gz`` suffix; the
    stream is deflated at level 1. No data scaling is written, so
    load(write(v)) reproduces values bit-exactly, except that a float32
    ``dtype`` rounds wider floats to its precision. A value ``dtype`` cannot
    hold (out of range, or a non-integer or non-finite value for an integer
    type), or a grid, spacing or origin the header cannot hold, is a
    ValueError naming the file, raised before the file is opened.
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
    _check_holds(path, arr, dtype)

    hdr = np.zeros((), _HEADER)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["dim"] = (3, *arr.shape, 1, 1, 1, 1)
    hdr["datatype"] = code
    hdr["bitpix"] = dtype.itemsize * 8
    hdr["pixdim"] = (1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    hdr["vox_offset"] = 352.0   # scl_slope stays 0: no scaling
    hdr["qoffset"] = origin
    hdr["magic"] = b"n+1\x00"

    # mtime 0 keeps the wall clock out of the gzip header, so rewriting the
    # same volume gives the same bytes
    with (gzip.GzipFile(path, "wb", compresslevel=_GZIP_LEVEL, mtime=0)
          if path.endswith(".gz") else open(path, "wb")) as fh:
        fh.write(hdr.tobytes() + b"\x00\x00\x00\x00")
        # the payload in file (Fortran) order, a block of k-slabs at a time,
        # so no copy of the whole grid is made: one transposing copy gathers
        # each block of a C-ordered grid, and an F-ordered grid of the
        # file's type is written from its own memory
        slab = arr.shape[0] * arr.shape[1] * dtype.itemsize
        step = max(1, _WRITE_BLOCK // max(1, slab))
        for k in range(0, arr.shape[2], step):
            fh.write(memoryview(np.ascontiguousarray(
                arr[:, :, k:k + step].T, "<" + key)).cast("B"))


def load_mask(path: str) -> LabelMask:
    """Load a segmentation mask, rejecting any label outside {0, 1, 2, 4}.

    An unscaled integer payload is checked as stored; any other must hold
    finite integers once scaled to float64. Every label it can reject is
    nonzero, so the labels are checked in the box of the nonzero voxels,
    before any cast, so no value wraps into a valid label. That box, the
    box of the labelled voxels, is what the mask holds (at
    ``LabelMask.corner``), copied read-only in file order: in the stored
    type of a u1 or native i2 payload, else cast to int16.
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
    box = bounding_box(values) or (slice(0, 0),) * 3
    corner = tuple(b.start for b in box)
    _check_vocabulary(values[box], corner, f"{path}: ")
    labels = values[box].astype(
        values.dtype if values.dtype in (np.uint8, np.int16) else np.int16,
        order="F")
    labels.flags.writeable = False
    return LabelMask(**grid, labels=labels, corner=corner)


def bounding_box(member: np.ndarray) -> Optional[tuple[slice, slice, slice]]:
    """Index slices of the smallest box holding every nonzero voxel of a 3D
    grid, or None if none is nonzero.

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
    crop = mask.labels[tuple(slice(b.start - c, b.stop - c)
                             for b, c in zip(box, mask.corner))]
    return RoiMask(dims=mask.dims, spacing=mask.spacing, origin=mask.origin,
                   membership=np.isin(crop, _ROI_LABEL_SETS[kind]),
                   corner=tuple(b.start for b in box))


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
