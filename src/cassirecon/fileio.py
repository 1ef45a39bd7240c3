"""Binary file formats and image export.

Three little-endian formats, all with a 4-byte magic:

* cube "HSC1":        u32 M, N, L; then M*N*L float32 values, flat order.
* measurements "HSM1": u32 K, M, N, L; float64 w0, w1, w2; u64 seed;
                       float64 sigma_noise; then K*M*(N+L+1) float32 values.
* apertures "HSA1":   u32 K, M, N; then K*M*N bytes of 0/1, row index
                       fastest, then column, then shot.

Payloads are float32 to halve file sizes; in-memory computation stays
float64 throughout. Writes go to a temp file in the target directory and
are renamed into place, so readers never observe partial files. Every
``ValueError`` a reader or writer raises, whether from the format or from
the record it builds, starts with the file's path.
"""

from __future__ import annotations

import errno
import functools
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .cubes import HyperCube, MeasurementSet, check_peak, fits_float32, measurement_count
from .errors import DimensionError
from .operator import CodedApertureSet

CUBE_MAGIC = b"HSC1"
MEAS_MAGIC = b"HSM1"
APERTURE_MAGIC = b"HSA1"

_CUBE_HEADER = struct.Struct("<4sIII")
_MEAS_HEADER = struct.Struct("<4sIIII3dQd")
_APERTURE_HEADER = struct.Struct("<4sIII")

PathLike = Union[str, Path]


def _create_temp(path: Path) -> tuple[int, Path]:
    """Open a new ``<name>.<16 hex>.tmp`` beside ``path``: fd and name.

    An existing ``path`` must be a regular file, or a link to one: the rename
    would replace a FIFO or a device node. Only ``stat`` looks at it, since
    opening a FIFO for writing blocks.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if path.exists() and not path.is_file():
        raise FileExistsError(errno.EEXIST, "not a regular file")
    name = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666), name


def check_writable(path: PathLike) -> None:
    """Make and remove the temp file ``atomic_write(path, ...)`` makes, raising as it raises."""
    try:
        fd, name = _create_temp(Path(path))
        os.close(fd)
        os.unlink(name)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err.strerror}") from None


def atomic_write(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` through a private temp file and a rename.

    Every call creates its own temp file (a random name, ``O_EXCL``), so
    concurrent writers to one path never share one; readers see one complete
    payload or the other. Its mode follows the umask at the call. A
    failed write leaves no temp file and raises ``OSError("cannot write
    <path>: <reason>")``, which names ``path``, not the temp file.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = _create_temp(path)  # ours once created, so a failed open unlinks nothing
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise OSError(f"cannot write {path}: {err.strerror}") from None
        raise


def _names_file(fn):
    """The one place that names the file: prefix every ``ValueError`` with ``<path>: ``."""

    @functools.wraps(fn)
    def wrapper(path, *args):
        try:
            return fn(path, *args)
        except ValueError as err:
            raise type(err)(f"{path}: {err}") from None

    return wrapper


def _read_exact(path: PathLike, magic: bytes, header: struct.Struct) -> tuple[bytes, tuple]:
    """File bytes and unpacked header fields after the magic; rejects short headers."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != magic:
        raise ValueError(f"expected magic {magic!r}, got {data[:4]!r}")
    if len(data) < header.size:
        raise ValueError(f"truncated header, expected {header.size} bytes, found {len(data)}")
    return data, header.unpack_from(data)[1:]


def _expect_length(data: bytes, expected: int) -> None:
    if len(data) != expected:
        raise ValueError(f"expected {expected} bytes, found {len(data)}")


def _float32_payload(values: np.ndarray) -> bytes:
    """Finite float64 ``values`` as little-endian float32 bytes.

    A value beyond the float32 range would be stored as inf, so it is
    rejected before anything is written.
    """
    if not fits_float32(values):
        limit = float(np.finfo(np.float32).max)
        raise ValueError(f"values beyond the float32 range (+-{limit:.4g}) cannot be stored")
    return values.astype("<f4").tobytes()


@_names_file
def write_cube(path: PathLike, cube: HyperCube) -> None:
    header = _CUBE_HEADER.pack(CUBE_MAGIC, cube.rows, cube.cols, cube.bands)
    atomic_write(path, header + _float32_payload(cube.values))


@_names_file
def read_cube(path: PathLike) -> HyperCube:
    data, (M, N, L) = _read_exact(path, CUBE_MAGIC, _CUBE_HEADER)
    _expect_length(data, _CUBE_HEADER.size + 4 * M * N * L)
    values = np.frombuffer(data, dtype="<f4", offset=_CUBE_HEADER.size).astype(np.float64)
    return HyperCube(M, N, L, values)


@_names_file
def write_measurements(path: PathLike, ms: MeasurementSet) -> None:
    w0, w1, w2 = ms.weights
    header = _MEAS_HEADER.pack(
        MEAS_MAGIC, ms.shots, ms.rows, ms.cols, ms.bands,
        w0, w1, w2, ms.seed, ms.sigma_noise,
    )
    atomic_write(path, header + _float32_payload(ms.values))


@_names_file
def read_measurements(path: PathLike) -> MeasurementSet:
    data, (K, M, N, L, w0, w1, w2, seed, sigma) = _read_exact(path, MEAS_MAGIC, _MEAS_HEADER)
    _expect_length(data, _MEAS_HEADER.size + 4 * measurement_count(M, N, L, K))
    values = np.frombuffer(data, dtype="<f4", offset=_MEAS_HEADER.size).astype(np.float64)
    return MeasurementSet(
        shots=K, rows=M, cols=N, bands=L, values=values,
        weights=(w0, w1, w2), seed=seed, sigma_noise=sigma,
    )


@_names_file
def write_apertures(path: PathLike, apertures: CodedApertureSet) -> None:
    header = _APERTURE_HEADER.pack(
        APERTURE_MAGIC, apertures.shots, apertures.rows, apertures.cols
    )
    # flat order: row fastest, then column, then shot
    payload = np.moveaxis(apertures.masks, 0, 2).reshape(-1, order="F").tobytes()
    atomic_write(path, header + payload)


@_names_file
def read_apertures(path: PathLike) -> CodedApertureSet:
    data, (K, M, N) = _read_exact(path, APERTURE_MAGIC, _APERTURE_HEADER)
    _expect_length(data, _APERTURE_HEADER.size + K * M * N)
    flat = np.frombuffer(data, dtype=np.uint8, offset=_APERTURE_HEADER.size)
    masks = np.moveaxis(flat.reshape((M, N, K), order="F"), 2, 0)
    return CodedApertureSet(masks)


def write_pgm(path: PathLike, image: np.ndarray) -> None:
    """8-bit binary PGM (P5) from a 2D uint8 array."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise DimensionError(f"expected a 2D image, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, header + np.ascontiguousarray(img).tobytes())


def export_pgm_slices(cube: HyperCube, outdir: PathLike, peak: float = 1.0) -> list[Path]:
    """One grayscale PGM per spectral band, linearly scaled by ``peak``.

    Files are named band_00.pgm, band_01.pgm, ... and returned in order.
    """
    check_peak(peak)
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot write {outdir}: {err.strerror}") from None
    arr = cube.as_array()
    paths = []
    for l in range(cube.bands):
        scaled = np.clip(np.rint(arr[:, :, l] / peak * 255.0), 0, 255).astype(np.uint8)
        path = outdir / f"band_{l:02d}.pgm"
        write_pgm(path, scaled)
        paths.append(path)
    return paths
