"""The iqf32 on-disk sample format.

Layout: little-endian float32, interleaved I then Q per sample, no header.
A file of N complex samples is exactly 8*N bytes.  The reader looks at no
other file: a dataset's metadata lives in its manifest.

The module also holds the two readers that the other formats share:
``json_object`` for JSON manifests and ``load_npz`` for npz archives.
"""
from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal


def json_object(text: str, source) -> dict:
    """Parse JSON that must be an object.  Text that is not JSON raises
    json.JSONDecodeError and any other value ParameterError, both naming ``source``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"malformed JSON in {source}: {exc.msg}", exc.doc, exc.pos) from None
    if not isinstance(value, dict):
        raise ParameterError(f"{source} must hold a JSON object, got {type(value).__name__}")
    return value


@contextmanager
def load_npz(path):
    """Open an ``.npz`` archive as (sizes, read), refusing pickled objects:
    each member's unpacked bytes from the zip directory, so a caller can refuse
    a member before it is read, and a reader of the named members into a dict.
    A missing file raises FileNotFoundError; a file numpy cannot read as an
    npz archive (truncated, corrupt or not a zip) raises ParameterError naming it."""
    def readable(get):
        try:
            return get()
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise ParameterError(f"{path} is not a readable .npz archive: {exc}") from None

    def read(names) -> dict:
        return readable(lambda: {key: archive[key] for key in names})

    archive = readable(lambda: np.load(path, allow_pickle=False))
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ParameterError(f"{path} is not a readable .npz archive: it holds a single .npy array")
    with archive:
        yield {i.filename.removesuffix(".npy"): i.file_size for i in archive.zip.infolist()}, read


def write_iqf32(path, samples) -> Path:
    """Write interleaved I/Q float32.  Samples float32 cannot hold (NaN, inf,
    beyond its range) raise ParameterError before any byte is written."""
    path = Path(path)
    z = np.asarray(samples, dtype=np.complex128)
    if z.ndim != 1:
        raise ParameterError(f"samples must be 1-D, got shape {z.shape}")
    inter = np.empty(2 * z.size, dtype="<f4")
    with np.errstate(over="ignore"):  # an out-of-range value becomes inf, refused below
        inter[0::2] = z.real
        inter[1::2] = z.imag
    if not np.isfinite(inter).all():
        raise ParameterError(f"{path}: samples must be finite in float32")
    path.parent.mkdir(parents=True, exist_ok=True)
    inter.tofile(path)
    return path


def read_iqf32(path) -> ComplexSignal:
    """Read an iqf32 file back into a ComplexSignal (complex128 in memory).

    A missing file raises FileNotFoundError; a float32 count that is zero or
    odd, or a non-finite sample, raises ParameterError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such iqf32 file: {path}")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0 or raw.size % 2 != 0:
        raise ParameterError(
            f"{path} holds {raw.size} float32 values; an iqf32 file needs a "
            "positive, even count (interleaved I,Q)"
        )
    z = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    return ComplexSignal(z)
