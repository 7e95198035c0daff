"""Binary state snapshots for exact resume.

Little-endian layout: magic b"BDNA", format version (u32), geometry tag
(u8: 0 sphere, 1 torus), truncation (u32), then t, nu, alpha, sigma and
the torus period length (0 on the sphere) as f64, payload length in
coefficients (u64), the coefficient block (f64: streamfunction
coefficients in slot order, then the harmonic pair on the torus), and
finally a CRC-32 (u32) over every byte before it, header included, so a
flipped bit in t, a model parameter or the period is caught.  Version 3
is the one format written and read; a file of any other version fails as
corrupt.

Snapshots are written atomically: a reader never sees a partial file.

The mismatch checks cover geometry kind, truncation, the model
parameters and the torus period.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import basis, operators as ops
from .atomic import replacing
from .errors import CorruptSnapshotError, SnapshotMismatchError

MAGIC = b"BDNA"
VERSION = 3
_PREFIX = struct.Struct("<4sI")
_HEADER = struct.Struct("<4sIBI5dQ")
_TRAILER = struct.Struct("<I")
_GEOMETRY_TAGS = {basis.SPHERE: 0, basis.TORUS: 1}
_GEOMETRY_KINDS = {tag: kind for kind, tag in _GEOMETRY_TAGS.items()}


@dataclass(frozen=True)
class Snapshot:
    """Decoded snapshot: header fields plus the coefficient arrays."""

    geometry_kind: str
    truncation: int
    t: float
    nu: float
    alpha: float
    sigma: float
    length: float
    psi: np.ndarray
    harmonic: np.ndarray


def save_snapshot(path, plan, state, t, params):
    """Write one state with its time and model parameters, atomically.

    The bytes go to a sibling file that replaces `path` only once complete
    (atomic.replacing), so `path` holds either its old content or the whole
    new snapshot, never a torn one, whatever interrupts the write.
    """
    payload = np.concatenate([state.psi, state.harmonic]).astype("<f8")
    body = payload.tobytes()
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _GEOMETRY_TAGS[plan.geometry.kind],
        plan.truncation,
        float(t),
        params.nu,
        params.alpha,
        params.sigma,
        plan.geometry.length,
        payload.size,
    )
    with replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.write(_TRAILER.pack(zlib.crc32(body, zlib.crc32(header))))


def load_snapshot(path):
    """Read and structurally validate one snapshot."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREFIX.size:
        raise CorruptSnapshotError(f"{path}: file shorter than the fixed header")
    magic, version = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptSnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptSnapshotError(f"{path}: unsupported format version {version}")
    if len(blob) < _HEADER.size + _TRAILER.size:
        raise CorruptSnapshotError(f"{path}: file shorter than the fixed header")
    _, _, tag, truncation, t, nu, alpha, sigma, length, count = _HEADER.unpack_from(blob)
    if tag not in _GEOMETRY_KINDS:
        raise CorruptSnapshotError(f"{path}: unknown geometry tag {tag}")
    kind = _GEOMETRY_KINDS[tag]
    n_modes, n_harmonic = basis.mode_count(kind, truncation)
    if count != n_modes + n_harmonic:
        raise CorruptSnapshotError(
            f"{path}: payload of {count} coefficients does not match "
            f"truncation {truncation}"
        )
    body_end = _HEADER.size + 8 * count
    if len(blob) != body_end + _TRAILER.size:
        raise CorruptSnapshotError(f"{path}: truncated or oversized payload")
    body = blob[_HEADER.size : body_end]
    (crc,) = _TRAILER.unpack_from(blob, body_end)
    if crc != zlib.crc32(blob[:body_end]):
        raise CorruptSnapshotError(f"{path}: checksum failure")
    coeffs = np.frombuffer(body, dtype="<f8").astype(float)
    return Snapshot(
        geometry_kind=kind,
        truncation=truncation,
        t=t,
        nu=nu,
        alpha=alpha,
        sigma=sigma,
        length=length,
        psi=coeffs[:n_modes],
        harmonic=coeffs[n_modes:],
    )


def check_snapshot(snap, plan, params=None):
    """Raise unless the snapshot belongs to this plan (and parameters)."""
    if snap.geometry_kind != plan.geometry.kind:
        raise SnapshotMismatchError(
            f"snapshot geometry {snap.geometry_kind} != plan {plan.geometry.kind}"
        )
    if snap.truncation != plan.truncation:
        raise SnapshotMismatchError(
            f"snapshot truncation {snap.truncation} != plan {plan.truncation}"
        )
    if snap.length != plan.geometry.length:
        raise SnapshotMismatchError(
            f"snapshot length={snap.length} != config length={plan.geometry.length}"
        )
    if params is not None:
        for name, have, want in (
            ("nu", snap.nu, params.nu),
            ("alpha", snap.alpha, params.alpha),
            ("sigma", snap.sigma, params.sigma),
        ):
            if have != want:
                raise SnapshotMismatchError(f"snapshot {name}={have} != config {name}={want}")


def as_state(snap):
    return ops.VelocityState(snap.psi.copy(), snap.harmonic.copy())
