"""Persistent columnar segments: atomic npz files behind a manifest.

A :class:`SegmentStore` is a directory of uncompressed ``.npz`` segment
files plus one ``MANIFEST.json`` describing them (name, kind, row
count, byte size, sha256, format version).  It follows the persistence
contract the rest of the repo already lives by (the lint cache's
corrupt-entry-is-a-miss convention):

* **writes are atomic** — a segment is serialised to a temp file in the
  same directory, fsynced, and renamed into place; the manifest is
  rewritten the same way, after the segment it describes.  A crash
  leaves either the old state or the new state, never a torn file that
  the manifest vouches for;
* **reads degrade, never error** — a missing file, a truncated or
  bit-flipped segment (checksum mismatch), an unreadable npz, or a
  format-version skew between manifest and segment all make
  :meth:`SegmentStore.read` return ``None`` and record the reason in
  :attr:`SegmentStore.degraded`.  Callers treat ``None`` as "this state
  never existed" and rebuild from the pipeline.

Segments are written by :func:`numpy.savez` *uncompressed*: a read
loads every column of a segment, and the whole file's checksum is
verified once per store session first (``docs/storage.md``).

Store activity is observable: ``store.write.segments`` /
``store.write.bytes`` / ``store.read.segments`` / ``store.read.bytes``
counters and a ``store.read.degraded`` counter feed the ``repro.obs``
registry when instrumentation is on.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs import runtime as obs

__all__ = [
    "MANIFEST_NAME",
    "STORE_FORMAT",
    "SegmentInfo",
    "SegmentStore",
]

MANIFEST_NAME = "MANIFEST.json"

#: on-disk format version, stamped in the manifest and in every
#: segment entry; a mismatch on either side degrades the read
STORE_FORMAT = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_CHUNK = 1 << 20


@dataclass(frozen=True)
class SegmentInfo:
    """One manifest entry: everything needed to trust a segment file."""

    name: str
    filename: str
    kind: str
    rows: int
    nbytes: int
    sha256: str
    format: int = STORE_FORMAT
    meta: Mapping[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "file": self.filename,
            "kind": self.kind,
            "rows": self.rows,
            "bytes": self.nbytes,
            "sha256": self.sha256,
            "format": self.format,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "SegmentInfo":
        meta = data.get("meta", {})
        return cls(
            name=str(data["name"]),
            filename=str(data["file"]),
            kind=str(data["kind"]),
            rows=int(data["rows"]),  # type: ignore[call-overload]
            nbytes=int(data["bytes"]),  # type: ignore[call-overload]
            sha256=str(data["sha256"]),
            format=int(data.get("format", -1)),  # type: ignore[call-overload]
            meta={str(k): str(v) for k, v in meta.items()}
            if isinstance(meta, dict) else {},
        )


def _sha256_file(path: Path) -> Tuple[str, int]:
    """(hex digest, byte size) of a file, streamed in chunks."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _atomic_replace(tmp: Path, final: Path) -> None:
    """fsync ``tmp`` and rename it over ``final`` (atomic on POSIX)."""
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, final)


class SegmentStore:
    """A directory of checksummed columnar segments plus a manifest.

    Opening a store never raises on bad state: an absent or unreadable
    manifest simply yields an empty store (with the reason recorded in
    :attr:`degraded`), matching the corrupt-state-degrades-to-rebuild
    contract.
    """

    def __init__(self, root: Union[str, Path], create: bool = False):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        self.meta: Dict[str, str] = {}
        #: integrity failures observed so far: (segment or "<manifest>",
        #: reason) pairs, in detection order
        self.degraded: List[Tuple[str, str]] = []
        self._segments: Dict[str, SegmentInfo] = {}
        #: segment names whose checksum already verified this session
        self._verified: Dict[str, bool] = {}
        self._load_manifest()

    # -- manifest -----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _degrade(self, name: str, reason: str) -> None:
        self.degraded.append((name, reason))
        if obs.enabled():
            obs.count("store.read.degraded")

    def _load_manifest(self) -> None:
        path = self.manifest_path
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._degrade("<manifest>", "manifest unreadable")
            return
        if not isinstance(payload, dict):
            self._degrade("<manifest>", "manifest malformed")
            return
        if payload.get("format") != STORE_FORMAT:
            self._degrade(
                "<manifest>",
                f"manifest format {payload.get('format')!r} != "
                f"{STORE_FORMAT}")
            return
        meta = payload.get("meta", {})
        if isinstance(meta, dict):
            self.meta = {str(k): str(v) for k, v in meta.items()}
        for entry in payload.get("segments", []):
            try:
                info = SegmentInfo.from_json(entry)
            except (KeyError, TypeError, ValueError):
                self._degrade("<manifest>", "segment entry malformed")
                continue
            self._segments[info.name] = info

    def _save_manifest(self) -> None:
        payload = {
            "format": STORE_FORMAT,
            "meta": dict(self.meta),
            "segments": [info.to_json()
                         for info in self._segments.values()],
        }
        tmp = self.manifest_path.with_name(
            MANIFEST_NAME + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n",
                       encoding="utf-8")
        _atomic_replace(tmp, self.manifest_path)

    def set_meta(self, values: Mapping[str, str]) -> None:
        """Merge store-level metadata and persist the manifest."""
        self.meta.update({str(k): str(v) for k, v in values.items()})
        self._save_manifest()

    # -- writes -------------------------------------------------------------

    def write(self, name: str, arrays: Mapping[str, np.ndarray],
              kind: str, rows: int,
              meta: Optional[Mapping[str, str]] = None) -> SegmentInfo:
        """Atomically persist one segment and its manifest entry.

        Overwrites any existing segment of the same name.  The manifest
        is rewritten *after* the segment file lands, so a crash between
        the two leaves the old manifest pointing at the old (or an
        orphaned new) file — never at a torn one.
        """
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid segment name {name!r}")
        filename = f"{name}.npz"
        final = self.root / filename
        tmp = self.root / f"{filename}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **dict(arrays))
            sha256, nbytes = _sha256_file(tmp)
            _atomic_replace(tmp, final)
        finally:
            if tmp.exists():
                tmp.unlink()
        info = SegmentInfo(
            name=name, filename=filename, kind=kind, rows=rows,
            nbytes=nbytes, sha256=sha256, format=STORE_FORMAT,
            meta={str(k): str(v) for k, v in (meta or {}).items()})
        self._segments[name] = info
        self._verified[name] = True
        self._save_manifest()
        if obs.enabled():
            obs.count("store.write.segments")
            obs.count("store.write.bytes", float(nbytes))
        return info

    def remove(self, name: str) -> None:
        """Forget a segment: its manifest entry first, committed like
        every manifest write, then its file.  A crash between the two
        leaves an orphan no manifest vouches for — no read sees it and
        the next ``write`` of that name overwrites it."""
        info = self._segments.pop(name, None)
        if info is None:
            return
        self._verified.pop(name, None)
        self._save_manifest()
        (self.root / info.filename).unlink(missing_ok=True)

    # -- reads --------------------------------------------------------------

    def segments(self) -> Tuple[SegmentInfo, ...]:
        """Manifest entries, in manifest (= write) order."""
        return tuple(self._segments.values())

    def info(self, name: str) -> Optional[SegmentInfo]:
        return self._segments.get(name)

    def _verify(self, info: SegmentInfo) -> bool:
        """Checksum + version gate; degrades (returns False) on failure."""
        if info.format != STORE_FORMAT:
            self._degrade(info.name,
                          f"segment format {info.format} != {STORE_FORMAT}")
            return False
        cached = self._verified.get(info.name)
        if cached is not None:
            return cached
        path = self.root / info.filename
        ok = False
        if not path.exists():
            self._degrade(info.name, "segment file missing")
        else:
            sha256, nbytes = _sha256_file(path)
            if nbytes != info.nbytes or sha256 != info.sha256:
                self._degrade(info.name, "checksum mismatch")
            else:
                ok = True
        self._verified[info.name] = ok
        return ok

    def read(self, name: str) -> Optional[Dict[str, np.ndarray]]:
        """Load a segment's columns, or ``None`` if it cannot be trusted.

        ``None`` covers every failure mode — never written, file
        missing, checksum mismatch, version skew, undecodable npz —
        because the caller's recovery is the same for all of them:
        rebuild the state from the pipeline.
        """
        info = self._segments.get(name)
        if info is None:
            return None
        if not self._verify(info):
            return None
        path = self.root / info.filename
        try:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {key: npz[key] for key in npz.files}
        except (OSError, ValueError, zipfile.BadZipFile, KeyError):
            self._degrade(name, "segment undecodable")
            self._verified[name] = False
            return None
        if obs.enabled():
            obs.count("store.read.segments")
            obs.count("store.read.bytes", float(info.nbytes))
        return arrays

    def total_bytes(self) -> int:
        """Sum of all manifest-recorded segment sizes."""
        return sum(info.nbytes for info in self._segments.values())

    def inspect(self) -> List[Tuple[SegmentInfo, str]]:
        """(info, status) per segment: ``"ok"`` or the degradation."""
        out: List[Tuple[SegmentInfo, str]] = []
        for info in self._segments.values():
            before = len(self.degraded)
            status = "ok" if self._verify(info) else self.degraded[-1][1] \
                if len(self.degraded) > before else "previously degraded"
            out.append((info, status))
        return out
