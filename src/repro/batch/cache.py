"""Content-addressed on-disk cache for rendered schedule images.

A cache entry is keyed by the SHA-256 of everything that determines the
output bytes: the *canonical* schedule content
(:func:`repro.serve.protocol.canonical_schedule_bytes`, so XML/JSON/CSV
encodings of the same schedule share entries), the render options
fingerprint of the :class:`~repro.render.api.RenderRequest` (style,
layout, LOD, colormap, filters), and the output format.  Regenerating the paper's figure set
therefore re-renders only schedules whose content or styling actually
changed — the rest is a file copy.

Entries are immutable blobs under ``root/ab/<key>``; writes go through a
temp file + :func:`os.replace`, so concurrent batch workers racing on the
same key at worst both render and one atomic rename wins.

Hashing the schedule content requires *parsing* the input, which on a warm
run would dominate the file copy that serves the hit.  The cache therefore
keeps a second, stat-based index under ``root/stat/``: (realpath, size,
mtime_ns) -> schedule digest.  An input whose stat triple is unchanged
skips the parse entirely; touching or rewriting the file invalidates the
stat entry, falling back to the content hash (make-style staleness — a
byte-identical rewrite merely re-derives the same digest).
"""

from __future__ import annotations

import hashlib
import json
import os
import string
import tempfile
import time
from pathlib import Path

from repro.core.model import Schedule

__all__ = ["CACHE_SCHEMA", "RenderCache", "schedule_digest", "cache_key",
           "cache_key_from_digest"]

#: Bump to invalidate every existing cache entry (layout/encoder changes
#: that alter output bytes without changing any request field).
CACHE_SCHEMA = 1


def schedule_digest(schedule: Schedule) -> str:
    """SHA-256 of :func:`repro.serve.protocol.canonical_schedule_bytes`,
    so load order, file format and whitespace do not matter."""
    from repro.serve.protocol import canonical_schedule_bytes

    return hashlib.sha256(canonical_schedule_bytes(schedule)).hexdigest()


def cache_key_from_digest(digest: str, request) -> str:
    """Cache key from an already-known schedule digest plus the request."""
    token = {
        "schema": CACHE_SCHEMA,
        "schedule": digest,
        "options": request.fingerprint(),
    }
    payload = json.dumps(token, sort_keys=True, separators=(",", ":"),
                         default=repr).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def cache_key(schedule: Schedule, request) -> str:
    """Cache key of one (schedule, request) render job."""
    return cache_key_from_digest(schedule_digest(schedule), request)


def _valid_digest(text: str) -> bool:
    """True for a plausible SHA-256 hex digest (torn entries fail this)."""
    return len(text) == 64 and all(c in string.hexdigits for c in text)


def stat_token(path: str | Path) -> str | None:
    """Identity of an input file as it sits on disk, or None if unstatable."""
    try:
        path = Path(path).resolve()
        st = path.stat()
    except OSError:
        return None
    payload = f"{path}\x00{st.st_size}\x00{st.st_mtime_ns}".encode()
    return hashlib.sha256(payload).hexdigest()


class RenderCache:
    """A directory of content-addressed rendered blobs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / key

    def get(self, key: str) -> bytes | None:
        """The cached bytes for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, key: str, data: bytes) -> Path:
        """Store ``data`` under ``key`` atomically; returns the blob path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ----------------------------------------------- stat -> digest index
    def digest_hint(self, input_path: str | Path) -> str | None:
        """Remembered schedule digest for an unchanged input file.

        Returns ``None`` when the file's (path, size, mtime) triple has no
        entry — i.e. the input is new or was touched since
        :meth:`remember_digest` recorded it.

        The index may be shared by a batch run and a resident render
        service racing on the same directory, so a read that surfaces a
        torn or junk entry (a non-atomic writer, a crashed one, bit rot)
        is retried once and then treated as a plain miss; the bad entry
        is unlinked so the next :meth:`remember_digest` rewrites it.
        """
        token = stat_token(input_path)
        if token is None:
            return None
        entry = self.root / "stat" / token[:2] / token
        for attempt in range(2):
            try:
                digest = entry.read_text("ascii").strip()
            except (OSError, UnicodeDecodeError):
                return None
            if _valid_digest(digest):
                return digest
            if attempt == 0:  # maybe mid-replace: give the writer a beat
                time.sleep(0.01)
        try:
            entry.unlink()
        except OSError:
            pass
        return None

    def remember_digest(self, input_path: str | Path, digest: str, *,
                        token: str | None = None) -> None:
        """Record the content digest of an input file.

        Pass the ``token`` captured by :func:`stat_token` *before* parsing
        the file: if the file is rewritten while it is being parsed, the
        pre-parse token no longer matches the on-disk file, so the entry
        written here simply becomes unreachable instead of wrong.
        """
        if token is None:
            token = stat_token(input_path)
        if token is None:
            return
        path = self.root / "stat" / token[:2] / token
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(digest)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def sweep_tmp(self, *, max_age_s: float = 3600.0) -> int:
        """Remove temp litter left behind by writers that crashed mid-write.

        A crash between ``mkstemp`` and ``os.replace`` leaks a ``.tmp-*``
        file; entries themselves are never torn (the replace is atomic),
        so the litter is the only residue.  Young temp files may belong
        to a live writer and are left alone.  Returns files removed.
        """
        removed = 0
        cutoff = time.time() - max_age_s
        roots = list(self._shards())
        stat_root = self.root / "stat"
        if stat_root.is_dir():
            roots.extend(d for d in stat_root.iterdir() if d.is_dir())
        for shard in roots:
            for tmp in shard.glob(".tmp-*"):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        removed += 1
                except OSError:
                    pass
        return removed

    def _shards(self):
        if not self.root.is_dir():
            return
        for shard in self.root.iterdir():
            if shard.is_dir() and shard.name != "stat":
                yield shard

    def __len__(self) -> int:
        """Number of stored blobs (the stat index does not count)."""
        return sum(1 for shard in self._shards()
                   for blob in shard.iterdir()
                   if blob.is_file() and not blob.name.startswith("."))

    def clear(self) -> int:
        """Delete every blob (and the stat index); returns blobs removed."""
        import shutil

        removed = 0
        for shard in list(self._shards()):
            for blob in list(shard.iterdir()):
                try:
                    blob.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                shard.rmdir()
            except OSError:
                pass
        shutil.rmtree(self.root / "stat", ignore_errors=True)
        return removed
