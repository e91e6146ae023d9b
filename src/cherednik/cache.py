"""Append-only JSON-lines result cache for kernel/series runs.

One RunRecord per line.  The key is (p, n, t, c_mode, format_version).
FORMAT_VERSION is bumped whenever an engine change alters an answer; the
bump invalidates old lines (they are simply never matched).
Records are stored exactly as serialized, so a cache hit returns the
byte-identical series for an identical key.  Timestamps and wall times live
in a separate "timing" field that comparisons are expected to strip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import FORMAT_VERSION, __version__

CACHE_ENV = "CHEREDNIK_CACHE_DIR"


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cherednik"


@dataclass
class RunRecord:
    key: dict
    status: str = "ok"
    series: dict | None = None
    dims: dict = field(default_factory=dict)
    conjecture: dict = field(default_factory=dict)
    shape_check: dict | None = None
    baby_verma_bound_ok: bool | None = None
    notes: list = field(default_factory=list)
    engine_version: str = __version__
    timing: dict = field(default_factory=dict)

    @staticmethod
    def make_key(p: int, n: int, t: int, c_mode: str) -> dict:
        return {
            "p": p,
            "n": n,
            "t": t,
            "c_mode": c_mode,
            "format_version": FORMAT_VERSION,
        }

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(d: dict) -> "RunRecord":
        """The record a stored line holds; a line with no engine_version reads "unknown"."""
        names = {f.name for f in fields(RunRecord)}
        return RunRecord(**{"engine_version": "unknown", **{k: v for k, v in d.items() if k in names}})


class RunCache:
    """JSON-lines store; writes are append-only through this single object."""

    def __init__(self, directory: Path | str | None = None):
        self.dir = cache_dir(None if directory is None else str(directory))
        self.path = self.dir / "runs.jsonl"

    def lookup(self, key: dict) -> RunRecord | None:
        if not self.path.exists():
            return None
        hit = None
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except json.JSONDecodeError:
                    continue  # tolerate a torn write; never trust it
                if d.get("key") == key:
                    hit = d
        return RunRecord.from_json(hit) if hit else None

    def store(self, record: RunRecord) -> None:
        """Append one line with a single write; a torn last line is closed first."""
        self.dir.mkdir(parents=True, exist_ok=True)
        line = (json.dumps(record.to_json(), sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line
            os.write(fd, line)
        finally:
            os.close(fd)
