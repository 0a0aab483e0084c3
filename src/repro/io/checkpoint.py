"""Campaign checkpoint journal (JSON + per-chunk npz archives).

A chunked campaign (see :func:`repro.resilience.run_campaign`) records
every completed launch chunk so a crash, ``KeyboardInterrupt`` or
deadline does not force a full re-run. The journal is one JSON file::

    {
      "format_version": 2,
      "fingerprint": {...},          # identity of the campaign
      "chunks": {"0": {"file": "...", "quarantine": [...],
                       "launch": 0}, ...},
      "payloads": {"metrics-0": {...}, "start-0": {...}, ...}
    }

It is written compact (``json.dumps`` with sorted keys, no indent, so
the C encoder runs) in one write to a temporary file that is then
renamed over the journal.

Chunk trajectories live in sibling ``<stem>.chunk<index>.npz``
archives. This module owns their format: one uncompressed ``np.savez``
with three members, ``t``, ``y`` and ``counts``, the last stacking the
status, method, steps, accepted and rejected codes as one ``(5, rows)``
int64 array. No wall-clock time is stored (resume never reads it), so
identical campaigns leave identical bytes. The user-facing result
archive stays :func:`repro.io.save_result`. ``payloads`` carries small
free-form JSON entries (parameter-estimation restarts journal their
per-start optima there). The fingerprint is compared on open: resuming
a journal that belongs to a *different* campaign raises
:class:`~repro.errors.ResilienceError` instead of silently splicing
mismatched trajectories, and so does a journal of another format
version.

One engine launch may cover several consecutive chunks.
:meth:`CampaignCheckpoint.commit` journals such a launch atomically:
every chunk archive is written first, then the journal is rewritten
once with all of the launch's chunk entries and its ``metrics-<first>``
payload, keyed by the launch's first chunk. Each entry's ``launch``
names that key; journals without it (one launch per chunk) default to
the chunk's own index.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ResilienceError
from ..gpu.batch_result import BatchSolveResult
from ..telemetry.metrics import MetricsRegistry

_JOURNAL_VERSION = 2

#: Per-row integer fields of a result, in the order of the rows of a
#: chunk archive's ``counts`` member.
_COUNT_FIELDS = ("status_codes", "method_codes", "n_steps", "n_accepted",
                 "n_rejected")


def _write_chunk(path: Path, result: BatchSolveResult) -> None:
    """Atomically write one chunk archive (temp file, then rename)."""
    counts = np.stack([getattr(result, name) for name in _COUNT_FIELDS]
                      ).astype(np.int64, copy=False)
    temporary = path.with_name(path.name + ".tmp")
    try:
        with temporary.open("wb") as handle:
            np.savez(handle, t=result.t, y=result.y, counts=counts)
        os.replace(temporary, path)
    finally:
        if temporary.is_file():
            temporary.unlink()


def _read_chunk(path: Path) -> BatchSolveResult:
    with np.load(path, allow_pickle=False) as archive:
        t, y, counts = archive["t"], archive["y"], archive["counts"]
    if y.ndim != 3 or counts.shape != (len(_COUNT_FIELDS), y.shape[0]):
        raise ValueError(f"counts of shape {counts.shape} do not match "
                         f"trajectories of shape {y.shape}")
    return BatchSolveResult(t=t, y=y, **dict(zip(_COUNT_FIELDS, counts)))


@dataclass
class CampaignCheckpoint:
    """One campaign's resumable journal."""

    path: Path
    fingerprint: dict
    chunks: dict[int, dict] = field(default_factory=dict)
    payloads: dict[str, dict] = field(default_factory=dict)

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path,
             fingerprint: dict) -> "CampaignCheckpoint":
        """Load an existing journal (verifying identity) or create one."""
        path = Path(path)
        if path.is_file():
            try:
                with path.open("r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise ResilienceError(
                    f"cannot read campaign journal {path}: {error}") \
                    from None
            version = data.get("format_version")
            if version != _JOURNAL_VERSION:
                raise ResilienceError(
                    f"unsupported journal format version {version!r} "
                    f"in {path}")
            recorded = data.get("fingerprint", {})
            if recorded != fingerprint:
                raise ResilienceError(
                    f"journal {path} belongs to a different campaign: "
                    f"recorded fingerprint {recorded!r} does not match "
                    f"{fingerprint!r}")
            chunks = {int(k): v for k, v in data.get("chunks", {}).items()}
            return cls(path, fingerprint, chunks,
                       dict(data.get("payloads", {})))
        checkpoint = cls(path, fingerprint)
        checkpoint._write()
        return checkpoint

    def _write(self) -> None:
        """Atomic journal rewrite (write temp, rename over)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": _JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "chunks": {str(k): v for k, v in sorted(self.chunks.items())},
            "payloads": self.payloads,
        }
        temporary = self.path.with_suffix(self.path.suffix + ".tmp")
        temporary.write_text(json.dumps(payload, sort_keys=True),
                             encoding="utf-8")
        os.replace(temporary, self.path)

    # -- chunk results ---------------------------------------------------

    def chunk_file(self, index: int) -> Path:
        return self.path.parent / f"{self.path.stem}.chunk{index:05d}.npz"

    def has_chunk(self, index: int) -> bool:
        return index in self.chunks and self.chunk_file(index).is_file()

    def completed_indices(self) -> list[int]:
        return sorted(self.chunks)

    def launch_of(self, index: int) -> int:
        """First chunk of the launch that produced journaled chunk
        ``index``: the launch's metrics are payload ``metrics-<it>``."""
        return int(self.chunks[index].get("launch", index))

    def save_chunk(self, index: int, result: BatchSolveResult,
                   quarantine: list[dict] | None = None, *,
                   launch: int | None = None, write: bool = True) -> None:
        """Persist one completed chunk and journal it durably.

        ``launch`` is the first chunk of the launch that produced it
        (default: the chunk itself). With ``write=False`` the entry is
        only staged; the next journal rewrite makes it durable.
        """
        file = self.chunk_file(index)
        _write_chunk(file, result)
        self.chunks[index] = {"file": file.name,
                              "quarantine": quarantine or [],
                              "launch": index if launch is None
                              else int(launch)}
        if write:
            self._write()

    def commit(self, chunks: list[tuple[int, BatchSolveResult,
                                        list[dict]]],
               metrics: dict | None = None) -> None:
        """Journal one launch's chunks and its metrics in one rewrite.

        ``chunks`` are the launch's ``(index, result, quarantine)``
        slices; the launch is keyed by the first one. Every archive is
        written before the single journal rewrite, so a crash leaves
        either the whole launch journaled or none of it. If chunks
        outside this commit still cite an earlier launch under the same
        key (the first chunk was re-run after its archive was deleted),
        that launch's metrics are kept and this launch's added.
        """
        launch = chunks[0][0]
        key = f"metrics-{launch}"
        for position, (index, result, quarantine) in enumerate(chunks):
            self.save_chunk(index, result, quarantine, launch=launch,
                            write=metrics is None
                            and position == len(chunks) - 1)
        if metrics is None:
            return
        committed = {index for index, _, _ in chunks}
        previous = self.payloads.get(key)
        if previous is not None and any(
                self.launch_of(index) == launch
                for index in self.chunks if index not in committed):
            folded = MetricsRegistry.from_dict(previous)
            folded.merge(MetricsRegistry.from_dict(metrics))
            metrics = folded.to_dict()
        self.set_payload(key, metrics)

    def load_chunk(self, index: int) -> tuple[BatchSolveResult, list[dict]]:
        """Reload a completed chunk's result and quarantine entries.

        A corrupt or truncated chunk archive raises
        :class:`~repro.errors.ResilienceError` naming the file: delete
        it (the journal entry is then ignored by :meth:`has_chunk`) and
        re-run the campaign to re-execute just that chunk.
        """
        if index not in self.chunks:
            raise ResilienceError(
                f"journal {self.path} has no chunk {index}")
        file = self.chunk_file(index)
        try:
            result = _read_chunk(file)
        except (OSError, EOFError, KeyError, ValueError,
                zipfile.BadZipFile) as error:
            raise ResilienceError(
                f"chunk archive {file} is corrupt or truncated "
                f"({error}); delete {file.name} and re-run the campaign "
                f"to re-execute chunk {index}") from None
        return result, list(self.chunks[index].get("quarantine", []))

    # -- free-form payloads ---------------------------------------------

    def set_payload(self, key: str, value: dict) -> None:
        self.payloads[key] = value
        self._write()

    def get_payload(self, key: str) -> dict | None:
        return self.payloads.get(key)

    # -- cleanup ---------------------------------------------------------

    def cleanup(self) -> None:
        """Delete the journal and every chunk archive it references."""
        for index in list(self.chunks):
            file = self.chunk_file(index)
            if file.is_file():
                file.unlink()
        if self.path.is_file():
            self.path.unlink()
        self.chunks.clear()
        self.payloads.clear()
