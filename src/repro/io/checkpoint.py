"""Campaign checkpoint journal (JSON + per-chunk npz archives).

A chunked campaign (see :func:`repro.resilience.run_campaign`) records
every completed launch chunk so a crash, ``KeyboardInterrupt`` or
deadline does not force a full re-run. The journal is one JSON file::

    {
      "format_version": 1,
      "fingerprint": {...},          # identity of the campaign
      "chunks": {"0": {"file": "...", "quarantine": [...],
                       "launch": 0}, ...},
      "payloads": {"metrics-0": {...}, "start-0": {...}, ...}
    }

Chunk trajectories live in sibling ``<stem>.chunk<index>.npz`` archives
(the :mod:`repro.io.results` format); ``payloads`` carries small
free-form JSON entries (parameter-estimation restarts journal their
per-start optima there). The fingerprint is compared on open: resuming
a journal that belongs to a *different* campaign raises
:class:`~repro.errors.ResilienceError` instead of silently splicing
mismatched trajectories.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import FormatError, ResilienceError
from ..gpu.batch_result import BatchSolveResult
from ..telemetry.metrics import MetricsRegistry
from .results import load_result, save_result

_JOURNAL_VERSION = 1


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
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
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
        only staged; the next journal rewrite makes it durable. The
        archive stores no wall-clock time (resume never reads it), so
        identical runs leave identical bytes.
        """
        file = save_result(self.chunk_file(index),
                           replace(result, elapsed_seconds=0.0))
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
            result, _ = load_result(file)
        except (FormatError, OSError, EOFError,
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
