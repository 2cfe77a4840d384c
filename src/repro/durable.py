"""The one codec behind every durable record log.

Four files share one line format: the fleet's write-ahead journal
(``regraph-fleet-journal/v1``), its result store
(``regraph-fleet-store/v2``), the serving gateway's job store
(``regraph-jobstore/v2``) and its traffic bundle
(``regraph-traffic/v1``).  This module owns every step of that format,
so the four stay byte-compatible and crash-consistent together:

* **the line codec** — one record per line: the canonical JSON
  (``sort_keys``, no whitespace) of the record's fields plus ``"crc"``,
  the CRC32 of those fields' canonical JSON as 8 hex digits;
* **the verified scan** (:func:`read_log`) — intact records, the
  :class:`CorruptRecord` lines, whether the damage reaches end-of-file
  (``torn_tail``) and the byte offset just past the last intact record;
* **the append handle** (:class:`SequencedLog`) — one write, one flush
  and (by default) one fsync per record, under a monotone sequence
  number.  Opening an existing file drops an *unterminated* final
  fragment first: those bytes already fail verification, and a record
  appended behind them would be glued onto the fragment and lost;
* **repair** (:func:`repair`) — truncate a torn tail, extract every
  damaged line into one ``regraph-fleet-quarantine/v1`` bundle;
* **atomic replacement** (:func:`atomic_write`) — stage, fsync,
  :func:`os.replace`;
* **storage fault injection** (:func:`apply_storage_fault`) — damage
  any of the four files the way real storage does.

One record shape exists: the sequenced :class:`Record` ``{seq, type,
payload}``; each log names its own type vocabulary.  See
``docs/DURABILITY.md``.
"""

from __future__ import annotations

import json
import os
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import UserInputError
from repro.utils.wire import Wire

#: Quarantine-bundle schema (damaged lines extracted during repair).
QUARANTINE_SCHEMA = "regraph-fleet-quarantine/v1"

#: Raw line content kept per corrupt record, so bundles stay small.
_RAW_LIMIT = 256


def _canonical(fields: dict) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def _crc(fields: dict) -> str:
    return format(zlib.crc32(_canonical(fields).encode()) & 0xFFFFFFFF, "08x")


def _encode(fields: dict) -> str:
    """The on-disk line for ``fields``: canonical JSON plus its CRC."""
    return _canonical({**fields, "crc": _crc(fields)}) + "\n"


class _Damaged(ValueError):
    """A complete line that fails verification (the reason is the arg)."""


@dataclass(frozen=True)
class Record:
    """One intact, checksum-verified record."""

    seq: int
    type: str
    payload: dict

    def line(self) -> str:
        """The on-disk JSONL encoding (checksum included)."""
        return _encode(
            {"seq": self.seq, "type": self.type, "payload": self.payload}
        )

    @staticmethod
    def decode(fields: dict) -> "Record":
        seq = int(fields["seq"])
        rtype = str(fields["type"])
        payload = fields["payload"]
        if not isinstance(payload, dict):
            raise _Damaged("payload is not an object")
        return Record(seq, rtype, payload)


@dataclass(frozen=True)
class CorruptRecord(Wire):
    """One line that failed parsing, checksum, or sequence checks."""

    line_number: int
    reason: str
    #: Raw line content, truncated so a quarantine bundle stays small.
    raw: str


@dataclass
class ScanResult:
    """Outcome of scanning one record log."""

    records: List[Record] = field(default_factory=list)
    corrupt: List[CorruptRecord] = field(default_factory=list)
    #: True when the damage is confined to the file's tail (torn write /
    #: partial fsync): everything after the last intact record.
    torn_tail: bool = False
    #: Byte offset just past the last intact record (truncation point).
    intact_bytes: int = 0
    #: Byte offset just past the last newline; smaller than the file
    #: size exactly when the file ends in an unterminated fragment.
    terminated_bytes: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt


def _verify(line: str) -> Record:
    """-> the decoded record; raises :class:`_Damaged` with the reason."""
    try:
        data = json.loads(line)
    except ValueError:
        raise _Damaged("unparseable JSON") from None
    if not isinstance(data, dict):
        raise _Damaged("record is not an object")
    try:
        crc = str(data.pop("crc"))
        record = Record.decode(data)
    except _Damaged:
        raise
    except (KeyError, TypeError, ValueError):
        raise _Damaged("missing record fields") from None
    if crc != _crc(data):
        raise _Damaged(f"checksum mismatch (stored {crc})")
    return record


def read_log(path: Union[str, Path]) -> ScanResult:
    """Scan ``path``, verifying every line; never modifies the file.

    Sequence numbers must not regress: a record whose ``seq`` is below
    its predecessor's successor is corrupt.  Damage that extends to
    end-of-file is flagged as a ``torn_tail`` (repair may truncate it;
    mid-file damage can only be quarantined, since later intact records
    must be preserved).
    """
    result = ScanResult()
    expected_seq = 0
    offset = 0
    tail_damaged = False
    with open(path, "rb") as fh:
        for number, blob in enumerate(fh):
            line = blob.decode("utf-8", errors="replace").rstrip("\n")
            offset += len(blob)
            try:
                if not blob.endswith(b"\n"):
                    raise _Damaged("unterminated final record")
                result.terminated_bytes = offset
                record = _verify(line)
                if record.seq < expected_seq:
                    raise _Damaged(
                        f"sequence regression ({record.seq} < {expected_seq})"
                    )
            except _Damaged as exc:
                result.corrupt.append(
                    CorruptRecord(number, str(exc), line[:_RAW_LIMIT])
                )
                tail_damaged = True
                continue
            expected_seq = record.seq + 1
            result.records.append(record)
            result.intact_bytes = offset
            tail_damaged = False
    result.torn_tail = tail_damaged
    return result


# ----------------------------------------------------------------------
# The append handle
# ----------------------------------------------------------------------
class SequencedLog:
    """Append-side handle over one record log: monotone sequence
    numbers and a record-type vocabulary.

    Each record is written, flushed and (with ``fsync``, the WAL
    contract) fsync'd before :meth:`append` returns.  Opening an
    existing file scans it once, hands the scan to :meth:`_load` (which
    may refuse the file, leaving it untouched), continues the sequence
    after the last intact record — which is how one file spans every
    restart of the same run — and truncates an unterminated final
    fragment, so the next record starts on a line of its own; complete
    corrupt lines stay in place as evidence.
    """

    #: Record types this log accepts, and its name in error messages.
    RECORD_TYPES: Tuple[str, ...] = ()
    NOUN = "record"

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        self.path = Path(path)
        self.fsync = bool(fsync)
        #: True when the file held bytes before this handle opened it.
        self.reopened = self.path.exists() and self.path.stat().st_size > 0
        scan = ScanResult()
        if self.reopened:
            scan = read_log(self.path)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load(scan)
        if self.reopened:
            self._drop_fragment(scan.terminated_bytes)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _load(self, scan: ScanResult) -> None:
        """Take in what the file held at open (empty for a new file)."""
        self._next_seq = scan.records[-1].seq + 1 if scan.records else 0

    def _drop_fragment(self, end: int) -> None:
        if end < self.path.stat().st_size:
            with open(self.path, "rb+") as fh:
                fh.truncate(end)
                if self.fsync:
                    os.fsync(fh.fileno())

    def append(self, rtype: str, payload: dict) -> int:
        """Durably append one record; returns its sequence number."""
        if rtype not in self.RECORD_TYPES:
            raise UserInputError(
                f"unknown {self.NOUN} record type {rtype!r}; "
                f"expected one of {self.RECORD_TYPES}"
            )
        seq = self._next_seq
        self.write(Record(seq, rtype, payload))
        self._next_seq = seq + 1
        return seq

    def write(self, record: Record) -> None:
        """Write, flush and (with ``fsync``) fsync one record line."""
        self._fh.write(record.line())
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Atomic replacement, repair and the quarantine bundle
# ----------------------------------------------------------------------
def atomic_write(
    path: Union[str, Path], write_fn: Callable[[object], None]
) -> Path:
    """Replace ``path`` with what ``write_fn(fh)`` writes, atomically.

    The text is staged to a sibling, fsync'd and moved into place with
    :func:`os.replace`, so a crash leaves either the old file or the
    new one, never a torn mix.  The staging name carries the pid *and*
    a random suffix: pids recycle under a worker pool, and one process
    may host several concurrent writers.  A failed write unlinks its
    staging file.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


@dataclass
class RepairReport(Wire):
    """What :func:`repair` did to a damaged file."""

    truncated_bytes: int = 0
    quarantined: int = 0
    quarantine_path: str = ""


def _write_quarantine_bundle(
    path: Union[str, Path],
    corrupt: List[CorruptRecord],
    quarantine_dir: Union[str, Path],
    torn_tail: bool,
) -> str:
    """Extract corrupt records into a ``regraph-fleet-quarantine/v1``
    bundle; it is evidence, not state, so it never blocks recovery."""
    path = Path(path)
    quarantine_dir = Path(quarantine_dir)
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    bundle = {
        "schema": QUARANTINE_SCHEMA,
        "journal": str(path),
        "torn_tail": torn_tail,
        "corrupt_records": [c.to_dict() for c in corrupt],
    }

    def dump(fh) -> None:
        json.dump(bundle, fh, indent=2)
        fh.write("\n")

    final = quarantine_dir / f"{path.name}.quarantine.json"
    return str(atomic_write(final, dump))


def repair(
    path: Union[str, Path],
    scan: ScanResult,
    quarantine_dir: Optional[Union[str, Path]] = None,
) -> RepairReport:
    """Make ``path`` (already scanned into ``scan``) appendable and
    replayable again: quarantine every damaged line and truncate a
    torn tail.  Corruption never raises here."""
    path = Path(path)
    report = RepairReport()
    if not scan.corrupt:
        return report
    if quarantine_dir is not None:
        report.quarantine_path = _write_quarantine_bundle(
            path, scan.corrupt, quarantine_dir, scan.torn_tail
        )
    report.quarantined = len(scan.corrupt)
    if scan.torn_tail:
        size = path.stat().st_size
        if scan.intact_bytes < size:
            # Safe by construction: every byte past intact_bytes failed
            # verification.
            with open(path, "rb+") as fh:
                fh.truncate(scan.intact_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            report.truncated_bytes = size - scan.intact_bytes
    return report


# ----------------------------------------------------------------------
# Storage-level fault injection (chaos kill-restart / serve-kill cells)
# ----------------------------------------------------------------------
def apply_storage_fault(path: Union[str, Path], fault) -> str:
    """Damage a journal, store or traffic file the way real storage does.

    ``fault`` is a :class:`~repro.faults.plan.StorageFault`.  Returns a
    human-readable description of what was done (chaos cell logs).

    * ``torn-write`` — the final record was half-written when the
      process died: keep ~60% of its bytes, no trailing newline.
    * ``partial-fsync`` — the tail page never hit the platter: the last
      record vanishes entirely *and* the one before it is cut mid-line.
    * ``bit-flip`` — one bit of record ``fault.record`` (negative counts
      from the end) flips at rest; the record's checksum must catch it.
    """
    path = Path(path)
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    if not lines:
        return "no-op: file is empty"
    kind = fault.kind
    if kind == "torn-write":
        last = lines[-1]
        keep = max(len(last) * 3 // 5, 1)
        damaged = b"".join(lines[:-1]) + last[:keep]
        path.write_bytes(damaged)
        return (
            f"torn write: final record cut to {keep}/{len(last)} bytes"
        )
    if kind == "partial-fsync":
        if len(lines) == 1:
            path.write_bytes(lines[0][: max(len(lines[0]) // 2, 1)])
            return "partial fsync: sole record cut in half"
        prev = lines[-2]
        keep = max(len(prev) // 2, 1)
        damaged = b"".join(lines[:-2]) + prev[:keep]
        path.write_bytes(damaged)
        return (
            "partial fsync: final record lost, previous cut to "
            f"{keep}/{len(prev)} bytes"
        )
    if kind == "bit-flip":
        index = fault.record if fault.record >= 0 else len(lines) + fault.record
        index = min(max(index, 0), len(lines) - 1)
        target = bytearray(lines[index])
        # Flip a bit inside the payload region (past the '{'), never the
        # newline, so the line still parses as *a* line.
        pos = min(len(target) // 2, len(target) - 2)
        target[pos] ^= 0x10
        lines[index] = bytes(target)
        path.write_bytes(b"".join(lines))
        return f"bit-flip: record {index} byte {pos} flipped at rest"
    raise UserInputError(
        f"unknown storage fault kind {kind!r}"
    )
