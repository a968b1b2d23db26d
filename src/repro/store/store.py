"""The materialized summary store: content-addressed sqlite persistence.

One sqlite file holds every profile trace, priced machine time, CCR/
runtime estimate, partition assignment and run summary the process would
otherwise recompute from scratch on restart — the datacube-explorer
summary-store idiom (``cubedash-gen --init --all``) applied to the
paper's proxy-profiling pipeline.

Layout (``SCHEMA_VERSION`` = 1):

* ``store_meta(key, value)`` — schema version and provenance;
* ``summaries(namespace, key_sha, key_text, payload, payload_sha)`` —
  one row per cached value.  ``key_sha`` is the sha256 of the canonical
  key text (the ``repr`` of the kernel cache key, which already embeds
  the graph's sha256 content fingerprint plus the cluster /
  strategy / seed components); ``payload_sha`` is the sha256 of the
  payload bytes, verified on every read;
* ``quarantine(namespace, key_sha, reason)`` — rows that failed
  verification.  A corrupt row is quarantined and reported as a miss, so
  the caller recomputes; it is never served.

Durability contract:

* **Atomic creation** — :meth:`SummaryStore.create` builds the database
  in a temporary sibling file and ``os.replace``\\ s it into place, so a
  crashed init never leaves a half-written store behind;
* **Transactional writes** — every put runs in its own ``BEGIN
  IMMEDIATE`` transaction (or, inside :meth:`SummaryStore.batch`, shares
  one with the block's other puts) with a bounded busy timeout; a lock
  held past the timeout is retried a bounded number of times with seeded
  full-jitter backoff (deterministic given ``retry_seed``) and only
  then raises :class:`~repro.errors.StoreLockedError` (typed, exit 2
  at the CLI) instead of blocking forever, so concurrent writers
  serialize rather than corrupt;
* **Typed failure** — an unreadable file raises
  :class:`~repro.errors.StoreCorruptError`, a version mismatch
  :class:`~repro.errors.StoreSchemaError`.  Silent degradation is
  reserved for the recoverable case: a row whose payload hash does not
  match, or whose verified payload does not decode, is quarantined and
  recomputed.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import (
    StoreCorruptError,
    StoreError,
    StoreLockedError,
    StoreSchemaError,
)
from repro.faults.checkpoint import RetryBudget, RetryPolicy
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.store.codecs import PayloadCodec

__all__ = ["SCHEMA_VERSION", "SummaryStore"]

#: Bump when the table layout or any payload encoding changes; stores
#: written by other versions are rejected with StoreSchemaError.
SCHEMA_VERSION = 1

#: sqlite file magic; anything else is not a store.
_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Milliseconds a writer waits on a locked store before failing typed.
_BUSY_TIMEOUT_MS = 5_000

#: Extra write attempts after the first one finds the store locked.
_RETRY_ATTEMPTS = 3

#: Full-jitter backoff base: retry ``n`` (1-based) sleeps uniform in
#: ``[0, _RETRY_BASE_S * 2**(n-1))`` seconds first.
_RETRY_BASE_S = 0.05

_SCHEMA = """
CREATE TABLE store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE summaries (
    namespace   TEXT NOT NULL,
    key_sha     TEXT NOT NULL,
    key_text    TEXT NOT NULL,
    payload     BLOB NOT NULL,
    payload_sha TEXT NOT NULL,
    PRIMARY KEY (namespace, key_sha)
) WITHOUT ROWID;
CREATE TABLE quarantine (
    namespace TEXT NOT NULL,
    key_sha   TEXT NOT NULL,
    reason    TEXT NOT NULL,
    PRIMARY KEY (namespace, key_sha)
) WITHOUT ROWID;
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def key_sha(key_text: str) -> str:
    """Content address of one canonical key text."""
    return _sha256(key_text.encode("utf-8"))


class SummaryStore:
    """One content-addressed sqlite summary store (see the module doc).

    Use :meth:`create` to initialise a new store atomically and
    :meth:`open` to validate and open an existing one; the constructor
    itself never touches the filesystem layout.
    """

    def __init__(
        self,
        path: str,
        conn: sqlite3.Connection,
        *,
        busy_timeout_ms: int = _BUSY_TIMEOUT_MS,
        retry_attempts: int = _RETRY_ATTEMPTS,
        retry_base_s: float = _RETRY_BASE_S,
        retry_seed: int = 0,
    ):
        if retry_attempts < 0:
            raise StoreError(
                f"retry_attempts must be non-negative, got {retry_attempts}"
            )
        self.path = path
        self._conn = conn
        self.busy_timeout_ms = busy_timeout_ms
        self.retry_attempts = retry_attempts
        self.retry_base_s = retry_base_s
        self._retry_policy = RetryPolicy(
            max_retries=retry_attempts,
            backoff_base_s=retry_base_s,
            full_jitter=True,
        )
        self._retry_rng = make_rng(retry_seed)
        #: Injection point so the held-lock tests can release the lock
        #: between attempts instead of actually sleeping.
        self._sleep: Callable[[float], None] = time.sleep
        #: Statements of the puts inside an open :meth:`batch`.
        self._batched: Optional[List[Tuple[str, Tuple[Any, ...]]]] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, path: str, **open_kwargs: Any) -> "SummaryStore":
        """Atomically initialise a new store at ``path`` and open it.

        The database is built in a temporary sibling and renamed into
        place, so a crash mid-init cannot leave a truncated store.
        Creating over an existing *valid* store is idempotent (the
        existing store is opened unchanged); creating over a corrupt or
        stale file raises the corresponding typed error.  Keyword
        arguments are forwarded to :meth:`open`.
        """
        if os.path.exists(path):
            return cls.open(path, **open_kwargs)
        tmp = f"{path}.init-tmp-{os.getpid()}"
        try:
            conn = sqlite3.connect(tmp, isolation_level=None)
            try:
                conn.executescript(_SCHEMA)
                # This INSERT seeds the schema-version row on the .init-tmp
                # file *before* os.replace publishes it: no reader or writer
                # can hold the path yet, so there is nothing to serialize
                # against and _write's BEGIN IMMEDIATE would add nothing.
                conn.execute(  # repro: allow[STORE002]
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                conn.execute("PRAGMA journal_mode=DELETE")
            finally:
                conn.close()
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return cls.open(path, **open_kwargs)

    @classmethod
    def open(
        cls,
        path: str,
        *,
        busy_timeout_ms: int = _BUSY_TIMEOUT_MS,
        retry_attempts: int = _RETRY_ATTEMPTS,
        retry_base_s: float = _RETRY_BASE_S,
        retry_seed: int = 0,
    ) -> "SummaryStore":
        """Open and validate an existing store, or raise typed errors.

        ``busy_timeout_ms`` bounds how long sqlite blocks on a held
        write lock before one attempt fails; ``retry_attempts`` /
        ``retry_base_s`` / ``retry_seed`` shape the seeded full-jitter
        retry loop that wraps every write transaction (see
        :meth:`_write`).  The defaults suit real contention; tests dial
        them down so a held lock fails in milliseconds.
        """
        if not os.path.exists(path):
            raise StoreError(
                f"no summary store at {path!r} (initialise one with "
                f"`repro gen --store {path} --init`)"
            )
        with open(path, "rb") as fh:
            magic = fh.read(len(_SQLITE_MAGIC))
        if magic != _SQLITE_MAGIC:
            raise StoreCorruptError(
                f"{path!r} is not a summary store (bad sqlite header); "
                f"refusing to read it"
            )
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        try:
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise StoreCorruptError(
                f"{path!r} is unreadable ({exc}); the store file is "
                f"corrupt — regenerate it with `repro gen --init --all`"
            ) from exc
        if row is None:
            conn.close()
            raise StoreCorruptError(
                f"{path!r} has no schema_version row; not a summary store"
            )
        version = int(row[0])
        if version != SCHEMA_VERSION:
            conn.close()
            raise StoreSchemaError(
                f"{path!r} has schema version {version}, this library "
                f"expects {SCHEMA_VERSION}; regenerate the store with "
                f"`repro gen --init --all`"
            )
        return cls(
            path,
            conn,
            busy_timeout_ms=busy_timeout_ms,
            retry_attempts=retry_attempts,
            retry_base_s=retry_base_s,
            retry_seed=retry_seed,
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SummaryStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def get(self, namespace: str, key_text: str) -> Optional[bytes]:
        """Verified payload bytes for one key, or ``None``.

        A row whose payload fails its sha256 check is moved to the
        quarantine table and reported as a miss — the caller recomputes
        (and the recomputed put overwrites the bad row).  Bad rows are
        never served.
        """
        sha = key_sha(key_text)
        try:
            row = self._conn.execute(
                "SELECT payload, payload_sha FROM summaries "
                "WHERE namespace = ? AND key_sha = ?",
                (namespace, sha),
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(
                f"summary store {self.path!r} failed mid-read ({exc})"
            ) from exc
        if row is None:
            return None
        payload, recorded_sha = bytes(row[0]), str(row[1])
        if _sha256(payload) != recorded_sha:
            self._quarantine(
                namespace,
                sha,
                f"payload sha256 mismatch (recorded {recorded_sha[:12]}…)",
            )
            return None
        return payload

    def get_decoded(
        self, namespace: str, key_text: str, codec: "PayloadCodec"
    ) -> Optional[Any]:
        """Decoded value for one key, or ``None``.

        Like :meth:`get`, and a verified payload that ``codec`` cannot
        decode is quarantined and reported as a miss too: intact bytes
        from another encoding are as unusable as damaged ones.
        """
        payload = self.get(namespace, key_text)
        if payload is None:
            return None
        try:
            return codec.decode(payload)
        except ValueError as exc:
            self._quarantine(
                namespace,
                key_sha(key_text),
                f"undecodable {codec.name} payload ({exc})",
            )
            return None

    def put(self, namespace: str, key_text: str, payload: bytes) -> None:
        """Insert or overwrite one row, transactionally.

        Overwriting also clears any quarantine record for the key: a
        recomputed value supersedes the corrupt row it replaced.
        """
        sha = key_sha(key_text)
        statements = (
            (
                "INSERT OR REPLACE INTO summaries "
                "(namespace, key_sha, key_text, payload, payload_sha) "
                "VALUES (?, ?, ?, ?, ?)",
                (namespace, sha, key_text, payload, _sha256(payload)),
            ),
            (
                "DELETE FROM quarantine WHERE namespace = ? AND key_sha = ?",
                (namespace, sha),
            ),
        )
        if self._batched is not None:
            self._batched.extend(statements)
        else:
            self._write(statements)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Commit every :meth:`put` made inside as one transaction.

        The puts are held until the block exits, then written in one
        ``BEGIN IMMEDIATE`` transaction under one lock-retry budget (see
        :meth:`_write`).  If the block raises, or the write fails, none
        of them is stored.  Reads inside the block do not see them, and a
        nested ``batch`` joins the outer one.
        """
        if self._batched is not None:
            yield
            return
        batched: List[Tuple[str, Tuple[Any, ...]]] = []
        self._batched = batched
        try:
            yield
        finally:
            self._batched = None
        if batched:
            self._write(tuple(batched))

    def delete_namespace(self, namespace: str) -> int:
        """Drop every row in one namespace (``repro gen --refresh``)."""
        count = self.counts().get(namespace, 0)
        self._write(
            (
                ("DELETE FROM summaries WHERE namespace = ?", (namespace,)),
                ("DELETE FROM quarantine WHERE namespace = ?", (namespace,)),
            )
        )
        return count

    def quarantine(self, namespace: str, key_text: str, reason: str) -> None:
        """Quarantine one row a reader found unusable, present or not.

        For a check the store cannot make itself, such as a row that does
        not match the manifest naming it.  The row is deleted, and a row
        already quarantined keeps its first reason.
        """
        self._quarantine(namespace, key_sha(key_text), reason)

    def _quarantine(self, namespace: str, sha: str, reason: str) -> None:
        self._write(
            (
                (
                    "INSERT OR IGNORE INTO quarantine "
                    "(namespace, key_sha, reason) VALUES (?, ?, ?)",
                    (namespace, sha, reason),
                ),
                (
                    "DELETE FROM summaries "
                    "WHERE namespace = ? AND key_sha = ?",
                    (namespace, sha),
                ),
            )
        )

    def _write(
        self, statements: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    ) -> None:
        """Run statements in one IMMEDIATE transaction, typed on failure.

        A locked store is not immediately fatal: the transaction is
        retried up to ``retry_attempts`` more times through a
        :class:`~repro.faults.checkpoint.RetryBudget`, sleeping a
        full-jitter backoff before each retry — retry ``n`` (1-based)
        draws uniform from ``[0, retry_base_s * 2**(n-1))`` seconds off
        the store's seeded rng, so two contending writers de-synchronise
        yet every delay is reproducible given ``retry_seed``.  Only
        when the budget is exhausted does
        :class:`~repro.errors.StoreLockedError` propagate.
        """
        budget = RetryBudget(self._retry_policy, self._retry_rng)
        while True:
            try:
                self._write_once(statements)
                return
            except StoreLockedError as exc:
                retry = budget.restart()
                if budget.exhausted(retry):
                    raise StoreLockedError(
                        f"summary store {self.path!r} is still locked "
                        f"after {retry} attempt(s) (busy timeout "
                        f"{self.busy_timeout_ms} ms each, full-jitter "
                        f"backoff base {self.retry_base_s} s)"
                    ) from exc
                self._sleep(budget.pause(retry))

    def _write_once(
        self, statements: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    ) -> None:
        """One transaction attempt; raises typed on any failure."""
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for sql, params in statements:
                    self._conn.execute(sql, params)
                self._conn.execute("COMMIT")
            except BaseException:
                # sqlite may have rolled the whole transaction back
                # already (a busy page-cache spill, for one); a second
                # ROLLBACK would raise and hide the error that says why.
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise
        except sqlite3.OperationalError as exc:
            if "locked" in str(exc) or "busy" in str(exc):
                raise StoreLockedError(
                    f"summary store {self.path!r} is locked by another "
                    f"process (waited {self.busy_timeout_ms} ms)"
                ) from exc
            raise StoreCorruptError(
                f"summary store {self.path!r} failed mid-write ({exc})"
            ) from exc
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(
                f"summary store {self.path!r} failed mid-write ({exc})"
            ) from exc

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def counts(self) -> Dict[str, int]:
        """Row count per namespace, sorted by namespace."""
        rows = self._conn.execute(
            "SELECT namespace, COUNT(*) FROM summaries "
            "GROUP BY namespace ORDER BY namespace"
        ).fetchall()
        return {str(ns): int(n) for ns, n in rows}

    def quarantined(self) -> Dict[str, int]:
        """Quarantined-row count per namespace."""
        rows = self._conn.execute(
            "SELECT namespace, COUNT(*) FROM quarantine "
            "GROUP BY namespace ORDER BY namespace"
        ).fetchall()
        return {str(ns): int(n) for ns, n in rows}

    def stats(self) -> Dict[str, object]:
        """Schema version, per-namespace row counts and quarantine state."""
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "namespaces": self.counts(),
            "quarantined": self.quarantined(),
            "total_rows": sum(self.counts().values()),
        }

    def vacuum(self) -> int:
        """Drop quarantine records and compact the file.

        Returns the number of quarantine records dropped.  The bad
        summary rows themselves were already deleted at quarantine time.
        """
        dropped = sum(self.quarantined().values())
        self._write((("DELETE FROM quarantine", ()),))
        self._conn.execute("VACUUM")
        return dropped
