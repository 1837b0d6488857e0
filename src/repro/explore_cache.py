"""Content-addressed on-disk cache for design-space exploration results.

Evaluating one (model, architecture, strategy) point with the fast model
costs 0.3-5 s of pure Python at paper scale; the Fig. 5-7 sweeps evaluate
dozens of points and re-anchored benchmark runs repeat them verbatim.
This module gives every point a deterministic content address -- the
SHA-256 of its identifying material (model, input resolution, strategy,
closure limit, and the :func:`repro.config.arch_fingerprint` of the exact
architecture) -- and stores the resulting :class:`~repro.sim.report.
FastReport` as a small JSON file under that address.  A second sweep over
the same points is then served from disk in milliseconds.

The cache is safe to share between processes: files are written atomically
(temp file + ``os.replace``) and a corrupt or version-mismatched entry is
treated as a miss, never an error.

Write path.  A store encodes its entry with one-shot ``json.dumps`` (the
C encoder; ``json.dump`` to a file runs the pure-Python one, for the same
bytes) and writes it in one call.  It creates a shard directory only when
the write finds it missing, then retries once, so a directory another
process removed mid-run comes back.  The size cap is kept with a running
total: the first :meth:`ResultCache.gc` (after ``_GC_STORE_INTERVAL``
stores) scans the tree, every store then adds its own bytes, and a
store rescans and prunes again once the total passes the cap, or
unconditionally after ``_GC_RESCAN_INTERVAL`` stores -- a 600-point
populate scans the tree once.  Other processes' writes are counted at
the next rescan, so N concurrent writers overshoot the cap by at most
N x ``_GC_RESCAN_INTERVAL`` entries.

Layout::

    <root>/<first two hex chars>/<full 64-hex key>.json

Default location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/explore``.
"""

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.config import ArchConfig, arch_fingerprint
from repro.errors import ConfigError
from repro.sim.report import FastReport

logger = logging.getLogger(__name__)

#: Bump when the fast model's semantics change; invalidates old entries.
#: v2: multi-chip sharding -- keys carry the chip count and architecture
#: fingerprints include the inter-chip link block.
#: v3: batched streaming inference -- keys carry the batch size and
#: reports carry batch/steady-interval fields.
#: v4: continuous-arrival serving -- keys carry the arrival rate and
#: reports carry shard occupancies / latency-percentile fields.
#: v5: replicated serving fleets -- keys carry the replica count.
#: v6: fault-tolerant serving -- keys carry the fault-plan fingerprint
#: and reports carry dropped/retry counts.
#: v7: resident-weights serving sessions -- keys carry the resident
#: flag and reports carry the run-once load phase (``load_cycles``).
#: v8: resident rows follow the fleet's load law (per-replica load
#: offsets, latency from the real release, one load per replica that
#: serves), and one-chip rows carry their steady interval.
CACHE_SCHEMA_VERSION = 8

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the cache size in megabytes (least-
#: recently-used entries are pruned on write once the cap is exceeded).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Default size cap in megabytes when the variable is unset.
DEFAULT_CACHE_MAX_MB = 256

#: How many stores may elapse between garbage-collection checks.
_GC_STORE_INTERVAL = 32

#: Stores after which a store rescans the tree whatever its running
#: total says, so concurrent writers (each counting only its own bytes)
#: overshoot the cap by at most this many entries each.
_GC_RESCAN_INTERVAL = 1024


def cache_max_bytes() -> int:
    """Resolve the size cap (0 = unlimited) from the environment.

    Unset or empty means :data:`DEFAULT_CACHE_MAX_MB`; anything but a
    non-negative integer is a :class:`~repro.errors.ConfigError` naming
    the variable and its value.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV, "")
    if not raw:
        return DEFAULT_CACHE_MAX_MB * 1024 * 1024
    try:
        max_mb = int(raw)
    except ValueError:
        max_mb = -1
    if max_mb < 0:
        raise ConfigError(
            f"{CACHE_MAX_MB_ENV} must be a non-negative integer number of "
            f"megabytes (0 = unlimited), got {raw!r}"
        )
    return max_mb * 1024 * 1024


def default_cache_dir() -> Path:
    """Resolve the default cache root (env override, then XDG-style)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "explore"


def point_key(
    model: str,
    arch: Union[ArchConfig, str],
    strategy: str,
    input_size: int,
    num_classes: int,
    closure_limit: Optional[int] = None,
    chips: int = 1,
    batch: int = 1,
    arrival_rate: Optional[float] = None,
    replicas: int = 1,
    fault_fingerprint: Optional[str] = None,
    resident: bool = False,
    tier: str = "fast",
) -> str:
    """Content address (hex SHA-256) of one design point.

    Everything that can change the point's report participates in the
    key -- including the multi-chip shard count, the streaming batch
    size, the continuous-arrival rate, the fleet replica count, the
    fault-plan fingerprint, the resident-weights flag and the tier that
    priced it; the architecture contributes through its own content
    fingerprint so structurally identical :class:`ArchConfig` instances
    collide (which is exactly what we want).  ``arch`` may be that
    fingerprint itself (:func:`repro.config.arch_fingerprint`), for
    callers keying many points of one architecture.
    """
    if not isinstance(arch, str):
        arch = arch_fingerprint(arch)
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "model": model,
        "arch": arch,
        "strategy": strategy,
        "input_size": input_size,
        "num_classes": num_classes,
        "closure_limit": closure_limit,
        "chips": chips,
        "batch": batch,
        # An integral rate keys as the float it equals.
        "arrival_rate": None if arrival_rate is None else float(arrival_rate),
        "replicas": replicas,
        "faults": fault_fingerprint,
        "resident": resident,
    }
    # Only a cycle-tier point names its tier: a fast point keys exactly
    # as it did before the tier coordinate existed.
    if tier != "fast":
        material["tier"] = tier
    return hashlib.sha256(json.dumps(
        material, sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` in one call through a temp file in the
    same directory and ``os.replace``: readers see the old entry or the
    new one, never a torn write."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """On-disk result store addressed by :func:`point_key`.

    Tracks per-instance ``hits`` / ``misses`` counters so sweep drivers
    can report cache effectiveness (the CLI prints them after each sweep).
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Size cap in bytes; 0 disables pruning.  ``None`` defers to
        #: ``REPRO_CACHE_MAX_MB`` (default 256 MB).
        self.max_bytes = cache_max_bytes() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt_evictions = 0
        self._stores_since_gc = 0
        #: Running total of entry bytes: ``None`` until the first
        #: :meth:`gc` scan, then that scan's total plus every store since.
        self._size: Optional[int] = None

    # -- addressing ---------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read / write -------------------------------------------------------
    def lookup(self, key: str) -> Optional[FastReport]:
        """Return the cached report for ``key``, or ``None`` on a miss.

        Unreadable, corrupt, or schema-mismatched entries count as
        misses.  A corrupt entry (truncated write, bit flip, wrong
        shape) is additionally *evicted* so the recomputed result can be
        stored cleanly in its place -- the sweep recovers by recomputing
        one point instead of crashing or tripping over the same bad file
        forever.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cache payload is not an object")
            schema = payload.get("schema")
            report = FastReport.from_dict(payload["report"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            self._evict_corrupt(path, key, exc)
            self.misses += 1
            return None
        if schema != CACHE_SCHEMA_VERSION:
            # A well-formed entry from an older schema: stale, not
            # corrupt.  Count a miss; the recompute overwrites in place.
            self.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self.hits += 1
        return report

    def store(
        self,
        key: str,
        report: FastReport,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically persist ``report`` under ``key``.

        ``meta`` (model name, strategy, ...) is stored alongside purely for
        human inspection of cache files; it never participates in lookup.
        """
        path = self.path_for(key)
        # One-shot ``dumps`` runs the C encoder (``dump`` to a file runs
        # the pure-Python one); the bytes are the same.
        data = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "meta": meta or {},
            "report": report.to_dict(),
        }).encode()
        try:
            _write_atomic(path, data)
        except FileNotFoundError:
            # First store into this shard (or it vanished under us):
            # create it and retry once.
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, data)
        if self._size is not None:
            self._size += len(data)
        self._stores_since_gc += 1
        stores = self._stores_since_gc
        if self.max_bytes and (
            stores >= _GC_RESCAN_INTERVAL
            or stores >= _GC_STORE_INTERVAL
            and (self._size is None or self._size > self.max_bytes)
        ):
            self.gc()
        return path

    def _evict_corrupt(self, path: Path, key: str, exc: BaseException) -> None:
        """Remove an unparsable entry so the slot can be recomputed."""
        try:
            path.unlink()
        except OSError:
            return
        self.corrupt_evictions += 1
        logger.warning(
            "evicted corrupt cache entry %s (%s: %s); recomputing",
            key, type(exc).__name__, exc,
        )

    # -- maintenance --------------------------------------------------------
    def gc(self) -> int:
        """Prune least-recently-used entries down to ``max_bytes``.

        Scans the tree and resets the running size total to what it
        keeps (other processes' writes are counted here).  :meth:`store`
        calls it after a few stores -- the first time unconditionally,
        afterwards once the running total passes the cap or after
        ``_GC_RESCAN_INTERVAL`` stores without a scan (lookups
        refresh an entry's mtime, so recency tracks actual use).  Safe
        under concurrent writers: a racing unlink is treated as
        already-evicted.  Returns the number of entries removed.
        """
        self._stores_since_gc = 0
        if not self.max_bytes or not self.root.is_dir():
            return 0
        entries = []
        total = 0
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        self._size = total
        if total <= self.max_bytes:
            return 0
        removed = 0
        entries.sort()  # oldest mtime first
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                pass
            total -= size
            removed += 1
        self._size = total
        self.evictions += removed
        return removed

    def size_bytes(self) -> int:
        """Total size of all cache entries on disk.

        Tolerates concurrent GC/unlink races (a vanished entry counts 0).
        """
        if not self.root.is_dir():
            return 0
        total = 0
        for path in self.root.glob("??/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("??/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


# ---------------------------------------------------------------------------
# Sweep-level resume manifests
# ---------------------------------------------------------------------------

#: Bump when the manifest layout changes; mismatched journals are ignored.
MANIFEST_SCHEMA_VERSION = 1


def sweep_fingerprint(spec_dict: Dict[str, Any]) -> str:
    """Content address of a whole sweep specification.

    Hashes the JSON-safe spec form (:meth:`repro.explore.SweepSpec.
    to_dict`), which already folds in the base-architecture fingerprint
    -- so two sweeps share a manifest iff they would evaluate the exact
    same cross product.
    """
    material = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


class SweepManifest:
    """Append-only resume journal for one sweep specification.

    Lives next to the :class:`ResultCache`
    (``<root>/manifests/<spec fingerprint>.jsonl``).  The first line is
    a header (schema + fingerprint + the spec itself, for human
    inspection); every following line records one completed point key.
    An interrupted ``python -m repro sweep`` leaves the journal behind,
    so the next run of the same spec knows exactly which points of the
    cross product already completed (their reports are served from the
    result cache) and restarts mid-cross-product; a sweep that runs to
    completion removes its journal.

    The journal is held open as one line-buffered append handle from
    the first :meth:`mark` until :meth:`complete` or :meth:`close` (a
    sweep that fails closes it and leaves the journal behind).  Each
    line is one ``write`` call, so a crash can at worst leave a torn
    final line -- :meth:`load` skips unparsable lines, and a lost entry
    merely re-evaluates one point.
    """

    def __init__(
        self,
        root: Union[str, Path],
        fingerprint: str,
        spec_meta: Optional[Dict[str, Any]] = None,
    ):
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.spec_meta = spec_meta
        self.path = self.root / "manifests" / f"{fingerprint}.jsonl"
        self._fh = None

    def load(self) -> frozenset:
        """Completed point keys from a previous (interrupted) run.

        An unreadable journal, a schema mismatch, or a fingerprint
        mismatch yields the empty set -- resume is best-effort, never an
        error.  A crash mid-append can tear the final line (including
        mid-way through a multibyte sequence), so the journal is decoded
        permissively and unparsable lines are discarded rather than
        raised.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return frozenset()
        lines = raw.decode("utf-8", errors="replace").splitlines()
        if not lines:
            return frozenset()
        try:
            header = json.loads(lines[0])
            if header.get("schema") != MANIFEST_SCHEMA_VERSION:
                return frozenset()
            if header.get("fingerprint") != self.fingerprint:
                return frozenset()
        except (ValueError, AttributeError):
            return frozenset()
        keys = set()
        for line in lines[1:]:
            try:
                keys.add(json.loads(line)["key"])
            except (ValueError, KeyError, TypeError):
                continue  # torn tail write from an interrupted run
        return frozenset(keys)

    def mark(self, key: str) -> None:
        """Record one completed point key (opens the journal lazily,
        writing its header if the file is new)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", buffering=1)
            if self._fh.tell() == 0:
                self._fh.write(json.dumps({
                    "schema": MANIFEST_SCHEMA_VERSION,
                    "fingerprint": self.fingerprint,
                    "spec": self.spec_meta or {},
                }) + "\n")
        self._fh.write(json.dumps({"key": key}) + "\n")

    def close(self) -> None:
        """Close the append handle; the journal stays for a resume."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def complete(self) -> None:
        """Remove the journal: the sweep finished, nothing to resume."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass
