"""Scheduling vocabulary: priority classes, quotas, fair share, config.

Everything here is policy *data* — small frozen dataclasses with strict
JSON codecs (unknown keys rejected, like the rest of the typed API) and
one on-disk ledger.  The mechanisms that consume them live elsewhere:
admission in :mod:`repro.sched.admission`, claim-order integration in
:mod:`repro.exec.queue`, autoscaling in :mod:`repro.sched.autoscale`.

Priority classes order ``urgent < interactive < batch < background``
(lower rank claims first).  ``urgent`` is admin-only at admission; aging
never promotes into it, so it stays a strict operator override lane.
The rank is what the queue encodes into pending-token names (``p<rank>.``
prefix), which makes strict-priority claim order a plain lexicographic
scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import string
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.api.errors import ValidationError

#: claim order, best first; ranks are the tuple indexes
PRIORITY_CLASSES: Tuple[str, ...] = (
    "urgent", "interactive", "batch", "background",
)

#: classes only the ``admin`` role may request explicitly
ADMIN_ONLY_CLASSES: Tuple[str, ...] = ("urgent",)

#: aging promotes starved jobs at most up to this class — never into
#: ``urgent``, which stays reserved for explicit admin submits
AGING_FLOOR: str = "interactive"

#: the class a request lands in when it names none: interactive runs,
#: batch sweeps, background synthesis campaigns
DEFAULT_CLASS_BY_KIND: Mapping[str, str] = {
    "run": "interactive",
    "batch": "batch",
    "synth": "background",
}

_RANKS: Dict[str, int] = {name: i for i, name in enumerate(PRIORITY_CLASSES)}


def class_rank(name: str) -> int:
    """The claim rank of a priority class name (0 claims first)."""
    try:
        return _RANKS[name]
    except KeyError:
        raise ValidationError(
            f"unknown priority class {name!r} (choose from "
            f"{', '.join(PRIORITY_CLASSES)})"
        ) from None


def class_of_rank(rank: int) -> str:
    if 0 <= rank < len(PRIORITY_CLASSES):
        return PRIORITY_CLASSES[rank]
    raise ValidationError(f"unknown priority rank {rank!r}")


@dataclass(frozen=True, order=True)
class PriorityClass:
    """One named priority level (orderable by claim rank)."""

    rank: int
    name: str = field(compare=False)

    @staticmethod
    def of(name: str) -> "PriorityClass":
        return PriorityClass(rank=class_rank(name), name=name)


def _check_unknown(payload: Mapping[str, object], known, what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {what} key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def _opt_count(payload: Mapping[str, object], key: str, what: str):
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            f"{what}.{key} must be a non-negative integer or null, "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class QuotaPolicy:
    """Per-client admission limits (``None`` = unlimited).

    ``max_in_flight`` bounds a client's queued+running jobs together;
    ``max_queued`` bounds just the waiting portion, so a client with
    many running jobs can still be stopped from stacking a deep backlog.
    """

    max_in_flight: Optional[int] = None
    max_queued: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return self.max_in_flight is None and self.max_queued is None

    def to_payload(self) -> Dict[str, object]:
        return {
            "max_in_flight": self.max_in_flight,
            "max_queued": self.max_queued,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "QuotaPolicy":
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"a quota policy must be an object, got {payload!r}"
            )
        _check_unknown(payload, ("max_in_flight", "max_queued"), "quota")
        return QuotaPolicy(
            max_in_flight=_opt_count(payload, "max_in_flight", "quota"),
            max_queued=_opt_count(payload, "max_queued", "quota"),
        )


@dataclass(frozen=True)
class QuotaTable:
    """Quota resolution: client override → role override → default."""

    default: QuotaPolicy = QuotaPolicy()
    roles: Mapping[str, QuotaPolicy] = field(default_factory=dict)
    clients: Mapping[str, QuotaPolicy] = field(default_factory=dict)

    def resolve(self, client_id: str, role: str = "") -> QuotaPolicy:
        if client_id in self.clients:
            return self.clients[client_id]
        if role and role in self.roles:
            return self.roles[role]
        return self.default

    def to_payload(self) -> Dict[str, object]:
        return {
            "default": self.default.to_payload(),
            "roles": {k: v.to_payload() for k, v in self.roles.items()},
            "clients": {k: v.to_payload() for k, v in self.clients.items()},
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "QuotaTable":
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"quotas must be an object, got {payload!r}"
            )
        _check_unknown(payload, ("default", "roles", "clients"), "quotas")

        def _table(key: str) -> Dict[str, QuotaPolicy]:
            raw = payload.get(key) or {}
            if not isinstance(raw, Mapping):
                raise ValidationError(
                    f"quotas.{key} must be an object, got {raw!r}"
                )
            return {
                str(name): QuotaPolicy.from_payload(value)
                for name, value in raw.items()
            }

        return QuotaTable(
            default=QuotaPolicy.from_payload(payload.get("default") or {}),
            roles=_table("roles"),
            clients=_table("clients"),
        )


@dataclass(frozen=True)
class AutoscalePolicy:
    """When the fleet grows and shrinks (consumed by QueueAutoscaler).

    Scale-up triggers on either latency pressure (any urgent/interactive
    job waiting while every worker is leased) or backlog pressure (total
    pending beyond ``backlog_per_worker`` per current worker), stepped
    one slot at a time under ``scale_up_cooldown``.  Scale-down waits
    out ``idle_grace`` of an empty pending queue with spare workers,
    then steps down one slot per ``scale_down_cooldown`` — asymmetric on
    purpose: adding capacity is cheap, thrashing workers is not.
    """

    min_workers: int = 1
    max_workers: int = 4
    backlog_per_worker: float = 2.0
    scale_up_cooldown: float = 0.5
    scale_down_cooldown: float = 5.0
    idle_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValidationError("autoscale.min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValidationError(
                f"autoscale.max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.backlog_per_worker <= 0:
            raise ValidationError("autoscale.backlog_per_worker must be > 0")
        for name in ("scale_up_cooldown", "scale_down_cooldown", "idle_grace"):
            if getattr(self, name) < 0:
                raise ValidationError(f"autoscale.{name} must be >= 0")

    def to_payload(self) -> Dict[str, object]:
        return {
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "backlog_per_worker": self.backlog_per_worker,
            "scale_up_cooldown": self.scale_up_cooldown,
            "scale_down_cooldown": self.scale_down_cooldown,
            "idle_grace": self.idle_grace,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "AutoscalePolicy":
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"autoscale must be an object, got {payload!r}"
            )
        known = (
            "min_workers", "max_workers", "backlog_per_worker",
            "scale_up_cooldown", "scale_down_cooldown", "idle_grace",
        )
        _check_unknown(payload, known, "autoscale")
        kwargs: Dict[str, object] = {}
        for name in ("min_workers", "max_workers"):
            if name in payload:
                value = payload[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValidationError(
                        f"autoscale.{name} must be an integer, got {value!r}"
                    )
                kwargs[name] = value
        for name in ("backlog_per_worker", "scale_up_cooldown",
                     "scale_down_cooldown", "idle_grace"):
            if name in payload:
                value = payload[name]
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValidationError(
                        f"autoscale.{name} must be a number, got {value!r}"
                    )
                kwargs[name] = float(value)
        return AutoscalePolicy(**kwargs)


#: client-id characters a ledger file name keeps as they are
_LEDGER_PLAIN = frozenset(string.ascii_letters + string.digits + "-")
#: longer escaped keys name the file by digest (file names stop at 255)
_LEDGER_KEY_MAX = 200


class FairShareLedger:
    """On-disk, decaying per-client runtime charges (the fair-share key).

    Every completed job charges its wall-clock runtime to its client;
    within one priority class the queue serves the client with the
    *lowest* decayed charge-per-weight first (deficit round robin: heavy
    users accumulate charge and yield to light ones, and the exponential
    ``halflife`` decay forgives history so nobody is starved forever).

    One JSON file per client under the spool (atomic temp+rename writes,
    corruption read as zero) — the same no-locks coordination style as
    the queue itself, so every worker process shares one ledger.
    """

    def __init__(
        self,
        root: Union[str, Path],
        weights: Optional[Mapping[str, float]] = None,
        halflife: float = 300.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.weights = dict(weights or {})
        self.halflife = max(1e-9, float(halflife))

    def _path(self, client_id: str) -> Path:
        """One file per client id, and never one file for two ids.

        Client ids come off the wire, so file names stay boring: every
        character outside ``[A-Za-z0-9-]`` becomes ``_`` plus two hex
        digits per UTF-8 byte.  ``_`` only ever starts such an escape,
        which keeps the map injective (``a/b`` is ``a_2fb``, ``a_b`` is
        ``a_5fb``); ``_`` alone is the anonymous client and ``_h`` plus
        a sha256 digest an id too long to spell out.
        """
        key = "".join(
            ch if ch in _LEDGER_PLAIN else "".join(
                f"_{byte:02x}"
                for byte in ch.encode("utf-8", "surrogatepass")
            )
            for ch in client_id
        )
        if len(key) > _LEDGER_KEY_MAX:
            digest = hashlib.sha256(
                client_id.encode("utf-8", "surrogatepass")
            ).hexdigest()
            key = f"_h{digest}"
        return self.root / f"{key or '_'}.json"

    def _decayed(self, charge: float, since: float, now: float) -> float:
        if now <= since:
            return charge
        return charge * 0.5 ** ((now - since) / self.halflife)

    def charge(
        self, client_id: str, runtime: float, now: Optional[float] = None
    ) -> float:
        """Add one completed job's runtime; returns the new raw charge."""
        now = time.time() if now is None else now
        path = self._path(client_id)
        current = self._read(path)
        total = self._decayed(
            float(current.get("charge") or 0.0),
            float(current.get("ts") or now),
            now,
        ) + max(0.0, float(runtime))
        payload = {"client_id": client_id, "charge": total, "ts": now}
        blob = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.stem}.", suffix=".tmp", dir=str(self.root)
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return total

    def usage(self, client_id: str, now: Optional[float] = None) -> float:
        """The decayed, weight-normalized charge (the claim sort key)."""
        now = time.time() if now is None else now
        current = self._read(self._path(client_id))
        charge = self._decayed(
            float(current.get("charge") or 0.0),
            float(current.get("ts") or now),
            now,
        )
        weight = float(self.weights.get(client_id, 1.0))
        return charge / max(1e-9, weight)

    @staticmethod
    def _read(path: Path) -> Dict[str, object]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}


@dataclass(frozen=True)
class SchedulerConfig:
    """Everything ``provmark serve --scheduler CONFIG.json`` loads.

    The default-constructed config is deliberately a no-op: no quotas,
    no aging, no autoscaling — existing planes behave exactly as before
    until an operator opts in.
    """

    #: seconds a pending job waits before aging promotes it one class
    #: (None disables aging)
    aging_wait: Optional[float] = None
    default_classes: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_BY_KIND)
    )
    quotas: QuotaTable = QuotaTable()
    fair_share_weights: Mapping[str, float] = field(default_factory=dict)
    fair_share_halflife: float = 300.0
    autoscale: Optional[AutoscalePolicy] = None

    def __post_init__(self) -> None:
        if self.aging_wait is not None and self.aging_wait <= 0:
            raise ValidationError("aging_wait must be > 0 (or null)")
        if self.fair_share_halflife <= 0:
            raise ValidationError("fair_share.halflife must be > 0")
        for kind, name in self.default_classes.items():
            class_rank(name)  # raises on unknown class names
        for client, weight in self.fair_share_weights.items():
            if not isinstance(weight, (int, float)) or weight <= 0:
                raise ValidationError(
                    f"fair_share.weights[{client!r}] must be > 0, "
                    f"got {weight!r}"
                )

    def class_for_kind(self, kind: str) -> str:
        return self.default_classes.get(
            kind, DEFAULT_CLASS_BY_KIND.get(kind, "batch")
        )

    def with_autoscale(self, autoscale: AutoscalePolicy) -> "SchedulerConfig":
        return replace(self, autoscale=autoscale)

    def to_payload(self) -> Dict[str, object]:
        return {
            "aging_wait": self.aging_wait,
            "default_classes": dict(self.default_classes),
            "quotas": self.quotas.to_payload(),
            "fair_share": {
                "halflife": self.fair_share_halflife,
                "weights": dict(self.fair_share_weights),
            },
            "autoscale": (
                self.autoscale.to_payload()
                if self.autoscale is not None else None
            ),
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "SchedulerConfig":
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"scheduler config must be an object, got {payload!r}"
            )
        known = (
            "aging_wait", "default_classes", "quotas", "fair_share",
            "autoscale",
        )
        _check_unknown(payload, known, "scheduler")
        aging = payload.get("aging_wait")
        if aging is not None and (
            isinstance(aging, bool) or not isinstance(aging, (int, float))
        ):
            raise ValidationError(
                f"aging_wait must be a number or null, got {aging!r}"
            )
        classes = payload.get("default_classes") or {}
        if not isinstance(classes, Mapping):
            raise ValidationError(
                f"default_classes must be an object, got {classes!r}"
            )
        fair = payload.get("fair_share") or {}
        if not isinstance(fair, Mapping):
            raise ValidationError(
                f"fair_share must be an object, got {fair!r}"
            )
        _check_unknown(fair, ("halflife", "weights"), "fair_share")
        weights = fair.get("weights") or {}
        if not isinstance(weights, Mapping):
            raise ValidationError(
                f"fair_share.weights must be an object, got {weights!r}"
            )
        autoscale = payload.get("autoscale")
        merged_classes = dict(DEFAULT_CLASS_BY_KIND)
        merged_classes.update(
            {str(k): str(v) for k, v in classes.items()}
        )
        return SchedulerConfig(
            aging_wait=float(aging) if aging is not None else None,
            default_classes=merged_classes,
            quotas=QuotaTable.from_payload(payload.get("quotas") or {}),
            fair_share_weights={
                str(k): float(v) if isinstance(v, (int, float)) else v
                for k, v in weights.items()
            },
            fair_share_halflife=float(fair.get("halflife", 300.0)),
            autoscale=(
                AutoscalePolicy.from_payload(autoscale)
                if autoscale is not None else None
            ),
        )


def load_scheduler_config(path: Union[str, Path]) -> SchedulerConfig:
    """Parse a ``--scheduler`` JSON file (strict: unknown keys reject)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(
            f"cannot read scheduler config {path}: {exc}"
        ) from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValidationError(
            f"scheduler config {path} is not valid JSON: {exc}"
        ) from exc
    return SchedulerConfig.from_payload(payload)


def zeroed_class_stats() -> Dict[str, Dict[str, object]]:
    """One accumulator row per priority class, all zero.

    Shared by every ``sched_stats()`` implementation so an empty spool
    still reports all classes — dashboards get a stable schema instead
    of keys that appear when traffic does.
    """
    return {
        name: {"pending": 0, "running": 0, "waits": []}
        for name in PRIORITY_CLASSES
    }


def summarize_class_stats(
    per: Mapping[str, Mapping[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Fold accumulator rows into the wire shape, covering every class.

    Classes missing from ``per`` (or with no traffic) come out zeroed,
    in canonical priority order — the satellite guarantee that the
    ``/v1/health`` sched block never omits a class.
    """
    classes: Dict[str, Dict[str, object]] = {}
    for name in PRIORITY_CLASSES:
        row = per.get(name) or {}
        waits = sorted(row.get("waits") or ())
        classes[name] = {
            "pending": int(row.get("pending") or 0),
            "running": int(row.get("running") or 0),
            "waited": len(waits),
            "wait_p50": waits[len(waits) // 2] if waits else 0.0,
            "wait_max": waits[-1] if waits else 0.0,
        }
    return classes
