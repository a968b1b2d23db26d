"""Checked-in baselines: grandfather existing findings, block new ones.

A baseline is a JSON file listing findings that existed when the linter
(or a new rule) was introduced.  ``repro lint --baseline FILE`` subtracts
them, so CI fails only on *new* findings while the debt is paid down.
Entries key on ``(file, rule, message)`` — not line numbers, which churn
on every unrelated edit.

The repo ships an **empty** baseline (``lint-baseline.json``): every
finding the six launch rules produce on this tree was fixed or explicitly
``# repro: allow``-ed at introduction.  The mechanism exists so future
rules can land without blocking on a whole-tree cleanup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.errors import ReproError

__all__ = ["BASELINE_FORMAT_VERSION", "Baseline"]

BASELINE_FORMAT_VERSION = 1

_Key = Tuple[str, str, str]


@dataclass(frozen=True)
class Baseline:
    """An immutable set of grandfathered finding fingerprints."""

    entries: FrozenSet[_Key] = frozenset()

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(entries=frozenset(f.fingerprint() for f in findings))

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or an over-long integer
                raise ReproError(
                    f"malformed lint baseline {path!r}: {exc}"
                ) from exc
        if (
            not isinstance(raw, dict)
            or raw.get("format_version") != BASELINE_FORMAT_VERSION
            or not isinstance(raw.get("entries"), list)
        ):
            raise ReproError(
                f"lint baseline {path!r} is not a version-"
                f"{BASELINE_FORMAT_VERSION} baseline object"
            )
        entries: Set[_Key] = set()
        for entry in raw["entries"]:
            if not isinstance(entry, dict) or not {
                "file",
                "rule",
                "message",
            } <= set(entry):
                raise ReproError(
                    f"lint baseline {path!r} has a malformed entry: {entry!r}"
                )
            entries.add(
                (str(entry["file"]), str(entry["rule"]), str(entry["message"]))
            )
        return cls(entries=frozenset(entries))

    def save(self, path: str) -> None:
        payload: Dict[str, Any] = {
            "format_version": BASELINE_FORMAT_VERSION,
            "entries": [
                {"file": f, "rule": r, "message": m}
                for f, r, m in sorted(self.entries)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # ------------------------------------------------------------------ #

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.entries

    def split(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Partition findings into (new, grandfathered)."""
        new: List[Finding] = []
        known: List[Finding] = []
        for finding in findings:
            (known if finding in self else new).append(finding)
        return new, known

    def stale(self, findings: Iterable[Finding]) -> List[_Key]:
        """Entries matched by no current finding — debt already paid.

        A stale entry is not harmless: it would silently re-grandfather
        the finding if the same code came back.  ``--write-baseline``
        prunes them (regeneration keys on current findings only);
        ``--stats`` reports the count so CI can watch it hit zero.
        """
        matched = {f.fingerprint() for f in findings}
        return sorted(self.entries - matched)
