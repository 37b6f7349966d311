"""Check bookkeeping shared by every workload.

Each check is counted as attempted; a check that fails, raises or is
skipped counts as failed.  Floating-point checks also record their margin,
log10(bound / achieved), so the report says how close each came to failing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math

_FAILED_SHOWN = 25


def digest(obj) -> str:
    """sha256 of the canonical JSON text of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Counts checks; ``known`` names the failures the workload expects."""

    def __init__(self, known=lambda name: False):
        self.known = known
        self.attempted = 0
        self.failed: list[dict] = []
        self.margins: list[float] = []

    def _record(self, name: str, ok: bool, **detail):
        self.attempted += 1
        if not ok:
            self.failed.append({"name": name, "known": bool(self.known(name)), **detail})

    def exact(self, name: str, ok: bool):
        self._record(name, bool(ok))

    def below(self, name: str, value: float, bound: float):
        """Passes when value < bound; margin log10(bound / value)."""
        value = float(value)
        ok = value < bound  # False for NaN
        if not math.isnan(value):
            self.margins.append(math.log10(bound / max(value, 1e-300)))
        self._record(name, ok, value=value, bound=bound)

    def at_least(self, name: str, value: float, bound: float):
        """Passes when value >= bound; margin log10(value / bound)."""
        value = float(value)
        ok = value >= bound
        if not math.isnan(value):
            self.margins.append(math.log10(max(value, 1e-300) / bound))
        self._record(name, ok, value=value, bound=bound)

    @contextlib.contextmanager
    def guard(self, name: str):
        """A call that raises counts as one failed check and the run goes on."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
            self._record(f"{name}.raised", False, error=f"{type(exc).__name__}: {exc}")

    def summary(self) -> dict:
        unexpected = [f["name"] for f in self.failed if not f["known"]]
        return {
            "attempted": self.attempted,
            "failed": len(self.failed),
            "unexpected": unexpected,
            "failed_checks": self.failed[:_FAILED_SHOWN],
            "min_margin_decades": min(self.margins) if self.margins else None,
        }
