"""The one parser for ``REPRO_*`` numeric environment knobs.

A leaf module — it imports nothing from ``repro`` — so every layer,
from the ILP dispatch and synthesis up to the serving fleet, reads its
knobs the same way without an import cycle.
"""

from __future__ import annotations

import os
from typing import Any, Callable


def env_number(name: str, default: Any, kind: Callable[[str], Any] = float) -> Any:
    """The environment variable ``name`` parsed by ``kind`` (``float`` or
    ``int``); ``default`` (which may be None) when it is unset, empty or
    malformed — a bad knob never stops a service from starting."""
    raw = os.environ.get(name, "")
    try:
        return kind(raw) if raw else default
    except ValueError:
        return default
