"""Deterministic serialization: JSON with 17-significant-digit floats, CSV, manifests.

The JSON outputs (``moments``, ``radius``, ``simulate``'s report.json) embed
a run manifest (command, argument vector, sigma text, seed, library version,
timestamp); the CSV ones (``moments --format csv``, ``esd.csv``) carry none.
The numeric payload serializes identically across reruns of the same
configuration; only the manifest timestamp varies.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import Any, Optional

from . import __version__ as LIBRARY_VERSION

__all__ = ["fmt17", "dumps_json", "run_manifest", "histogram_csv"]


def fmt17(x: float) -> str:
    """A float rendered with 17 significant digits (exact round-trip)."""
    return format(float(x), ".17g")


_INDENT = 2  # spaces per nesting level


def _encode(obj: Any, out: list, level: int) -> None:
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, numbers.Integral):  # numpy registers its scalars here
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        x = float(obj)
        if not math.isfinite(x):
            # JSON has no inf/nan; callers carry explicit flags instead
            out.append("null")
        else:
            out.append(fmt17(x))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            out.append(pad_in)
            out.append(_quote(str(key)))
            out.append(": ")
            _encode(value, out, level + 1)
            out.append(",\n" if idx + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for idx, value in enumerate(seq):
            out.append(pad_in)
            _encode(value, out, level + 1)
            out.append(",\n" if idx + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# every control character escaped: the short form where JSON has one, else \u00XX
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord(c): "\\" + e for c, e in zip('\\"\n\r\t', '\\"nrt')}


def _quote(s: str) -> str:
    return f'"{s.translate(_ESCAPES)}"'


def dumps_json(obj: Any) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats,
    two spaces per level."""
    out: list = []
    _encode(obj, out, 0)
    out.append("\n")
    return "".join(out)


def run_manifest(
    command: str,
    argv: list,
    sigma_text: str,
    seed: Optional[int],
) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "sigma": sigma_text,
        "seed": seed,
        "version": LIBRARY_VERSION,
        "timestamp": _utc_timestamp(time.time_ns()),
    }


def _utc_timestamp(time_ns: int) -> str:
    """``time_ns`` (nanoseconds since the epoch) as
    ``datetime.fromtimestamp(t, timezone.utc).isoformat()`` writes it in
    the years 1000-9999: to the microsecond (truncated), with no fraction
    at microsecond 0.  ``datetime`` would add a millisecond to start-up."""
    seconds, nanos = divmod(time_ns, 10 ** 9)
    micros = nanos // 1000
    fraction = f".{micros:06d}" if micros else ""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + fraction + "+00:00"


def histogram_csv(bin_edges, counts) -> str:
    """CSV text ``bin_lo,bin_hi,count`` with 17-significant-digit edges."""
    lines = ["bin_lo,bin_hi,count"]
    for k in range(len(counts)):
        lines.append(f"{fmt17(bin_edges[k])},{fmt17(bin_edges[k + 1])},{int(counts[k])}")
    return "\n".join(lines) + "\n"
