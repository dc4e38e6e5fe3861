"""Report assembly and deterministic rendering for the CLI.

A report is a plain dict: command name, config echo, results payload,
summary with its pass flag, and one ISO-8601 timestamp.
The timestamp is the only non-reproducible field; everything else is
rendered with sorted keys so identical configs give identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import os
from datetime import datetime, timezone


def build_report(command: str, config: dict, results: dict, summary: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "results": results,
        "summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    """Flatten scalar summary fields only; structures stay JSON-only."""
    flat: dict[str, object] = {"command": report["command"]}
    for key in sorted(report["summary"]):
        value = report["summary"][key]
        if isinstance(value, (str, int, float, bool)):
            flat[f"summary.{key}"] = value
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(flat.keys())
    writer.writerow(flat.values())
    return buf.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(report)
    return render_json(report)


def write_atomic(text: str, path: str) -> None:
    """Write-then-rename so failures never leave a partial file.

    The temporary file is created with mode 0o666 filtered by the umask,
    as open(path, "w") would create it, and is fsynced before the rename
    so the artifact never becomes visible ahead of its data.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".gleason-lab-{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def checked(name: str, value: float, tolerance: float) -> dict:
    """A numeric claim paired with the tolerance it was checked against."""
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(value <= tolerance)}
