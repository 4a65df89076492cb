"""Bit-identical checkpoint/resume for federation simulations.

A checkpoint is a directory with two files:

- ``state.json`` -- the simulator's :meth:`FederationSimulator.state_dict`
  with every ndarray replaced by a reference marker, plus an ``extra``
  payload: the run's spec snapshot and its hash
  (:func:`repro.api.runner.checkpoint_extra`), which a resume verifies
  and rebuilds the simulator from
  (:func:`repro.sim.scenarios.resume_simulator`).
- ``arrays-<round>.npz`` -- the referenced arrays in lossless binary form,
  named per snapshot and pointed to by ``state.json``.

Saves are crash-safe: the arrays file lands first under a fresh name, then
``state.json`` is atomically replaced to reference it, then stale arrays
files are pruned.  A kill at any point leaves the directory resuming to
either the previous or the new snapshot, never a torn mix.

Loads are integrity-checked: ``state.json`` records a SHA-256 digest per
array, and :func:`load_checkpoint` raises :class:`CheckpointError` (a
``ValueError``) on a truncated/corrupt file, a digest mismatch, a missing
digest manifest or an unknown schema instead of resuming from silently
wrong state.

Scalars survive the JSON round-trip exactly (Python emits shortest-repr
floats, which parse back to the identical IEEE-754 value; RNG states are
arbitrary-precision ints), arrays survive npz exactly, so a simulation
killed at round k and resumed matches an uninterrupted run's params,
history, and accountant state bit for bit -- the property
``tests/sim/test_checkpoint.py`` asserts.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

STATE_FILE = "state.json"
_ARRAYS_PATTERN = "arrays-{round:08d}.npz"
_SCHEMA = "uldp-fl-checkpoint/v1"


class CheckpointError(ValueError):
    """A checkpoint directory is unreadable, truncated, or corrupt.

    Raised instead of letting ``zipfile``/``json`` internals leak out, so
    a resume against a half-written or bit-rotted checkpoint fails with a
    clear message rather than a confusing traceback (or, worse, silently
    wrong arrays -- every array is digest-verified against ``state.json``).
    """


def _digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's canonical (contiguous) byte content."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _strip_arrays(obj, arrays: dict):
    """Replace ndarrays with markers, collecting them into ``arrays``."""
    if isinstance(obj, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = obj
        return {"__array__": key}
    if isinstance(obj, dict):
        return {k: _strip_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strip_arrays(v, arrays) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _restore_arrays(obj, arrays):
    """Inverse of :func:`_strip_arrays`."""
    if isinstance(obj, dict):
        if set(obj) == {"__array__"}:
            return np.array(arrays[obj["__array__"]])
        return {k: _restore_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore_arrays(v, arrays) for v in obj]
    return obj


def save_checkpoint(path: str | Path, simulator, extra: dict | None = None) -> Path:
    """Write the simulator's full dynamic state to ``path`` (a directory).

    Args:
        path: checkpoint directory (created if missing; overwritten).
        simulator: a :class:`repro.sim.scheduler.FederationSimulator`.
        extra: optional JSON-serialisable payload stored alongside
            (a resumable checkpoint's is ``checkpoint_extra(spec)``).

    Returns:
        The checkpoint directory path.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    state = _strip_arrays(simulator.state_dict(), arrays)
    arrays_file = _ARRAYS_PATTERN.format(round=simulator.rounds_completed)
    meta = {
        "schema": _SCHEMA,
        "extra": extra,
        "arrays_file": arrays_file,
        # Integrity manifest: load_checkpoint refuses an arrays file whose
        # content does not hash back to these (truncation, bit rot, or a
        # mismatched state.json/npz pair).
        "array_digests": {key: _digest(arr) for key, arr in arrays.items()},
        "state": state,
    }
    # Crash-safe ordering (a kill mid-snapshot is the module's threat
    # model): the new arrays land under a fresh name, state.json is
    # atomically swapped to reference them, and only then are stale arrays
    # files pruned -- every intermediate directory state resumes cleanly.
    tmp_arrays = path / (arrays_file + ".tmp")
    with open(tmp_arrays, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp_arrays, path / arrays_file)
    tmp_state = path / (STATE_FILE + ".tmp")
    tmp_state.write_text(json.dumps(meta, indent=2))
    os.replace(tmp_state, path / STATE_FILE)
    for stale in path.glob("arrays-*.npz"):
        if stale.name != arrays_file:
            stale.unlink(missing_ok=True)
    return path


def load_checkpoint(path: str | Path) -> tuple[dict, dict | None]:
    """Read a checkpoint directory; returns ``(state, extra)``.

    Feed ``state`` to :meth:`FederationSimulator.load_state` after
    reconstructing the simulator with the same configuration it was
    saved under.
    """
    path = Path(path)
    try:
        meta = json.loads((path / STATE_FILE).read_text())
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint at {path} is unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint at {path} has a truncated or corrupt "
            f"{STATE_FILE}: {exc}") from exc
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != _SCHEMA:
        raise CheckpointError(
            f"checkpoint at {path} has an unknown schema: {schema!r}")
    # save_checkpoint has always written the manifest, so a state.json
    # without one was edited: loading it would switch every digest check off.
    digests = meta.get("array_digests")
    if not isinstance(digests, dict):
        raise CheckpointError(
            f"checkpoint at {path} is corrupt: {STATE_FILE} carries no "
            "array_digests integrity manifest")
    arrays_file = meta.get("arrays_file", "")
    try:
        with np.load(path / arrays_file) as npz:
            arrays = {k: np.array(npz[k]) for k in npz.files}
    except (OSError, EOFError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"checkpoint at {path} has a truncated or corrupt arrays file "
            f"{arrays_file!r}: {exc}") from exc
    if set(digests) != set(arrays):
        raise CheckpointError(
            f"checkpoint at {path} is corrupt: {arrays_file!r} does "
            "not contain the arrays state.json references")
    for key, arr in arrays.items():
        if _digest(arr) != digests[key]:
            raise CheckpointError(
                f"checkpoint at {path} is corrupt: array {key!r} in "
                f"{arrays_file!r} fails its recorded SHA-256 digest")
    return _restore_arrays(meta["state"], arrays), meta.get("extra")
