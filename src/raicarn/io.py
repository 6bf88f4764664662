"""Bit-exact file formats: binary matrices, run manifests, reports, plans.

Matrix files are little-endian regardless of host: 4-byte magic ``RNM1``,
two uint32 dimensions, then row-major float64 payload. Text documents are
simple ``key = value`` files; floats are serialized with ``repr`` so that
write-then-read is the identity.
"""

import os
import struct

import numpy as np

from .errors import (
    BadMagicError,
    IoFailureError,
    MaskLengthMismatchError,
    NonFiniteError,
    ShapeMismatchError,
)
from .types import MatchedComponent, ReproducibilityReport, validate_run_collection

MAGIC = b"RNM1"
_HEADER = struct.Struct("<4sII")


def write_matrix(matrix, path) -> None:
    """Write a 2-D float64 matrix; rejects non-finite entries."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFiniteError("refusing to write non-finite entries")
    try:
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, m.shape[0], m.shape[1]))
            f.write(m.astype("<f8").tobytes())
    except OSError as e:
        raise IoFailureError(str(e)) from e


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; error on bad magic or any size mismatch."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if len(data) < _HEADER.size:
        raise ShapeMismatchError(f"{path}: truncated header")
    magic, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + rows * cols * 8
    if len(data) != expected:
        raise ShapeMismatchError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(data)}"
        )
    payload = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return payload.astype(np.float64).reshape(rows, cols)


def write_manifest(run_paths, path, mask_path=None) -> None:
    """Write a run manifest; paths are stored as given (resolved against
    the manifest's directory on load)."""
    lines = ["# raicarn run manifest"]
    if mask_path is not None:
        lines.append(f"mask = {mask_path}")
    lines.extend(f"run = {p}" for p in run_paths)
    write_text(path, lines)


def read_manifest(path):
    """Parse a manifest into (run_paths, mask_path), resolved relative to
    the manifest location."""
    base = os.path.dirname(os.path.abspath(path))
    run_paths, mask_path = [], None
    for key, value in _read_kv(path):
        if key == "run":
            run_paths.append(os.path.join(base, value))
        elif key == "mask":
            mask_path = os.path.join(base, value)
        else:
            raise IoFailureError(f"{path}: unknown manifest key {key!r}")
    if not run_paths:
        raise IoFailureError(f"{path}: manifest lists no runs")
    return run_paths, mask_path


def load_runs(manifest_path):
    """Load a RunCollection from a manifest, applying the mask (if any)
    before validation."""
    run_paths, mask_path = read_manifest(manifest_path)
    mask = None
    if mask_path is not None:
        m = read_matrix(mask_path)
        if m.shape[0] != 1:
            raise ShapeMismatchError(f"{mask_path}: mask must be a 1-row matrix")
        mask = m[0] != 0.0
    runs = []
    for p in run_paths:
        maps = read_matrix(p)
        if mask is not None:
            if maps.shape[1] != mask.shape[0]:
                raise MaskLengthMismatchError(
                    f"{p}: mask length {mask.shape[0]} vs map length {maps.shape[1]}"
                )
            maps = maps[:, mask]
        runs.append(list(maps))
    return validate_run_collection(runs)


def write_report(report: ReproducibilityReport, path, null_path=None) -> None:
    """Write a reproducibility report plus its pooled null sample as a
    companion matrix file (default: report path + ``.null.rnm``)."""
    if null_path is None:
        null_path = str(path) + ".null.rnm"
    write_matrix(np.asarray(report.null_sample)[None, :], null_path)
    lines = [
        "# raicarn reproducibility report",
        f"n_C = {report.n_C}",
        f"K = {len(report.matched[0].members)}",
        f"p_crit = {report.p_crit!r}",
        f"null_sample = {os.path.basename(str(null_path))}",
    ]
    for rank, (mc, p, sig) in enumerate(
        zip(report.matched, report.p_values, report.significant), start=1
    ):
        members = " ".join(
            f"{run + 1}:{comp + 1}:{'+' if sign > 0 else '-'}"
            for run, comp, sign in mc.members
        )
        lines.append("[component]")
        lines.append(f"rank = {rank}")
        lines.append(f"reproducibility = {mc.reproducibility!r}")
        lines.append(f"p_value = {float(p)!r}")
        lines.append(f"significant = {'true' if sig else 'false'}")
        lines.append(f"anchor = {mc.anchor[0] + 1}:{mc.anchor[1] + 1}")
        lines.append(f"members = {members}")
    write_text(path, lines)


def read_report(path) -> ReproducibilityReport:
    """Read back a report written by write_report (round-trip law); a
    missing key raises IoFailureError naming the file and the key."""
    base = os.path.dirname(os.path.abspath(path))
    header = {}
    components = []
    for key, value in _read_kv(path, section_key="[component]"):
        if key == "[component]":
            components.append({})
        elif components:
            components[-1][key] = value
        else:
            header[key] = value

    def need(d, key):
        if key not in d:
            raise IoFailureError(f"{path}: missing key {key!r}")
        return d[key]

    null_sample = read_matrix(os.path.join(base, need(header, "null_sample")))[0]
    p_crit = float(need(header, "p_crit"))
    matched, p_values = [], []
    for c in components:
        members = []
        for tok in need(c, "members").split():
            run, comp, sign = tok.split(":")
            members.append((int(run) - 1, int(comp) - 1, 1 if sign == "+" else -1))
        anchor_run, anchor_comp = (int(v) - 1 for v in need(c, "anchor").split(":"))
        rep = float(need(c, "reproducibility"))
        matched.append(MatchedComponent(tuple(members), (anchor_run, anchor_comp), rep))
        p_values.append(float(need(c, "p_value")))
    p = np.array(p_values)
    return ReproducibilityReport(tuple(matched), null_sample, p, p_crit, p < p_crit)


def write_text(path, lines) -> None:
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise IoFailureError(str(e)) from e


def _read_kv(path, section_key=None):
    """Yield (key, value) pairs; section markers are yielded as
    (marker, None) when section_key is given."""
    try:
        with open(path) as f:
            raw = f.read()
    except OSError as e:
        raise IoFailureError(str(e)) from e
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if section_key is not None and line == section_key:
            yield line, None
            continue
        if "=" not in line:
            raise IoFailureError(f"{path}: malformed line {line!r}")
        key, _, value = line.partition("=")
        yield key.strip(), value.strip()
