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
    RaggedRunsError,
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
    """Read a matrix file; error on bad magic or any size mismatch. The
    header is checked against the file size before any payload is read."""
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ShapeMismatchError(f"{path}: truncated header")
            magic, rows, cols = _HEADER.unpack(header)
            if magic != MAGIC:
                raise BadMagicError(f"{path}: bad magic {magic!r}")
            expected = _HEADER.size + rows * cols * 8
            if size != expected:
                raise ShapeMismatchError(
                    f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}"
                )
            payload = np.fromfile(f, dtype="<f8", count=rows * cols)
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if payload.size != rows * cols:
        raise ShapeMismatchError(f"{path}: file shrank while being read")
    return payload.astype(np.float64, copy=False).reshape(rows, cols)


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
    before validation. Each run is copied into one (K, n_C, n) array as it
    is read, so loading holds one run beside the result, not K of them."""
    run_paths, mask_path = read_manifest(manifest_path)
    mask = None
    if mask_path is not None:
        m = read_matrix(mask_path)
        if m.shape[0] != 1:
            raise ShapeMismatchError(f"{mask_path}: mask must be a 1-row matrix")
        mask = m[0] != 0.0
    runs = None
    for r, p in enumerate(run_paths):
        maps = read_matrix(p)
        if mask is not None:
            if maps.shape[1] != mask.shape[0]:
                raise MaskLengthMismatchError(
                    f"{p}: mask length {mask.shape[0]} vs map length {maps.shape[1]}"
                )
            maps = maps[:, mask]
        if runs is None:
            runs = np.empty((len(run_paths),) + maps.shape)
        elif maps.shape != runs.shape[1:]:
            raise RaggedRunsError(f"{p}: all runs must share n_C and map length n")
        runs[r] = maps
    return validate_run_collection(runs)


def write_report(report: ReproducibilityReport, path) -> None:
    """Write a reproducibility report plus its pooled null sample as the
    companion matrix file report path + ``.null.rnm``."""
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
    """Read back a report written by write_report (round-trip law). A
    missing key or a value that does not parse raises IoFailureError
    naming the file and the key; values that do not form a valid report,
    or p-values that differ from those its null sample gives, raise
    IoFailureError naming the file."""
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

    def need(d, key, parse=str):
        if key not in d:
            raise IoFailureError(f"{path}: missing key {key!r}")
        try:
            return parse(d[key])
        except ValueError as e:
            raise IoFailureError(f"{path}: bad value for {key!r}: {e}") from e

    null_path = os.path.join(base, need(header, "null_sample"))
    null_sample = read_matrix(null_path)[0]
    p_crit = need(header, "p_crit", float)
    parsed = [
        (need(c, "members", _parse_members), need(c, "anchor", _parse_anchor),
         need(c, "reproducibility", float))
        for c in components
    ]
    p = np.array([need(c, "p_value", float) for c in components])
    try:
        matched = tuple(MatchedComponent(*fields) for fields in parsed)
        report = ReproducibilityReport(matched, null_sample, p_crit)
    except ValueError as e:
        raise IoFailureError(f"{path}: {e}") from e
    if not np.array_equal(p, report.p_values):
        raise IoFailureError(f"{path}: p-values do not follow from the null sample {null_path}")
    return report


def _parse_anchor(text):
    """One-based ``run:component`` as a zero-based (run, component)."""
    run, comp = text.split(":")
    return int(run) - 1, int(comp) - 1


def _parse_members(text):
    """Members written as one-based ``run:component:sign``, sign + or -."""
    members = []
    for tok in text.split():
        run, comp, sign = tok.split(":")
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be + or -, got {tok!r}")
        members.append((int(run) - 1, int(comp) - 1, 1 if sign == "+" else -1))
    return tuple(members)


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
