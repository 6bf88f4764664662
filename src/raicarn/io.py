"""Bit-exact file formats: binary matrices, run manifests, reports, plans.

Matrix files are little-endian regardless of host: 4-byte magic ``RNM1``,
two uint32 dimensions, then row-major float64 payload. Text documents are
simple ``key = value`` files; floats are serialized with ``repr`` so that
write-then-read is the identity.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    IoFailureError,
    MaskLengthMismatchError,
    NonFiniteError,
    RaggedRunsError,
    ShapeMismatchError,
)
from .types import MatchedComponent, ReproducibilityReport, check_run_shape, validate_run_collection

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
            rows, cols = _read_header(f, path)
            payload = np.fromfile(f, dtype="<f8", count=rows * cols)
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if payload.size != rows * cols:
        raise ShapeMismatchError(f"{path}: file shrank while being read")
    return payload.astype(np.float64, copy=False).reshape(rows, cols)


def _read_header(f, path):
    """(rows, cols) from an open matrix file's header, checked against the
    magic and the file size; leaves f at the start of the payload."""
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
    return rows, cols


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
            if mask_path is not None:
                raise IoFailureError(f"{path}: manifest lists more than one mask")
            mask_path = os.path.join(base, value)
        else:
            raise IoFailureError(f"{path}: unknown manifest key {key!r}")
    if not run_paths:
        raise IoFailureError(f"{path}: manifest lists no runs")
    return run_paths, mask_path


def load_runs(manifest_path):
    """Load a RunCollection from a manifest: the headers are checked first
    (see open_runs), then each run is read by ``RunFiles.run`` into one
    (K, n_C, n) array, so loading holds one run beside the result."""
    runs = open_runs(manifest_path)
    maps = np.empty((runs.K, runs.n_C, runs.n))
    for r in range(runs.K):
        maps[r] = runs.run(r)
    return validate_run_collection(maps)


@dataclass(frozen=True)
class RunFiles:
    """The run files of a manifest, their headers checked and their payload
    unread: ``K`` runs of ``n_C`` maps, each of length ``n`` after the mask.
    It is the one reader of map payloads: ``run`` reads one run's maps and
    ``rows`` single maps, so the CRCM holds one run at a time and a caller
    that needs a few maps of many runs reads only those. Both apply the
    mask and raise NonFiniteError naming the file and the map."""

    paths: tuple
    n_C: int
    n: int
    mask: object  # boolean array over the stored map length, or None

    @property
    def K(self) -> int:
        return len(self.paths)

    def run(self, r) -> np.ndarray:
        """The masked (n_C, n) maps of zero-based run r."""
        return self._read(r, 0, self.n_C)

    def rows(self, index) -> np.ndarray:
        """The masked maps at the zero-based (run, component) pairs of
        ``index``, as one array."""
        index = list(index)
        out = np.empty((len(index), self.n))
        for i, (run, comp) in enumerate(index):
            out[i] = self._read(run, comp, 1)[0]
        return out

    def _read(self, run, first, count) -> np.ndarray:
        """Maps first .. first + count - 1 of run ``run``, masked, as a
        (count, n) array."""
        if not (0 <= run < self.K and 0 <= first and first + count <= self.n_C):
            raise ShapeMismatchError(
                f"no map (run {run}, component {first}) in {self.K} runs of "
                f"{self.n_C} components (zero-based)"
            )
        path = self.paths[run]
        cols = self.n if self.mask is None else self.mask.shape[0]
        try:
            with open(path, "rb") as f:
                f.seek(_HEADER.size + first * cols * 8)
                maps = np.fromfile(f, dtype="<f8", count=count * cols)
        except OSError as e:
            raise IoFailureError(str(e)) from e
        if maps.size != count * cols:
            raise ShapeMismatchError(f"{path}: file shrank while being read")
        maps = maps.astype(np.float64, copy=False).reshape(count, cols)
        if self.mask is not None:
            maps = maps[:, self.mask]
        bad = ~np.isfinite(maps).all(axis=1)
        if bad.any():
            raise NonFiniteError(f"{path}: map {first + int(bad.argmax()) + 1} contains non-finite values")
        return maps


def open_runs(manifest_path) -> RunFiles:
    """Check a manifest's runs by their headers alone: the magic and file
    size of each, one shape for all, and the mask's length and 0/1 values;
    no map is read."""
    run_paths, mask_path = read_manifest(manifest_path)
    mask = None
    if mask_path is not None:
        m = read_matrix(mask_path)
        if m.shape[0] != 1:
            raise ShapeMismatchError(f"{mask_path}: mask must be a 1-row matrix")
        if not np.isin(m, (0.0, 1.0)).all():
            raise IoFailureError(f"{mask_path}: mask values must be 0 or 1")
        mask = m[0] == 1.0
    shape = None
    for p in run_paths:
        try:
            with open(p, "rb") as f:
                rows, cols = _read_header(f, p)
        except OSError as e:
            raise IoFailureError(str(e)) from e
        if mask is not None and cols != mask.shape[0]:
            raise MaskLengthMismatchError(f"{p}: mask length {mask.shape[0]} vs map length {cols}")
        if shape is None:
            shape = (rows, cols)
        elif (rows, cols) != shape:
            raise RaggedRunsError(f"{p}: all runs must share n_C and map length n")
    n_C, n = shape[0], (shape[1] if mask is None else int(mask.sum()))
    check_run_shape(len(run_paths), n_C, n)
    return RunFiles(tuple(run_paths), n_C, n, mask)


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
    missing key, a value that does not parse, or a header ``n_C`` or ``K``
    that the components disagree with raises IoFailureError naming the
    file and the key; values that do not form a valid report, or p-values
    and significance flags that differ from those its null sample gives,
    raise IoFailureError naming the file."""
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

    n_C, K = need(header, "n_C", int), need(header, "K", int)
    null_path = os.path.join(base, need(header, "null_sample"))
    null_sample = read_matrix(null_path)[0]
    p_crit = need(header, "p_crit", float)
    parsed = [
        (need(c, "members", _parse_members), need(c, "anchor", _parse_anchor),
         need(c, "reproducibility", float))
        for c in components
    ]
    p = np.array([need(c, "p_value", float) for c in components])
    flags = np.array([need(c, "significant", _parse_flag) for c in components])
    try:
        matched = tuple(MatchedComponent(*fields) for fields in parsed)
        report = ReproducibilityReport(matched, null_sample, p_crit)
    except ValueError as e:
        raise IoFailureError(f"{path}: {e}") from e
    if n_C != report.n_C:
        raise IoFailureError(f"{path}: header 'n_C' = {n_C}, but {report.n_C} components follow")
    if any(len(mc.members) != K for mc in matched):
        raise IoFailureError(f"{path}: header 'K' = {K} does not match the members' run count")
    if not np.array_equal(p, report.p_values):
        raise IoFailureError(f"{path}: p-values do not follow from the null sample {null_path}")
    if not np.array_equal(flags, report.significant):
        raise IoFailureError(f"{path}: significance flags do not follow from p_value < p_crit")
    return report


def _parse_flag(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


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
    except UnicodeDecodeError as e:
        raise IoFailureError(f"{path}: not a text file ({e})") from e
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
