"""Bit-exact file formats: binary matrices, run manifests, reports, plans;
and the reader of the pipeline config file.

Matrix files are little-endian regardless of host: 4-byte magic ``RNM1``,
two uint32 dimensions, then row-major float64 payload. Text documents are
simple ``key = value`` files; floats are serialized with ``repr`` so that
write-then-read is the identity. Every file the package reads or writes
is opened by ``_open``, and every matrix payload is read by ``_read_rows``.
"""

import configparser
import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import SECTION_KEYS
from .errors import (
    BadMagicError,
    IoFailureError,
    MaskLengthMismatchError,
    NonFiniteError,
    RaggedRunsError,
    ShapeMismatchError,
)
from .types import (
    MatchedComponent,
    ReproducibilityReport,
    _mapped_zeros,
    check_run_shape,
    validate_run_collection,
)

MAGIC = b"RNM1"
_HEADER = struct.Struct("<4sII")
# the keys of a report's header and of each of its [component] sections
_HEADER_KEYS = ("n_C", "K", "p_crit", "null_sample")
_COMPONENT_KEYS = ("rank", "reproducibility", "p_value", "significant", "anchor", "members")


@contextlib.contextmanager
def _open(path, mode):
    """``open(path, mode)``; an OSError from the open or from the body is
    raised as IoFailureError, here and nowhere else."""
    try:
        with open(path, mode) as f:
            yield f
    except OSError as e:
        raise IoFailureError(str(e)) from e


def write_matrix(matrix, path) -> None:
    """Write a 2-D float64 matrix; rejects non-finite entries."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFiniteError("refusing to write non-finite entries")
    with _open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, m.shape[0], m.shape[1]))
        f.write(m.astype("<f8", copy=False))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; error on bad magic or any size mismatch. The
    header is checked against the file size before any payload is read."""
    return read_stack([path])


def read_stack(paths) -> np.ndarray:
    """The matrix files at paths read one under another into one array.
    Every header is checked before any payload is read: the magic and size
    of each file, and one column count, the location count n, for all."""
    shapes = [_read_header(p) for p in paths]
    counts = [cols for _, cols in shapes]
    if len(set(counts)) != 1:
        raise ShapeMismatchError(f"all datasets must share the location count n, got {counts}")
    stack = np.empty((sum(rows for rows, _ in shapes), counts[0]), dtype="<f8")
    top = 0
    for path, (rows, cols) in zip(paths, shapes):
        _read_rows(path, cols, 0, rows, out=stack[top : top + rows])
        top += rows
    return stack.astype(np.float64, copy=False)


def _read_header(path):
    """(rows, cols) from a matrix file's header, checked against the magic
    and the file size."""
    with _open(path, "rb") as f:
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


def _read_rows(path, cols, first, count, lo=0, hi=None, out=None) -> np.ndarray:
    """Columns lo .. hi - 1 (all ``cols`` by default) of rows first ..
    first + count - 1 of a matrix file of ``cols`` columns, as a float64
    (count, hi - lo) array: ``out``, a C-ordered little-endian array of that
    shape, if it is given."""
    hi = cols if hi is None else hi
    if out is None:
        out = np.empty((count, hi - lo), dtype="<f8")
    # whole rows are one stretch of the file; a column range is one per row
    stretches = [out.reshape(-1)] if hi - lo == cols else out
    with _open(path, "rb") as f:
        for i, stretch in enumerate(stretches):
            f.seek(_HEADER.size + ((first + i) * cols + lo) * 8)
            if f.readinto(stretch) != stretch.nbytes:
                raise ShapeMismatchError(f"{path}: file shrank while being read")
    return out.astype(np.float64, copy=False)


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
    It is the one reader of map payloads: ``run`` reads one run's maps, whole
    or over a range of locations, and ``rows`` single maps, so the CRCM
    holds one run, or one block of locations of every run, at a time and a
    caller that needs a few maps of many runs reads only those. Both apply
    the mask and raise NonFiniteError naming the file and the map."""

    paths: tuple
    n_C: int
    n: int
    mask: object  # boolean array over the stored map length, or None

    @property
    def K(self) -> int:
        return len(self.paths)

    def run(self, r, lo=0, hi=None) -> np.ndarray:
        """The masked maps of zero-based run r at locations lo .. hi - 1
        (all n by default), as a writable (n_C, hi - lo) array of its own."""
        return self._read(r, 0, self.n_C, lo, self.n if hi is None else hi)

    def rows(self, index) -> np.ndarray:
        """The masked maps at the zero-based (run, component) pairs of
        ``index``, as one writable array in its own memory map."""
        index = list(index)
        out = _mapped_zeros((len(index), self.n), np.float64)
        for i, (run, comp) in enumerate(index):
            out[i] = self._read(run, comp, 1, 0, self.n)[0]
        return out

    def _read(self, run, first, count, lo, hi) -> np.ndarray:
        """Maps first .. first + count - 1 of run ``run``, masked, at
        locations lo .. hi - 1, as a (count, hi - lo) array. With a mask,
        the stored columns from the first to the last wanted location are
        read and the wanted ones gathered from them."""
        if not (0 <= run < self.K and 0 <= first and first + count <= self.n_C):
            raise ShapeMismatchError(
                f"no map (run {run}, component {first}) in {self.K} runs of "
                f"{self.n_C} components (zero-based)"
            )
        if not 0 <= lo < hi <= self.n:
            raise ShapeMismatchError(f"no locations {lo} .. {hi - 1} in maps of length {self.n}")
        path = self.paths[run]
        if self.mask is None:
            maps = _read_rows(path, self.n, first, count, lo, hi)
        else:
            at = np.flatnonzero(self.mask)[lo:hi]
            covering = _read_rows(path, self.mask.shape[0], first, count, int(at[0]), int(at[-1]) + 1)
            # take, not an index: an index would lay the maps out column-major,
            # and a map's mean would then sum in another order than when read
            # from a RunCollection
            maps = np.take(covering, at - at[0], axis=1)
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
        rows, cols = _read_header(p)
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
    missing, unknown or repeated key, a value that does not parse, a
    ``rank`` other than the component's position, or a header ``n_C`` or
    ``K`` that the components disagree with raises IoFailureError naming
    the file and the key; values that do not form a valid report, or
    p-values and significance flags that differ from those its null sample
    gives, raise IoFailureError naming the file."""
    base = os.path.dirname(os.path.abspath(path))
    header = {}
    components = []
    for key, value in _read_kv(path, section_key="[component]"):
        if key == "[component]":
            components.append({})
            continue
        section, known = (components[-1], _COMPONENT_KEYS) if components else (header, _HEADER_KEYS)
        if key not in known:
            raise IoFailureError(f"{path}: unknown report key {key!r}")
        if key in section:
            raise IoFailureError(f"{path}: repeated key {key!r}")
        section[key] = value

    def need(d, key, parse=str):
        if key not in d:
            raise IoFailureError(f"{path}: missing key {key!r}")
        try:
            return parse(d[key])
        except ValueError as e:
            raise IoFailureError(f"{path}: bad value for {key!r}: {e}") from e

    n_C, K = need(header, "n_C", int), need(header, "K", int)
    null_path = os.path.join(base, need(header, "null_sample"))
    null_rows = read_matrix(null_path)
    if null_rows.shape[0] != 1 or null_rows.shape[1] < 1:
        raise IoFailureError(
            f"{null_path}: null sample must be one row of at least one value, "
            f"got {null_rows.shape[0]}x{null_rows.shape[1]}"
        )
    null_sample = null_rows[0]
    p_crit = need(header, "p_crit", float)
    for position, c in enumerate(components, start=1):
        if need(c, "rank", int) != position:
            raise IoFailureError(f"{path}: component {position} has 'rank' = {c['rank']}")
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
    with _open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_kv(path, section_key=None):
    """Yield (key, value) pairs; section markers are yielded as
    (marker, None) when section_key is given."""
    with _open(path, "r") as f:
        try:
            raw = f.read()
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


def load_pipeline_config(path) -> dict:
    """An INI pipeline config file as ``{section: {key: value}}``, with
    every section of ``config.SECTION_KEYS`` present (empty when the file
    leaves it out). An unknown section or key, a value of the wrong type or
    a non-text file raises ValueError naming the file; bounds are left to
    the config class that the subcommand reading the section builds.
    Values are literal (no % interpolation), and a [DEFAULT] section,
    which configparser would copy into every other section, is unknown."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    with _open(path, "r") as f:
        try:
            parser.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ValueError(f"{path}: {e}") from e
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")

    out = {name: {} for name in SECTION_KEYS}
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTION_KEYS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = SECTION_KEYS[section][key](raw)
            except ValueError as e:
                raise ValueError(f"{path}: bad value for {section}.{key}: {raw!r}") from e
    return out
