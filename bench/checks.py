"""Correctness checks on the files a workload wrote.

They parse the documented output formats (``.rnm`` matrices, ``report.txt``,
``truth.txt``) directly rather than through ``raicarn.io``, so a change to
the program's own readers cannot hide a wrong output. Each check returns
an error message, or None when the output is correct.
"""

import hashlib
import os
import struct

import numpy as np

_HEADER = struct.Struct("<4sII")


class FormatError(Exception):
    pass


def read_rnm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, rows, cols = _HEADER.unpack_from(data)
    if magic != b"RNM1" or len(data) != _HEADER.size + rows * cols * 8:
        raise FormatError(f"{path}: not a {rows}x{cols} RNM1 matrix")
    return np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)


def _kv_lines(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def read_report(path):
    """Components in rank order as dicts with ``significant`` (bool) and
    ``members`` (list of zero-based (run, component, sign))."""
    components = []
    for line in _kv_lines(path):
        if line == "[component]":
            components.append({})
            continue
        key, _, value = (t.strip() for t in line.partition("="))
        if not components:
            continue
        if key == "significant":
            components[-1]["significant"] = value == "true"
        elif key == "members":
            members = []
            for tok in value.split():
                run, comp, sign = tok.split(":")
                members.append((int(run) - 1, int(comp) - 1, 1 if sign == "+" else -1))
            components[-1]["members"] = members
    for c in components:
        if "significant" not in c or "members" not in c:
            raise FormatError(f"{path}: component without significant/members")
    return components


def read_truth(path):
    """Planted sets from ``truth.txt`` as frozensets of zero-based (run, component)."""
    sets = []
    for line in _kv_lines(path):
        _, _, value = line.partition("=")
        slots = (tok.split(":") for tok in value.split())
        sets.append(frozenset((int(r) - 1, int(c) - 1) for r, c in slots))
    return sets


def check_planted(report_path, truth_path):
    """The significant components must be exactly the planted sets."""
    try:
        report = read_report(report_path)
        truth = set(read_truth(truth_path))
    except (OSError, ValueError, FormatError) as e:
        return f"unreadable report or truth: {e}"
    significant = {frozenset((r, c) for r, c, _ in comp["members"])
                   for comp in report if comp["significant"]}
    if significant != truth:
        return (f"significant set differs from planted: {len(significant & truth)} of "
                f"{len(truth)} planted sets found, {len(significant - truth)} extra")
    return None


def check_mixture(mix_dir, report_path, n):
    """Every significant rank has a t-map, labels in {-1, 0, +1} and a
    histogram whose counts sum to n (or, when its fit says ``degenerate``,
    all-null labels and no histogram); no other rank has outputs."""
    try:
        report = read_report(report_path)
        expected = {f"comp{rank:02d}" for rank, comp in enumerate(report, start=1)
                    if comp["significant"]}
        found = {name.split("_", 1)[0] for name in os.listdir(mix_dir)}
        if found != expected:
            return f"mixture outputs for {sorted(found)}, expected {sorted(expected)}"
        for prefix in sorted(expected):
            base = os.path.join(mix_dir, prefix)
            tstat = read_rnm(base + "_tstat.rnm")
            labels = read_rnm(base + "_labels.rnm")
            if tstat.shape != (1, n) or labels.shape != (1, n):
                return f"{prefix}: t-map or labels not 1x{n}"
            if not np.isin(labels, (-1.0, 0.0, 1.0)).all():
                return f"{prefix}: labels outside {{-1, 0, +1}}"
            if "degenerate = true" in set(_kv_lines(base + "_fit.txt")):
                if labels.any() or os.path.exists(base + "_hist.rnm"):
                    return f"{prefix}: degenerate fit with labels or a histogram"
                continue
            hist = read_rnm(base + "_hist.rnm")
            if hist.shape[0] != 6 or hist[2].sum() != n:
                return f"{prefix}: histogram counts do not sum to {n}"
    except (OSError, ValueError, FormatError) as e:
        return f"unreadable mixture output: {e}"
    return None


def source_match(report_path, component_paths, sources):
    """For each true source, the best match by a significant component,
    scored by the weakest |correlation| of any of its member maps with the
    source, so one misassigned member spoils the match."""
    report = read_report(report_path)
    runs = [read_rnm(p) for p in component_paths]
    S = _unit_rows(sources)
    best = np.zeros(S.shape[0])
    for comp in report:
        if comp["significant"]:
            members = _unit_rows(np.stack([runs[r][c] for r, c, _ in comp["members"]]))
            best = np.maximum(best, np.abs(S @ members.T).min(axis=1))
    return best


def _unit_rows(X):
    X = X - X.mean(axis=1, keepdims=True)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def check_restarts(report_path, component_paths, sources, threshold):
    try:
        best = source_match(report_path, component_paths, sources)
    except (OSError, ValueError, FormatError) as e:
        return f"unreadable report or components: {e}", None
    if best.min() < threshold:
        return (f"source {int(best.argmin()) + 1} matched at |r| = {best.min():.3f} "
                f"< {threshold}"), best
    return None, best


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
