"""Artifact serialization: CSVs through the one writer ``csv_text``, JSON
with fixed float formatting, atomic writes, manifests and tidy plot-data
series.

Every float in persisted artifacts is rendered with 17 significant digits,
which round-trips IEEE doubles exactly, so reruns with the same seed can be
compared byte for byte.  Writes go through a create-or-verify gate: a file
is only replaced when the new content is identical, otherwise the write is
refused (artifacts are never mutated).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ArtifactConflictError, ValidationError
from .harness import TrialResult

try:
    from importlib.metadata import version as _pkg_version

    PACKAGE_VERSION = _pkg_version("deltatorus")
except Exception:  # not installed, e.g. run from a checkout
    PACKAGE_VERSION = "unknown"


def fmt_float(x) -> str:
    """One CSV or JSON cell: a bool as 0/1, a float at 17 significant digits
    (nan, inf, -inf spelled out), anything else as str."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def dumps_json(obj) -> str:
    """JSON text indented one space per level, floats at 17 significant
    digits, keys in given order."""

    def render(o, level):
        pad = " " * level
        pad_in = " " * (level + 1)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f"{pad_in}{json.dumps(str(k))}: {render(v, level + 1)}"
                for k, v in o.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad_in}{render(v, level + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, float):
            if math.isnan(o) or math.isinf(o):
                return json.dumps(fmt_float(o))
            return fmt_float(o)
        if isinstance(o, int):
            return str(o)
        return json.dumps(o)

    return render(obj, 0) + "\n"


def write_atomic(path, text: str) -> bool:
    """Create path with text; no-op if identical content exists already.

    Returns True when the file was written, False on a cache hit.  Raises
    ArtifactConflictError when the file exists with different content.
    """
    path = Path(path)
    if path.exists():
        old = path.read_text(encoding="utf-8")
        if old == text:
            return False
        raise ArtifactConflictError(f"{path} exists with different content")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return True


def params_digest(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_manifest(kind: str, params: dict, outputs: dict | None = None) -> dict:
    return {
        "kind": kind,
        "package": "deltatorus",
        "version": PACKAGE_VERSION,
        "numpy": np.__version__,
        "params": params,
        "params_sha256": params_digest(params),
        "outputs": outputs or {},
    }


# -- CSV artifacts -----------------------------------------------------------


def csv_text(header, rows) -> str:
    """The one CSV writer: a header line, then each row with every cell
    through fmt_float, "\n" line ends."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([fmt_float(c) for c in row] for row in rows)
    return buf.getvalue()


def trials_csv_text(results, zetas) -> str:
    """One row per trial: TrialResult's fields in declaration order, with
    a_vals expanded in place into one A_<shift> column per shift (nan where
    an endpoint landing stopped the A values).  A no-root row has
    trial_index, 1, 0 and then blank cells."""
    names = [f.name for f in fields(TrialResult)]
    a = names.index("a_vals")
    header = names[:a] + [f"A_{'_'.join(map(str, z))}" for z in zetas] + names[a + 1 :]

    def row(r):
        cells = [getattr(r, name) for name in names]
        cells[a : a + 1] = [r.a_vals.get(z, math.nan) for z in zetas]
        return cells[:3] + [""] * (len(header) - 3) if r.no_root else cells

    return csv_text(header, map(row, results))


PLOTDATA_SCHEMAS = {
    "err_vs_lambda": ["m_k", "median_err", "q10", "q90"],
    # the mc --trend-mk rows: the series plus the trials behind each median
    "err_trend": ["m_k", "median_err", "q10", "q90", "count", "landings"],
    "density_vs_window": ["X", "density"],
    "freq_vs_c0": ["C0", "freq", "stderr", "bound"],
}


def plotdata_text(kind: str, rows) -> str:
    """Tidy CSV series for external plotting; schema is fixed per kind."""
    if kind not in PLOTDATA_SCHEMAS:
        raise ValidationError(
            f"unknown plot kind {kind!r}; known: {sorted(PLOTDATA_SCHEMAS)}"
        )
    cols = PLOTDATA_SCHEMAS[kind]
    return csv_text(cols, ([row[c] for c in cols] for row in rows))
