"""Posterior sample sets and their CSV schema (shared by ABC and MCMC)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


@dataclass
class SampleSet:
    """Posterior draws of theta with provenance.

    ``distances`` / ``component_distances`` are present for ABC output and
    absent for MCMC; the CSV schema is shared so diagnostics can consume
    either.
    """

    draws: np.ndarray
    method: str
    param_names: tuple
    distances: np.ndarray | None = None
    component_distances: np.ndarray | None = None
    manifest: dict | None = None

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))

    @property
    def m(self) -> int:
        return self.draws.shape[0]

    @property
    def p(self) -> int:
        return self.draws.shape[1]


def csv_text(header, rows) -> str:
    """CSV text of a header and rows; floats are written as shortest
    round-trip reprs, so re-parsing is bit-exact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                      for v in row] for row in rows)
    return buf.getvalue()


def sample_set_to_csv(ss: SampleSet) -> str:
    """One theta per row; distance columns appended when available."""
    header, columns = list(ss.param_names), [ss.draws]
    if ss.component_distances is not None:
        header += [f"dist_{i + 1}" for i in range(ss.component_distances.shape[1])]
        columns.append(np.asarray(ss.component_distances, dtype=float))
    if ss.distances is not None:
        header.append("dist_total")
        columns.append(np.asarray(ss.distances, dtype=float)[:, None])
    return csv_text(header, np.hstack(columns))


def sample_set_from_csv(text: str, method: str = "csv") -> SampleSet:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    dist_cols = [i for i, name in enumerate(header) if name.startswith("dist_")]
    param_cols = [i for i in range(len(header)) if i not in dist_cols]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    draws = data[:, param_cols]
    distances = None
    component = None
    comp_cols = [i for i in dist_cols if header[i] != "dist_total"]
    if comp_cols:
        component = data[:, comp_cols]
    if "dist_total" in header:
        distances = data[:, header.index("dist_total")]
    return SampleSet(draws=draws, method=method,
                     param_names=tuple(header[i] for i in param_cols),
                     distances=distances, component_distances=component)
