"""Parameter sweeps over single-source scenarios and the scaling fit."""

from __future__ import annotations

import csv
import functools
import io
import warnings
from dataclasses import dataclass

from .engine import run
from .protocol import RuleTable
from .robots import max_label_bits
from .scenario import ScenarioError, gen_single_source
from .verify import map_jobs

CSV_COLUMNS = ("n", "k", "L", "seed", "ruleset", "outcome", "rounds", "phases")


@dataclass(frozen=True)
class SweepSpec:
    vary: str                # "k", "L", or "n"
    points: tuple[int, ...]
    n: int
    k: int
    max_label: int
    seeds: int
    ruleset: RuleTable

    def parameters(self):
        for point in self.points:
            params = {"n": self.n, "k": self.k, "L": self.max_label}
            params[self.vary] = point
            for seed in range(self.seeds):
                yield params["n"], params["k"], params["L"], seed


@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    max_label: int
    seed: int
    ruleset: str
    outcome: str
    rounds: float  # integral for run rows; fractional for per-point means
    phases: float


def _sweep_worker(params: tuple[int, int, int, int], ruleset: RuleTable) -> SweepRow:
    n, k, max_label, seed = params
    try:
        with warnings.catch_warnings():
            # a label bound below k is the row's to report, not each run's
            warnings.simplefilter("ignore", UserWarning)
            scenario = gen_single_source(n, k, max_label, seed)
    except ScenarioError as exc:
        return SweepRow(n, k, max_label, seed, ruleset.value, f"error:{exc}", 0, 0)
    outcome = run(scenario, ruleset, record_rounds=False)
    return SweepRow(
        n, k, max_label, seed, ruleset.value,
        outcome.result.value, outcome.rounds_used, outcome.phases_used,
    )


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepRow]:
    """Run every sweep point; failures become per-row outcomes, never aborts.
    A row whose label bound L is below its robot count k is run without
    ``make_scenario``'s warning; the ``sweep`` command says it once."""
    worker = functools.partial(_sweep_worker, ruleset=spec.ruleset)
    return list(map_jobs(worker, spec.parameters(), workers, chunksize=8, serial_max=16))


def rows_to_csv(rows: list[SweepRow]) -> str:
    """The rows under a CSV_COLUMNS header; a field holding a comma, such as
    an error row's message, is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (row.n, row.k, row.max_label, row.seed, row.ruleset, row.outcome,
         row.rounds, row.phases)
        for row in rows
    )
    return out.getvalue()


@dataclass(frozen=True)
class LinearFit:
    coefficients: tuple[float, ...]  # aligned with features, intercept last
    features: tuple[str, ...]
    r_squared: float

    def describe(self) -> str:
        terms = [
            f"{coef:.3f}*{name}"
            for coef, name in zip(self.coefficients, self.features)
        ]
        terms.append(f"{self.coefficients[-1]:.3f}")
        return f"rounds ~ {' + '.join(terms)} (R^2 = {self.r_squared:.4f})"


# the features fit_rounds can fit against, each read from a row
_FEATURES = {
    "max_size": lambda row: max_label_bits(row.max_label),
    "k": lambda row: row.k,
    "n": lambda row: row.n,
}


def fit_rounds(
    rows: list[SweepRow],
    features: tuple[str, ...] = ("max_size", "k"),
    per_point_mean: bool = False,
) -> LinearFit:
    """Least-squares fit of rounds against the requested features plus an
    intercept, over dispersed rows only.

    With ``per_point_mean`` the seeds of each (n, k, L) point are averaged
    first, so the fit measures the scaling of the expected round count
    rather than per-seed label luck.  A feature other than ``max_size``,
    ``k`` and ``n`` raises ValueError before numpy is loaded.
    """
    unknown = [name for name in features if name not in _FEATURES]
    if unknown:
        raise ValueError(f"unknown fit features {unknown}; known: {', '.join(_FEATURES)}")
    usable = [row for row in rows if row.outcome == "dispersed"]
    if per_point_mean:
        by_point: dict[tuple[int, int, int], list[SweepRow]] = {}
        for row in usable:
            by_point.setdefault((row.n, row.k, row.max_label), []).append(row)
        usable = [
            SweepRow(n, k, max_label, -1, group[0].ruleset, "dispersed",
                     sum(r.rounds for r in group) / len(group),
                     sum(r.phases for r in group) / len(group))
            for (n, k, max_label), group in sorted(by_point.items())
        ]
    if len(usable) < len(features) + 1:
        raise ValueError("not enough dispersed rows to fit")
    # numpy is loaded only here, so importing the package and every command
    # but a fitting ``sweep`` start without it
    import numpy as np

    design = np.array(
        [[_FEATURES[name](row) for name in features] + [1.0] for row in usable]
    )
    y = np.array([row.rounds for row in usable], dtype=float)
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(tuple(float(c) for c in coeffs), features, r_squared)
