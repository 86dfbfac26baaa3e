"""Molecular property datasets and their linear models.

Two datasets ship with the package: boiling points of 21 benzenoid
hydrocarbons and four properties of the 18 octane isomers, each together with
the Sombor (p=2) spectral radius and energy of the carbon skeleton. The
reference slope/intercept/correlation values the fits are compared against
are the published ones for these datasets, printed to about four significant
figures.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources

from . import config
from .extremal import enumerate_trees
from .invariants import _left_sum, graph_energy
from .spectral import build_sombor_matrix, eigen_decompose_many

KNOWN_COLUMNS = ("BP", "AcenFac", "Entropy", "SNar", "HNar", "xi1", "SE")


@dataclass
class MoleculeRecord:
    id: str
    name: str | None
    properties: dict[str, float]


@dataclass(frozen=True)
class RegressionFit:
    x_label: str
    y_label: str
    slope: float
    intercept: float
    pearson_r: float
    sample_count: int

    def to_dict(self) -> dict:
        return {"x": self.x_label, "y": self.y_label, "slope": self.slope,
                "intercept": self.intercept, "pearson_r": self.pearson_r,
                "sample_count": self.sample_count}


def _parse_rows(reader: csv.DictReader, source: str) -> list[MoleculeRecord]:
    fields = reader.fieldnames or []
    unknown = [f for f in fields if f not in KNOWN_COLUMNS + ("No.", "name")]
    if unknown:
        warnings.warn(f"{source}: ignoring unknown columns {unknown}")
    records = []
    for rownum, row in enumerate(reader, start=2):
        props = {}
        for key in KNOWN_COLUMNS:
            cell = row.get(key)
            if cell is None or cell.strip() == "":
                continue
            try:
                props[key] = float(cell)
            except ValueError:
                raise ValueError(f"{source}: non-numeric cell {cell!r} "
                                 f"in column {key} at row {rownum}")
        records.append(MoleculeRecord(id=row.get("No.", str(rownum - 1)),
                                      name=row.get("name"), properties=props))
    return records


def load_dataset(path) -> list[MoleculeRecord]:
    """Read molecule records from a CSV file with a known-column header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            warnings.warn(f"{path}: empty dataset")
            return []
        return _parse_rows(reader, str(path))


def _bundled(name: str) -> list[MoleculeRecord]:
    text = resources.files("psombor.data").joinpath(name).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    return _parse_rows(reader, name)


def benzenoid_dataset() -> list[MoleculeRecord]:
    return _bundled("benzenoid_bp.csv")


def octane_dataset() -> list[MoleculeRecord]:
    """The 18 octane isomers as printed in the source table.

    Erratum: row 9 (2,5-dimethylhexane) prints (xi1, SE) = (6.4167, 25.9628),
    a pair that belongs to no octane skeleton; its skeleton computes to
    (6.5486, 27.0101). The printed values are kept because the published
    reference fits were computed from them, so octane_crosscheck reports
    row 9 as unmatched.
    """
    return _bundled("octane_properties.csv")


def linear_fit(records: list[MoleculeRecord], x_label: str, y_label: str) -> RegressionFit:
    """Ordinary least squares y = slope*x + intercept plus the Pearson
    correlation (population-normalized covariance over both deviations)."""
    pairs = [(r.properties[x_label], r.properties[y_label]) for r in records
             if x_label in r.properties and y_label in r.properties]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 records with {x_label} and {y_label}")
    n = len(pairs)
    mean_x = _left_sum(x for x, _ in pairs) / n
    mean_y = _left_sum(y for _, y in pairs) / n
    sxx = _left_sum((x - mean_x) ** 2 for x, _ in pairs) / n
    syy = _left_sum((y - mean_y) ** 2 for _, y in pairs) / n
    sxy = _left_sum((x - mean_x) * (y - mean_y) for x, y in pairs) / n
    if sxx == 0:
        raise ValueError(f"zero variance in {x_label}")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    pearson = sxy / math.sqrt(sxx * syy) if syy > 0 else 1.0
    return RegressionFit(x_label, y_label, slope, intercept, pearson, n)


# Published reference coefficients for the bundled datasets:
# (dataset, x, y) -> (slope, intercept, |pearson R| or None when unlisted).
REFERENCE_FITS = {
    ("benzenoid", "SE", "BP"): (4.658, 31.24, 0.9950),
    ("benzenoid", "xi1", "BP"): (134.6, -844.0, 0.8936),
    ("octane", "xi1", "AcenFac"): (-0.02465, 0.5263, None),
    ("octane", "xi1", "Entropy"): (-2.978, 128.4, None),
    ("octane", "xi1", "SNar"): (-0.2231, 5.256, None),
    ("octane", "xi1", "HNar"): (-0.05843, 1.86, None),
    ("octane", "SE", "AcenFac"): (-0.021, 0.9109, None),
    ("octane", "SE", "Entropy"): (-2.565, 175.7, None),
    ("octane", "SE", "SNar"): (-0.19, 8.735, None),
    ("octane", "SE", "HNar"): (-0.04981, 2.772, None),
}


@dataclass
class FitComparison:
    dataset: str
    fit: RegressionFit
    expected_slope: float
    expected_intercept: float
    expected_r: float | None
    slope_rel_dev: float
    intercept_rel_dev: float
    r_abs_dev: float | None

    @property
    def within_tolerance(self) -> bool:
        ok = (self.slope_rel_dev <= config.COEFF_REL_TOL
              and self.intercept_rel_dev <= config.COEFF_REL_TOL)
        if self.expected_r is not None:
            ok = ok and self.r_abs_dev <= config.CORR_ABS_TOL
        return ok

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            **self.fit.to_dict(),
            "expected_slope": self.expected_slope,
            "expected_intercept": self.expected_intercept,
            "expected_r": self.expected_r,
            "slope_rel_dev": self.slope_rel_dev,
            "intercept_rel_dev": self.intercept_rel_dev,
            "r_abs_dev": self.r_abs_dev,
            "within_tolerance": self.within_tolerance,
        }


def reproduce_regressions() -> list[FitComparison]:
    """All ten reference fits recomputed from the bundled tables."""
    datasets = {"benzenoid": benzenoid_dataset(), "octane": octane_dataset()}
    out = []
    for (ds, x, y), (slope, intercept, r) in REFERENCE_FITS.items():
        fit = linear_fit(datasets[ds], x, y)
        out.append(FitComparison(
            dataset=ds,
            fit=fit,
            expected_slope=slope,
            expected_intercept=intercept,
            expected_r=r,
            slope_rel_dev=abs(fit.slope - slope) / abs(slope),
            intercept_rel_dev=abs(fit.intercept - intercept) / abs(intercept),
            r_abs_dev=None if r is None else abs(abs(fit.pearson_r) - r),
        ))
    return out


# ---------------------------------------------------------------------------
# octane crosscheck: regenerate the 18 skeletons and match the table

@dataclass
class OctaneMatch:
    row_id: str
    table_radius: float
    table_energy: float
    tree_key: str | None
    tree_radius: float | None
    tree_energy: float | None
    matched: bool
    nearest: list | None = None   # candidates listed when unmatched


@dataclass
class OctaneReport:
    p: float
    tree_count: int
    matches: list[OctaneMatch]
    is_bijection: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "tree_count": self.tree_count,
            "is_bijection": self.is_bijection,
            "matches": [{
                "row": m.row_id,
                "table": [m.table_radius, m.table_energy],
                "tree_key": m.tree_key,
                "computed": None if m.tree_radius is None else [m.tree_radius, m.tree_energy],
                "matched": m.matched,
                **({"nearest": m.nearest} if m.nearest else {}),
            } for m in self.matches],
        }


def octane_crosscheck(p: float = 2.0, atol: float | None = None) -> OctaneReport:
    """Match the octane table rows against the 18 trees on 8 vertices with
    maximum degree 4 by (spectral radius, energy), greedily nearest-first.

    Unmatched rows are reported with their nearest candidates instead of
    raising, per the dataset-validation contract.
    """
    atol = config.OCTANE_MATCH_ATOL if atol is None else atol
    catalog = enumerate_trees(8, max_degree=4)
    decs = eigen_decompose_many([(build_sombor_matrix(tree, p), "p_sombor", p)
                                 for tree in catalog.trees])
    computed = [(key, dec.radius, graph_energy(dec))
                for key, dec in zip(catalog.canonical_keys, decs)]
    rows = [(r.id, r.properties["xi1"], r.properties["SE"]) for r in octane_dataset()]

    # Nearest-first greedy assignment; exact within-atol pairs lock in first.
    candidates = []
    for ri, (rid, rx, re_) in enumerate(rows):
        for ti, (key, tx, te) in enumerate(computed):
            candidates.append((max(abs(rx - tx), abs(re_ - te)), ri, ti))
    candidates.sort()
    row_match: dict[int, int] = {}
    tree_used: set[int] = set()
    for dist, ri, ti in candidates:
        if dist > atol:
            break
        if ri in row_match or ti in tree_used:
            continue
        row_match[ri] = ti
        tree_used.add(ti)

    matches = []
    for ri, (rid, rx, re_) in enumerate(rows):
        if ri in row_match:
            key, tx, te = computed[row_match[ri]]
            matches.append(OctaneMatch(rid, rx, re_, key, tx, te, True))
        else:
            near = sorted(computed, key=lambda c: max(abs(rx - c[1]), abs(re_ - c[2])))[:3]
            matches.append(OctaneMatch(
                rid, rx, re_, None, None, None, False,
                nearest=[{"tree_key": k, "radius": x, "energy": e} for k, x, e in near]))
    bijection = len(row_match) == len(rows) == len(computed)
    return OctaneReport(p=p, tree_count=len(computed), matches=matches,
                        is_bijection=bijection)


def scatter_csv(records: list[MoleculeRecord], x_label: str, y_label: str) -> str:
    """x,y pairs as CSV text for external plotting."""
    lines = [f"{x_label},{y_label}"]
    for r in records:
        if x_label in r.properties and y_label in r.properties:
            lines.append(f"{r.properties[x_label]!r},{r.properties[y_label]!r}")
    return "\n".join(lines) + "\n"


def comparison_markdown(comparisons: list[FitComparison]) -> str:
    """Markdown table of fitted vs reference coefficients."""
    head = ("| dataset | y ~ x | slope | ref slope | intercept | ref intercept "
            "| R | ref R | ok |\n|---|---|---|---|---|---|---|---|---|")
    rows = []
    for c in comparisons:
        f = c.fit
        ref_r = "" if c.expected_r is None else f"{c.expected_r:.4f}"
        rows.append(
            f"| {c.dataset} | {f.y_label} ~ {f.x_label} | {f.slope:.6g} "
            f"| {c.expected_slope:.6g} | {f.intercept:.6g} "
            f"| {c.expected_intercept:.6g} | {f.pearson_r:.4f} | {ref_r} "
            f"| {'yes' if c.within_tolerance else 'NO'} |")
    return "\n".join([head] + rows) + "\n"
