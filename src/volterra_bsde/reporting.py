"""Check rows and the CSV text of every CLI artifact (the numerical
modules return arrays; only this module knows the format)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def fmt(x):
    """17-significant-digit decimal rendering used by every CSV writer."""
    return format(float(x), ".17g")


def csv_text(header, rows):
    """The header line(s), then the rows, then a trailing newline."""
    head = [header] if isinstance(header, str) else list(header)
    return "\n".join([*head, *rows]) + "\n"


def column_csv_rows(*columns):
    """One row per index across the columns, each value rendered by fmt."""
    return (",".join(map(fmt, row)) for row in zip(*columns))


def grid_csv_rows(tgrid, xgrid, *tables):
    """CSV text "t,x,v1,v2,..." over a (t, x) grid, one string per time row.

    Each row is the bulk form of  f"{fmt(t)},{fmt(x)},{fmt(v1[i, j])},..."
    over j: t and x are rendered once and the values fill one "%.17g"
    template, which renders every float (+-0, inf, nan too) as fmt does.
    A path dump "p,t,a,b" is the grid ``np.arange(k)`` x times: fmt
    renders an int path id as f"{p}" does.
    """
    xs = [fmt(x) for x in xgrid]
    cells = ",%.17g" * len(tables)
    for i, t in enumerate(tgrid):
        ts = fmt(t)
        template = "\n".join(f"{ts},{x}{cells}" for x in xs)
        values = np.stack([tab[i] for tab in tables], axis=-1).ravel().tolist()
        yield template % tuple(values)


@dataclass(frozen=True)
class CheckRow:
    name: str
    lhs: float
    rhs: float
    stderr: float
    tol: float
    passed: bool


@dataclass
class Report:
    """A named bundle of check rows with an overall verdict."""

    title: str
    rows: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def add(self, name, lhs, rhs, stderr, tol):
        passed = abs(lhs - rhs) <= tol
        self.rows.append(
            CheckRow(name=name, lhs=float(lhs), rhs=float(rhs),
                     stderr=float(stderr), tol=float(tol), passed=passed)
        )
        return passed

    def add_row(self, name, lhs, rhs, stderr, tol, passed):
        self.rows.append(
            CheckRow(name=name, lhs=float(lhs), rhs=float(rhs),
                     stderr=float(stderr), tol=float(tol), passed=bool(passed))
        )
        return bool(passed)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_csv_text(self):
        return csv_text("check_name,lhs,rhs,stderr,pass", (
            f"{r.name},{fmt(r.lhs)},{fmt(r.rhs)},{fmt(r.stderr)},{int(r.passed)}"
            for r in self.rows))

    def to_value_csv_text(self):
        """bsde-style rendering: check,value,tolerance,pass."""
        return csv_text("check,value,tolerance,pass", (
            f"{r.name},{fmt(r.lhs - r.rhs)},{fmt(r.tol)},{int(r.passed)}"
            for r in self.rows))
