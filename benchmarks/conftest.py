"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artifact of the paper's
evaluation (see DESIGN.md §2): it *asserts* the qualitative claim (who
is polynomial, who blows up, which reductions are equivalences) and
*measures* with pytest-benchmark.  A report table is printed per module
so `pytest benchmarks/ --benchmark-only -s` reads like the paper.
"""

import math

import pytest


def fit_polynomial_degree(sizes, times):
    """Least-squares slope of log(time) against log(size).

    A slope bounded by a small constant across a geometric size sweep is
    the observable signature of polynomial (here: low-degree) scaling.
    Tiny times are clamped to avoid log(0) noise.
    """
    pairs = [
        (math.log(size), math.log(max(time, 1e-7)))
        for size, time in zip(sizes, times)
    ]
    n = len(pairs)
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    denominator = sum((x - mean_x) ** 2 for x, _ in pairs)
    if denominator == 0:
        return 0.0
    return numerator / denominator


def print_table(title, headers, rows):
    """Render a small fixed-width table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


@pytest.fixture
def report():
    """A fixture collecting rows and printing them after the test."""

    class Report:
        def __init__(self):
            self.title = ""
            self.headers = ()
            self.rows = []

        def table(self, title, headers):
            self.title = title
            self.headers = headers
            return self

        def row(self, *cells):
            self.rows.append(cells)

        def flush(self):
            if self.rows:
                print_table(self.title, self.headers, self.rows)

    instance = Report()
    yield instance
    instance.flush()
