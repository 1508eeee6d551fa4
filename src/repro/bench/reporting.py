"""Plain-text rendering of experiment results.

Every experiment's dataclasses get a renderer that prints the same rows
or series the paper reports, so a terminal run of ``repro all`` reads like
the evaluation section.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bench.experiments import (
    BatchThroughputResult,
    CdfResult,
    Fig5Result,
    Fig9Result,
    Fig11Result,
    Fig12Result,
    InsertionVisitResult,
    Table1Row,
    Table2Row,
    Table3Row,
)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Align columns of a small table for terminal output."""
    materialized = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _fmt(seconds: float) -> str:
    return f"{seconds:.3f}"


def render_table1(rows: list[Table1Row]) -> str:
    """Table I: stand-in statistics side by side with the paper's."""
    return format_table(
        ["dataset", "n", "m", "avg deg", "max k",
         "paper n", "paper m", "paper avg", "paper max k"],
        [
            (r.dataset, r.n, r.m, r.avg_deg, r.max_k,
             r.paper_n, r.paper_m, r.paper_avg_deg, r.paper_max_k)
            for r in rows
        ],
    )


def render_fig1(results: list[InsertionVisitResult]) -> str:
    """Fig. 1: visited-count buckets, traversal (left) vs order (right)."""
    headers = ["dataset", "engine"] + list(results[0].labels)
    rows = []
    for r in results:
        rows.append(
            [r.dataset, "traversal"]
            + [f"{p:.3f}" for p in r.traversal_proportions]
        )
        rows.append(
            ["", "order"] + [f"{p:.3f}" for p in r.order_proportions]
        )
    return format_table(headers, rows)


def render_fig2(results: list[InsertionVisitResult]) -> str:
    """Fig. 2: sum visited / sum updated, per engine."""
    return format_table(
        ["dataset", "traversal |V'|/|V*|", "order |V+|/|V*|"],
        [
            (r.dataset, f"{r.traversal_ratio:.2f}", f"{r.order_ratio:.2f}")
            for r in results
        ],
    )


def _cdf_milestones(cdf: CdfResult, thresholds=(1, 10, 100, 1000, 10000)) -> list[str]:
    cells = []
    for t in thresholds:
        fraction = 0.0
        for x, f in zip(cdf.xs, cdf.fractions):
            if x <= t:
                fraction = f
            else:
                break
        cells.append(f"{fraction:.2f}")
    return cells


def render_fig5(results: list[Fig5Result]) -> str:
    """Fig. 5: fraction of vertices with structure size <= threshold."""
    thresholds = (1, 10, 100, 1000, 10000)
    headers = ["dataset", "structure"] + [f"<={t}" for t in thresholds]
    rows = []
    for r in results:
        for label, cdf in (("pc", r.pc), ("sc", r.sc), ("oc", r.oc)):
            rows.append([r.dataset, label] + _cdf_milestones(cdf, thresholds))
    return format_table(headers, rows)


def render_fig9(results: list[Fig9Result]) -> str:
    """Fig. 9: |V+|/|V*| per k-order generation heuristic."""
    return format_table(
        ["dataset", "small deg+", "large deg+", "random deg+"],
        [
            (
                r.dataset,
                f"{r.ratios['small']:.2f}",
                f"{r.ratios['large']:.2f}",
                f"{r.ratios['random']:.2f}",
            )
            for r in results
        ],
    )


def render_fig10(results: list[CdfResult], title: str) -> str:
    """Figs. 10a/10b: CDF milestones per dataset."""
    thresholds = (1, 2, 3, 5, 10, 100)
    headers = [title] + [f"<={t}" for t in thresholds]
    rows = [[r.dataset] + _cdf_milestones(r, thresholds) for r in results]
    return format_table(headers, rows)


def render_table2(rows: list[Table2Row]) -> str:
    """Table II: accumulated seconds per engine, insert then remove."""
    engines = list(rows[0].insert_seconds)
    headers = (
        ["dataset"]
        + [f"ins {e}" for e in engines]
        + [f"rem {e}" for e in engines]
        + ["ins speedup", "rem speedup"]
    )
    table_rows = []
    for r in rows:
        table_rows.append(
            [r.dataset]
            + [_fmt(r.insert_seconds[e]) for e in engines]
            + [_fmt(r.remove_seconds[e]) for e in engines]
            + [f"{r.insert_speedup():.1f}x", f"{r.remove_speedup():.1f}x"]
        )
    return format_table(headers, table_rows)


def render_table3(rows: list[Table3Row]) -> str:
    """Table III: index creation seconds per engine."""
    engines = list(rows[0].build_seconds)
    return format_table(
        ["dataset"] + engines,
        [
            [r.dataset] + [_fmt(r.build_seconds[e]) for e in engines]
            for r in rows
        ],
    )


def render_fig11(results: list[Fig11Result]) -> str:
    """Fig. 11: insertion time and size ratios across sample fractions."""
    headers = [
        "dataset", "axis", "fraction", "seconds", "edge ratio", "vertex ratio",
    ]
    rows = []
    for r in results:
        for axis, points in (("|V|", r.vary_vertices), ("|E|", r.vary_edges)):
            for p in points:
                rows.append(
                    [
                        r.dataset,
                        axis,
                        f"{p.fraction:.0%}",
                        _fmt(p.seconds),
                        f"{p.edge_ratio:.2f}",
                        f"{p.vertex_ratio:.2f}",
                    ]
                )
    return format_table(headers, rows)


def render_fig12(results: list[Fig12Result]) -> str:
    """Fig. 12: per-group accumulated seconds (and updates) over groups."""
    headers = ["dataset", "p", "group", "seconds", "|V*| in group"]
    rows = []
    for r in results:
        for i, (sec, changed) in enumerate(
            zip(r.group_seconds, r.group_changed)
        ):
            rows.append([r.dataset, f"{r.p:.1f}", i + 1, _fmt(sec), changed])
    return format_table(headers, rows)


def render_batch(results: list[BatchThroughputResult]) -> str:
    """Batch pipeline: per-edge vs batched replay of a mixed stream.

    The last two columns carry the order engines' k-order stats over
    the batched replay: order tests answered and OM-list relabelings.
    """
    headers = [
        "dataset", "engine", "ops", "batch", "p",
        "per-edge s", "batched s", "speedup", "mcd/edge", "mcd/batch",
        "queries", "relabels",
    ]
    rows = []
    for result in results:
        for row in result.rows:
            rows.append(
                [
                    result.dataset,
                    row.engine,
                    row.ops,
                    result.batch_size,
                    f"{result.p:.1f}",
                    _fmt(row.per_edge_seconds),
                    _fmt(row.batched_seconds),
                    f"{row.speedup:.2f}x",
                    row.mcd_per_edge if row.mcd_per_edge is not None else "-",
                    row.mcd_batched if row.mcd_batched is not None else "-",
                    row.order_queries if row.order_queries is not None else "-",
                    row.relabels if row.relabels is not None else "-",
                ]
            )
    return format_table(headers, rows)
