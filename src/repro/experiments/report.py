"""Plain-text report rendering, including Table 1 of the paper.

The benchmark harness prints these renderings so that the regenerated
numbers can be compared side by side with the paper's figures.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.3f}",
) -> str:
    """Render a simple aligned text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def table1_comparison() -> Dict[str, Dict[str, str]]:
    """Table 1: qualitative comparison of FL solutions for heterogeneity.

    The entries mirror the paper's table: how aware each algorithm is of
    data heterogeneity and resource heterogeneity, and whether it actively
    minimises the training time.  The reproduction's benchmark
    (`benchmarks/bench_table1_comparison.py`) additionally verifies the
    behavioural claims that are measurable (e.g. only TiFL and Aergia react
    to resource heterogeneity; only Aergia reduces the round time without
    dropping accuracy).
    """
    return {
        "FedAvg": {
            "data_heterogeneity": "-",
            "resource_heterogeneity": "-",
            "minimizes_training_time": "no",
        },
        "FedProx": {
            "data_heterogeneity": "+",
            "resource_heterogeneity": "-",
            "minimizes_training_time": "no",
        },
        "FedNova": {
            "data_heterogeneity": "+",
            "resource_heterogeneity": "-",
            "minimizes_training_time": "no",
        },
        "TiFL": {
            "data_heterogeneity": "+",
            "resource_heterogeneity": "+",
            "minimizes_training_time": "yes",
        },
        "Aergia": {
            "data_heterogeneity": "++",
            "resource_heterogeneity": "++",
            "minimizes_training_time": "yes",
        },
    }


def render_table1() -> str:
    """Text rendering of Table 1."""
    table = table1_comparison()
    rows = [
        [
            name,
            entry["data_heterogeneity"],
            entry["resource_heterogeneity"],
            entry["minimizes_training_time"],
        ]
        for name, entry in table.items()
    ]
    return format_table(
        headers=["Algorithm", "Data het. aware", "Resource het. aware", "Minimizes training time"],
        rows=rows,
        title="Table 1. FL solutions for heterogeneous settings",
    )


def render_summaries(summaries: Mapping[str, Mapping[str, float]], title: str = "") -> str:
    """Render per-label experiment summaries as a table."""
    headers = ["label", "final_accuracy", "total_time_s", "mean_round_duration_s", "total_offloads", "total_dropped"]
    rows = [
        [
            label,
            float(summary["final_accuracy"]),
            float(summary["total_time_s"]),
            float(summary["mean_round_duration_s"]),
            float(summary["total_offloads"]),
            float(summary["total_dropped"]),
        ]
        for label, summary in summaries.items()
    ]
    return format_table(headers, rows, title=title)


def render_network_counters(
    summaries: Mapping[str, Mapping[str, float]], title: str = ""
) -> str:
    """Render the per-label network/transport counters (``net_*`` summary keys).

    Returns an empty string when no summary carries network counters (runs
    recorded before the counters existed), so callers can print the result
    unconditionally.
    """
    keys: List[str] = sorted(
        {key for summary in summaries.values() for key in summary if key.startswith("net_")}
    )
    if not keys:
        return ""
    headers = ["label", *(key[len("net_"):] for key in keys)]
    rows = [
        [label, *(float(summary.get(key, 0.0)) for key in keys)]
        for label, summary in summaries.items()
    ]
    return format_table(headers, rows, title=title, float_format="{:.0f}")
