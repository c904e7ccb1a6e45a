"""The one output path of the CLI's tables and charts: csv_text, which reads a table
by column, is the one cell rule, write_files the one file writer and with_charts
the one output-format check.  svgplot, and with it numpy, is imported only for svg."""

from __future__ import annotations

from pathlib import Path


def csv_text(header: str, columns) -> str:
    """header plus one line per row of columns (iterables of one length), newline-terminated:
    the one cell rule of every CSV the CLI writes.  True/False are true/false, None is an
    empty cell and any other value is str(v), for a float its shortest repr."""
    # A column at a time: one comprehension per column instead of one per
    # row, which on CPython 3.11 costs a function call each.
    cells = [["true" if v is True else "false" if v is False
              else "" if v is None else str(v) for v in column]
             for column in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def write_files(out_dir: str | Path, texts: dict[str, str]) -> list[Path]:
    """Write each named text into out_dir, made if missing, as UTF-8 (the
    encoding configs are read in); returns the paths in the order of texts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in texts]


def with_charts(texts: dict[str, str], fmt: str, prefix: str, series, title: str,
                x_label: str) -> dict[str, str]:
    """texts plus, for fmt="svg", the eta and rate line charts
    <prefix>_<metric>.svg of series(metric); a fmt other than csv|svg raises."""
    if fmt == "csv":
        return texts
    if fmt != "svg":
        raise ValueError(f"format must be csv|svg, got {fmt!r}")
    from . import svgplot
    return texts | {f"{prefix}_{metric}.svg": svgplot.render_lines(
                        series(metric), title=f"{metric} vs {title}",
                        x_label=x_label, y_label=label)
                    for metric, label in (("eta", "bits/Joule"), ("rate", "bits/s"))}
