"""Per-figure/table experiment harnesses (see DESIGN.md §4 for the index).

Submodules load on first use, so reading the ``reproduce`` target table
(:data:`repro.experiments.report.TARGETS`), which the CLI parser does
for every command, imports no experiment and no scipy.
"""

from importlib import import_module

__all__ = [
    "figure2",
    "figure4",
    "figure9",
    "figure10_12",
    "figure13",
    "figure14",
    "table1",
    "report",
    "extra",
    "extensions",
    "bounds_check",
    "cluster",
    "coscheduling",
    "dear",
    "drift",
    "elastic",
    "ablations",
    "faults",
    "recovery",
    "stealing",
    "tuned_knobs",
    "TUNED_KNOBS",
    "PAPER_SETUPS",
    "format_table",
    "setup_cluster",
]

#: Names re-exported from a submodule, and the submodule that holds each.
_REEXPORTED = {
    "tuned_knobs": "knobs",
    "TUNED_KNOBS": "knobs",
    "PAPER_SETUPS": "common",
    "format_table": "common",
    "setup_cluster": "common",
}


def __getattr__(name: str):
    if name in _REEXPORTED:
        return getattr(import_module(f"{__name__}.{_REEXPORTED[name]}"), name)
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
