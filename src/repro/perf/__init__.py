"""Performance measurement: microbenchmarks and the regression harness."""

from repro.perf.harness import (
    BENCH_SCHEMA,
    compare,
    format_results,
    load_bench,
    run_suite,
    update_baseline,
    write_bench,
)
from repro.perf.micro import (
    MICROBENCHMARKS,
    bench_claim_protocol,
    bench_cluster,
    bench_dear,
    bench_drift,
    bench_end_to_end,
    bench_event_throughput,
    bench_link_burst,
    bench_scheduler_queue,
    bench_sweep,
)

__all__ = [
    "BENCH_SCHEMA",
    "MICROBENCHMARKS",
    "bench_claim_protocol",
    "bench_cluster",
    "bench_dear",
    "bench_drift",
    "bench_end_to_end",
    "bench_event_throughput",
    "bench_link_burst",
    "bench_scheduler_queue",
    "bench_sweep",
    "compare",
    "format_results",
    "load_bench",
    "run_suite",
    "update_baseline",
    "write_bench",
]
