#!/usr/bin/env python
"""Media-encoder power study: the paper's motivating scenario.

Embedded media ASIPs (the FR-V's market) spend their cycles in DCT,
JPEG and MPEG-2 kernels.  This example runs the suite's three media
benchmarks end to end and reports the full cache power story: the
original design, the strongest no-penalty prior art, the paper's
technique, and the paper's future-work line-buffer combination.

Run:  python examples/media_pipeline.py
"""

from repro.api import RunSpec, evaluate
from repro.experiments.reporting import bar_chart
from repro.workloads import load_workload

MEDIA = ("dct", "jpeg_enc", "mpeg2enc")

CONFIGS = (
    # (label, d-cache arch, i-cache arch)
    ("original", "original", "original"),
    ("prior art ([4] + [14])", "set-buffer", "panwar"),
    ("way memoization", "way-memo-2x8", "way-memo-2x16"),
    ("way memo + line buffer", "way-memo+line-buffer", "way-memo-2x16"),
)


def main() -> None:
    print("cache power on the media pipeline "
          "(32 kB 2-way I/D caches, 360 MHz)\n")
    totals = {label: 0.0 for label, _, _ in CONFIGS}
    for benchmark in MEDIA:
        workload = load_workload(benchmark)
        print(f"--- {benchmark} "
              f"({workload.trace.instructions} instructions, "
              f"{len(workload.trace.data)} data accesses)")
        baseline = None
        for label, d_arch, i_arch in CONFIGS:
            d = evaluate(RunSpec("dcache", d_arch, benchmark))
            i = evaluate(RunSpec("icache", i_arch, benchmark))
            p_d, p_i = d.power.total_mw, i.power.total_mw
            total = p_d + p_i
            totals[label] += total
            if baseline is None:
                baseline = total
            print(f"  {label:24s} {total:6.1f} mW "
                  f"(D {p_d:5.1f} + I {p_i:5.1f})  "
                  f"saving {1 - total / baseline:6.1%}  "
                  f"D-tags/acc {d.counters.tags_per_access:.2f}  "
                  f"I-tags/acc {i.counters.tags_per_access:.2f}")
        print()

    print("suite total:")
    print(bar_chart(
        [label for label, _, _ in CONFIGS],
        [totals[label] for label, _, _ in CONFIGS],
        unit="mW",
    ))
    base = totals[CONFIGS[0][0]]
    ours = totals["way memoization"]
    print(f"\nway memoization vs original: {1 - ours / base:.1%} "
          "lower cache power, zero added cycles")


if __name__ == "__main__":
    main()
