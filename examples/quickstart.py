#!/usr/bin/env python
"""Quickstart: measure what way memoization saves on a real program.

This walks the whole pipeline in ~40 lines of user code:

1. write a small FRL-32 assembly program (vector dot product),
2. execute it on the instruction-set simulator,
3. replay its data/fetch traces through the original cache and the
   paper's way-memoizing cache,
4. price both with the paper's power model (Equation 1).

Run:  python examples/quickstart.py
"""

from repro.baselines import OriginalCache
from repro.cache.config import FRV_DCACHE, FRV_ICACHE
from repro.core import MABConfig, WayMemoDCache, WayMemoICache
from repro.energy import CachePowerModel, MABHardwareModel
from repro.isa import assemble
from repro.sim import fetch_stream, run_program

SOURCE = """
# dot product of two 512-element vectors
.data
vec_a:
    .space 2048
vec_b:
    .space 2048

.text
main:
    la   t0, vec_a
    la   t1, vec_b
    li   t2, 512          # elements
    li   t3, 0            # accumulator
    li   t4, 1            # fill value
fill:
    sw   t4, 0(t0)
    sw   t4, 0(t1)
    addi t0, t0, 4
    addi t1, t1, 4
    addi t4, t4, 1
    addi t2, t2, -1
    bnez t2, fill

    la   t0, vec_a
    la   t1, vec_b
    li   t2, 512
dot:
    lw   t4, 0(t0)
    lw   t5, 0(t1)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, dot
    mv   a0, t3
    halt
"""


def main() -> None:
    # 1-2: assemble and execute.
    program = assemble(SOURCE, name="dotprod")
    result = run_program(program)
    print(result.trace.summary())
    print(f"dot product result (a0) = {result.reg(10)}")

    data = result.trace.data
    fetch = fetch_stream(result.trace.flow)
    cycles = len(fetch)  # one 8-byte fetch packet per cycle

    # 3: replay through both architectures.  The original controller
    # serves either cache, since a fetch is a load.
    originals = (OriginalCache(FRV_DCACHE), OriginalCache(FRV_ICACHE))
    memoized = (
        WayMemoDCache(mab_config=MABConfig(2, 8)),
        WayMemoICache(mab_config=MABConfig(2, 16)),
    )
    orig_d = originals[0].process(data)
    orig_i = originals[1].process(fetch)
    memo_d = memoized[0].process(data)
    memo_i = memoized[1].process(fetch)

    print(f"\nD-cache tags/access: original {orig_d.tags_per_access:.2f}"
          f" -> way-memo {memo_d.tags_per_access:.2f} "
          f"(MAB hit rate {memo_d.mab_hit_rate:.1%})")
    print(f"I-cache tags/access: original {orig_i.tags_per_access:.2f}"
          f" -> way-memo {memo_i.tags_per_access:.2f}")

    # 4: price with Equation (1).
    d_model = CachePowerModel(FRV_DCACHE)
    i_model = CachePowerModel(FRV_ICACHE)
    p_orig = (
        d_model.power(orig_d, cycles, "orig-d").total_mw
        + i_model.power(orig_i, cycles, "orig-i").total_mw
    )
    p_memo = (
        d_model.power(
            memo_d, cycles, "memo-d", mab_model=MABHardwareModel(2, 8)
        ).total_mw
        + i_model.power(
            memo_i, cycles, "memo-i", mab_model=MABHardwareModel(2, 16)
        ).total_mw
    )
    print(f"\ntotal cache power: {p_orig:.1f} mW -> {p_memo:.1f} mW "
          f"({1 - p_memo / p_orig:.1%} saving, zero cycles added)")


if __name__ == "__main__":
    main()
