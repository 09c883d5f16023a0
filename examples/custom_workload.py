#!/usr/bin/env python
"""Bring your own kernel: evaluate way memoization on custom assembly.

Writes a 16x16 integer matrix multiply in FRL-32 assembly, verifies
the simulated result against numpy, then compares all the no-penalty
D-cache architectures on its trace — the workflow a user follows to
evaluate the technique on their own code.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro.baselines import OriginalCache, SetBufferDCache
from repro.core import LineBufferWayMemoDCache, MABConfig, WayMemoDCache
from repro.isa import assemble
from repro.sim import run_program
from repro.workloads.data import read_words, words_directive

N = 16
SEED_A, SEED_B = 0xA, 0xB


def matrices():
    rng = np.random.default_rng(SEED_A)
    a = rng.integers(0, 100, size=(N, N), dtype=np.int64)
    rng = np.random.default_rng(SEED_B)
    b = rng.integers(0, 100, size=(N, N), dtype=np.int64)
    return a, b


def build_program():
    a, b = matrices()
    source = f"""
# {N}x{N} integer matrix multiply: C = A x B
.data
mat_a:
{words_directive([int(v) for v in a.flatten()])}
mat_b:
{words_directive([int(v) for v in b.flatten()])}
mat_c:
    .space {4 * N * N}

.text
main:
    la   s0, mat_a
    la   s1, mat_b
    la   s2, mat_c
    li   s3, 0            # i
i_loop:
    li   s4, 0            # j
j_loop:
    li   s5, 0            # k
    li   s6, 0            # acc
    li   t5, {4 * N}
    mul  t0, s3, t5
    add  t0, s0, t0       # &A[i][0]
    slli t1, s4, 2
    add  t1, s1, t1       # &B[0][j]
k_loop:
    lw   t2, 0(t0)        # A[i][k]
    lw   t3, 0(t1)        # B[k][j]
    mul  t2, t2, t3
    add  s6, s6, t2
    addi t0, t0, 4        # A walks a row
    addi t1, t1, {4 * N}  # B walks a column
    addi s5, s5, 1
    li   t4, {N}
    blt  s5, t4, k_loop
    mul  t0, s3, t5
    slli t1, s4, 2
    add  t0, t0, t1
    add  t0, s2, t0
    sw   s6, 0(t0)        # C[i][j]
    addi s4, s4, 1
    li   t4, {N}
    blt  s4, t4, j_loop
    addi s3, s3, 1
    li   t4, {N}
    blt  s3, t4, i_loop
    halt
"""
    return assemble(source, name="matmul")


def main() -> None:
    program = build_program()
    result = run_program(program)
    print(result.trace.summary())

    # Verify against numpy before trusting the trace.
    a, b = matrices()
    expected = (a @ b).astype(np.int64)
    actual = np.array(
        read_words(result.memory, program.symbol("mat_c"), N * N)
    ).reshape(N, N)
    assert np.array_equal(actual, expected), "matmul result wrong!"
    print("numpy cross-check: OK\n")

    architectures = [
        ("original", OriginalCache()),
        ("set-buffer [14]", SetBufferDCache()),
        ("way-memo 2x8", WayMemoDCache(mab_config=MABConfig(2, 8))),
        ("way-memo 2x16", WayMemoDCache(mab_config=MABConfig(2, 16))),
        ("way-memo 2x32", WayMemoDCache(mab_config=MABConfig(2, 32))),
        ("way-memo + line buffer",
         LineBufferWayMemoDCache(line_buffer_entries=2)),
    ]
    print(f"{'architecture':24s} {'tags/acc':>9s} {'ways/acc':>9s} "
          f"{'MAB hits':>9s}")
    for name, controller in architectures:
        c = controller.process(result.trace.data)
        rate = f"{c.mab_hit_rate:.1%}" if c.mab_lookups else "-"
        print(f"{name:24s} {c.tags_per_access:>9.3f} "
              f"{c.ways_per_access:>9.3f} {rate:>9s}")

    print(
        "\nnote: B's column walk cycles through ~18 cache sets, more"
        "\nthan the paper-default 8/16 index entries can hold, so the"
        "\nsmall MABs thrash; 32 index entries capture the kernel"
        "\n(93% hit rate).  This is exactly the application-specific"
        "\nsizing decision the paper's Tables 1-3 trade off - see"
        "\nexamples/mab_design_space.py for the automated sweep."
    )


if __name__ == "__main__":
    main()
