"""Benchmark registry and cached workload execution.

Experiments and tests obtain workloads through :func:`load_workload`,
which assembles the benchmark, runs it on the ISS and caches the
resulting traces (execution is deterministic, so caching is sound and
keeps the full-suite experiments fast).  Two cache levels stack:

* an in-process ``lru_cache`` (one ISS run per process at most), and
* a versioned **on-disk trace cache**: the traces are persisted as a
  ``.npz`` archive keyed by program name, the program's content
  digest, the modelled 8-byte fetch packet and the trace format
  version, so a *second process* (another experiment suite, a CI
  shard, a sweep worker) skips the ISS entirely and just loads the
  arrays.

Workload names follow one grammar, ``base[:packet=N,scale=N,stack=F]``,
parsed and canonicalised by :func:`parse_workload` alone: ``scale``
names a bigger program, while ``packet`` and ``stack`` modify the
stream one cache side sees of the same program's traces (the archive
holds the flow trace, so a ``packet=16`` stream needs no second ISS
run or archive).

The disk cache lives in ``$REPRO_TRACE_CACHE`` when set (set it to
``0``/``off`` to disable caching), otherwise in
``$XDG_CACHE_HOME/repro-traces`` (default ``~/.cache/repro-traces``).
Archives are written atomically (temp file + rename) and any
unreadable/garbage archive is ignored and regenerated, so the cache
can never produce wrong traces — the key includes the program digest,
so a changed benchmark generator automatically misses.
"""

from __future__ import annotations

import importlib
import os
import tempfile
import zipfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.isa import Program
from repro.sim import ExecutionResult, FetchStream, fetch_stream, run_program
from repro.sim.fetch import DEFAULT_FETCH_BYTES
from repro.sim.trace import ExecutionTrace
from repro.sim.traceio import (
    FORMAT_VERSION,
    TraceFormatError,
    load_traces,
    save_traces,
)

#: The seven benchmarks of the paper's Section 4, in paper order.
BENCHMARK_NAMES: Tuple[str, ...] = (
    "dct",
    "fft",
    "dhrystone",
    "whetstone",
    "compress",
    "jpeg_enc",
    "mpeg2enc",
)

_MODULES = {
    "dct": "repro.workloads.dct",
    "fft": "repro.workloads.fft",
    "dhrystone": "repro.workloads.dhrystone",
    "whetstone": "repro.workloads.whetstone",
    "compress": "repro.workloads.compress",
    "jpeg_enc": "repro.workloads.jpeg_enc",
    "mpeg2enc": "repro.workloads.mpeg2enc",
}

#: Environment variable holding the trace cache directory (or 0/off).
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Benchmarks whose generators take a ``scale`` multiplier (bigger
#: inputs, same golden math at scale=1), addressable as workload
#: strings like ``compress:scale=4``.
SCALABLE_BENCHMARKS: Tuple[str, ...] = ("compress", "jpeg_enc", "mpeg2enc")


#: Largest ``packet=N``: the FR-V I-cache line, so a packet never
#: spans two lines.
MAX_FETCH_BYTES = 32


@dataclass(frozen=True)
class WorkloadName:
    """A parsed benchmark workload ``base[:packet=N,scale=N,stack=F]``.

    ``scale`` picks the executed program (a bigger input); ``packet``
    and ``stack`` modify the stream one cache side sees of that
    program: ``packet=N`` re-derives the I-side fetch stream at
    ``N``-byte packets, ``stack=F`` injects a fraction ``F`` of
    compiler-style stack accesses into the D-side trace.  ``str()``
    is the canonical spelling — keys sorted, defaults dropped — so
    ``dct:stack=0`` and ``compress:scale=1`` name ``dct`` and
    ``compress``.
    """

    base: str
    scale: int = 1
    packet: int = DEFAULT_FETCH_BYTES
    stack: float = 0.0

    @property
    def program(self) -> str:
        """The executed program's canonical name (``base`` or
        ``base:scale=N``) — what the trace caches key on."""
        if self.scale == 1:
            return self.base
        return f"{self.base}:scale={self.scale}"

    def __str__(self) -> str:
        modifiers = []
        if self.packet != DEFAULT_FETCH_BYTES:
            modifiers.append(f"packet={self.packet}")
        if self.scale != 1:
            modifiers.append(f"scale={self.scale}")
        if self.stack:
            modifiers.append(f"stack={self.stack!r}")
        suffix = ",".join(modifiers)
        return f"{self.base}:{suffix}" if suffix else self.base

    def check_side(self, side: str) -> None:
        """Reject a stream modifier the ``side`` cache never sees."""
        if self.packet != DEFAULT_FETCH_BYTES and side != "icache":
            raise ValueError(
                f"packet= re-derives the I-side fetch stream; "
                f"{side} workload {self} cannot take it"
            )
        if self.stack and side != "dcache":
            raise ValueError(
                f"stack= injects D-side stack traffic; "
                f"{side} workload {self} cannot take it"
            )


def _integer(key: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"workload {key} must be an integer, got {value!r}"
        ) from None


def parse_workload(name: str) -> WorkloadName:
    """``'compress:scale=4'`` -> ``WorkloadName('compress', scale=4)``.

    The one parser of benchmark workload names.  Raises ``KeyError``
    for unknown base benchmarks (with the listing) and ``ValueError``
    for malformed or repeated modifiers, non-positive scales, scaling
    a benchmark whose generator is not scale-aware, packets that are
    not a power of two in 4..32 bytes, and stack fractions outside
    [0, 1).
    """
    base, sep, tail = name.partition(":")
    if base not in _MODULES:
        raise KeyError(
            f"unknown benchmark {base!r}; available: {BENCHMARK_NAMES}"
        )
    fields = {}
    for item in tail.split(",") if sep else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if key not in ("packet", "scale", "stack") or not eq:
            raise ValueError(
                f"malformed workload suffix {item!r} in {name!r} "
                "(expected scale=N, packet=N or stack=F)"
            )
        if key in fields:
            raise ValueError(f"workload {name!r} repeats {key}=")
        fields[key] = value
    scale = _integer("scale", fields.get("scale", 1))
    if scale < 1:
        raise ValueError(f"workload scale must be >= 1, got {scale}")
    if scale != 1 and base not in SCALABLE_BENCHMARKS:
        raise ValueError(
            f"benchmark {base!r} has no scale parameter; "
            f"scalable: {SCALABLE_BENCHMARKS}"
        )
    packet = _integer("packet", fields.get("packet", DEFAULT_FETCH_BYTES))
    if packet & (packet - 1) or not 4 <= packet <= MAX_FETCH_BYTES:
        raise ValueError(
            f"workload packet must be a power of two from 4 to "
            f"{MAX_FETCH_BYTES} bytes, got {packet}"
        )
    try:
        stack = float(fields.get("stack", 0.0))
    except ValueError:
        raise ValueError(
            f"workload stack must be a fraction, got {fields['stack']!r}"
        ) from None
    if not 0.0 <= stack < 1.0:
        raise ValueError(f"workload stack must be in [0, 1), got {stack}")
    return WorkloadName(base, scale, packet, stack)


def _program_workload(name: str) -> WorkloadName:
    """Parse a name that must name a program, not a modified stream."""
    workload = parse_workload(name)
    if str(workload) != workload.program:
        raise ValueError(
            f"{name!r} modifies a cache side's stream; a program is "
            f"named without packet=/stack=: {workload.program!r}"
        )
    return workload


@dataclass(frozen=True)
class Benchmark:
    """A registered benchmark: builder + golden-model checker."""

    name: str
    build: Callable[[], Program]
    check: Callable[[ExecutionResult], None]


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by its paper name or scaled variant
    (stream modifiers refused, as by :func:`load_workload`).

    ``'compress'`` binds the generator at its paper-sized default;
    ``'compress:scale=4'`` binds the same generator with a 4x input.
    """
    workload = _program_workload(name)
    base, scale = workload.base, workload.scale
    module = importlib.import_module(_MODULES[base])
    if scale == 1:
        return Benchmark(
            name=base, build=module.build, check=module.check
        )
    return Benchmark(
        name=workload.program,
        build=lambda: module.build(scale=scale),
        check=lambda result: module.check(result, scale=scale),
    )


@dataclass(frozen=True)
class Workload:
    """Cached result of running one benchmark on the ISS.

    ``cycles`` uses the VLIW fetch model: the FR-V issues one 8-byte
    fetch packet per cycle, so program cycles equal the number of
    fetch-packet accesses.  All architectures share this time base
    (the paper's technique adds no cycles); penalty baselines add
    their ``extra_cycles`` on top.
    """

    name: str
    trace: ExecutionTrace
    fetch: FetchStream
    cycles: int


def run_benchmark(name: str) -> ExecutionResult:
    """Assemble and execute ``name``, without caching (used by tests)."""
    return run_program(get_benchmark(name).build())


# ----------------------------------------------------------------------
# on-disk trace cache
# ----------------------------------------------------------------------

def trace_cache_dir() -> Optional[Path]:
    """Directory of the on-disk trace cache, or None when disabled."""
    env = os.environ.get(TRACE_CACHE_ENV)
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "disable"):
            return None
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-traces"


def _trace_cache_path(name: str, program: Program) -> Optional[Path]:
    directory = trace_cache_dir()
    if directory is None:
        return None
    # Scaled names carry ':'/'=' — keep archive names filesystem-plain
    # (the program digest already disambiguates the content).
    safe = name.replace(":", "+").replace("=", "-")
    return directory / (
        f"{safe}-{program.digest()[:16]}-p{DEFAULT_FETCH_BYTES}"
        f"-v{FORMAT_VERSION}.npz"
    )


def _load_cached_traces(
    path: Path,
) -> Optional[Tuple[ExecutionTrace, FetchStream]]:
    """Read a cached workload archive; None when absent or unusable."""
    if not path.is_file():
        return None
    try:
        trace, fetch = load_traces(str(path))
    except (TraceFormatError, OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile):
        return None
    if fetch is None or fetch.packet_bytes != DEFAULT_FETCH_BYTES:
        return None
    return trace, fetch


def _store_cached_traces(
    path: Path, trace: ExecutionTrace, fetch: FetchStream
) -> None:
    """Atomically persist traces; caching is best-effort only."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # numpy appends ".npz" unless the name already ends with it.
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp.npz"
        )
        os.close(fd)
        try:
            save_traces(tmp, trace, fetch)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass


def _execute_workload(
    name: str, program: Program
) -> Tuple[ExecutionTrace, FetchStream]:
    """Run the already-assembled ``program`` (no second build)."""
    result = run_program(program)
    if not result.halted:
        raise RuntimeError(f"benchmark {name} did not halt")
    return result.trace, fetch_stream(result.trace.flow)


@lru_cache(maxsize=None)
def _load_workload_cached(name: str) -> Workload:
    bench = get_benchmark(name)
    program = bench.build()
    path = _trace_cache_path(name, program)

    cached = _load_cached_traces(path) if path else None
    if cached is not None:
        trace, fetch = cached
    else:
        trace, fetch = _execute_workload(name, program)
        if path is not None:
            _store_cached_traces(path, trace, fetch)
    return Workload(
        name=name,
        trace=trace,
        fetch=fetch,
        cycles=len(fetch),
    )


def load_workload(name: str) -> Workload:
    """Return program ``name``'s traces, via the in-process + on-disk
    caches.

    Accepts scaled names (``compress:scale=4``); every spelling of one
    program (``compress:scale=1`` is ``compress``) shares one cache
    entry and one trace archive.  Stream modifiers (``packet=``,
    ``stack=``) are refused: they shape what one cache side sees of
    the program, which :mod:`repro.api.evaluate` resolves on top of
    these traces.
    """
    return _load_workload_cached(_program_workload(name).program)


#: The in-process cache lives on the inner function; expose its
#: controls under the public name (tests simulate fresh processes
#: with ``load_workload.cache_clear()``).
load_workload.cache_clear = _load_workload_cached.cache_clear
load_workload.cache_info = _load_workload_cached.cache_info
