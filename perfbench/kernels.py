"""``kernels``: direct calls to the ten ``coo_*``/``hicoo_*`` kernels.

Two power-law tensors of 200k nonzeros: ``pl3d`` is the tensor of
``BENCH_kernels.json`` (8000 x 8000 x 64, dense mode 2) and ``pl4d`` a
fourth-order tensor with one dense mode.  Every kernel runs with the
default backend and tier.  Mode-oriented kernels (Ttv, Ttm, Mttkrp) are
averaged over all modes, per the paper protocol; Tew and Ts make one
sample per call.  This is the only workload in which ``repro.kernels``,
``repro.compiled`` and ``repro.parallel`` do the work.

Set-up generates both tensors and converts them to HiCOO; it is
repeated and the median reported.  A first, untimed pass fills plan
caches and checks every output against ``repro.kernels.dense_ref`` on a
slab of the tensor (see :func:`check_output`); timed passes follow
until the time budget is spent.

A cell's time is its fastest call in each mode, not the median: on a
shared 2-vCPU host the memory-bound kernels run up to twice as slow in
some minutes as in others, and the fastest of a run's calls follows the
kernel's own cost far more closely (see ``perfbench/README.md``).
``ops_per_s`` is one over the geomean of the 20 cells (tensor x kernel x
format); the per-kernel geomeans are printed beside it, and each cell is
a per-layer metric of the traced run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import common
from perfbench.common import Result, geomean, median

KERNELS = ("tew", "ts", "ttv", "ttm", "mttkrp")
FORMATS = ("coo", "hicoo")
MODE_KERNELS = ("ttv", "ttm", "mttkrp")
RANK = 16
BLOCK_SIZE = 128


@dataclass
class Params:
    #: name -> (shape, dense modes)
    tensors: dict = field(default_factory=lambda: {
        "pl3d": ((8000, 8000, 64), (2,)),
        "pl4d": ((2000, 2000, 2000, 16), (3,)),
    })
    nnz: int = 200_000
    #: Tew/Ts calls per pass (each is under a millisecond).
    elementwise_calls: int = 10
    setup_reps: int = 2


@dataclass
class Bundle:
    name: str
    coo: object
    hicoo: object
    vectors: list
    matrices: list


def setup(seed: int, p: Params) -> list:
    """Generate the tensors and their operands from ``seed``."""
    import repro.generate as generate
    from repro.bench.runner import derive_case_seed
    from repro.sptensor import HiCOOTensor

    bundles = []
    for name, (shape, dense) in p.tensors.items():
        tseed = derive_case_seed(seed, "kernels", name)
        coo = generate.powerlaw_tensor(shape, nnz=p.nnz, dense_modes=dense, seed=tseed).sort()
        hicoo = HiCOOTensor.from_coo(coo, BLOCK_SIZE)
        rng = np.random.default_rng(tseed)
        vectors = [rng.random(s).astype(np.float32) for s in shape]
        matrices = [rng.random((s, RANK)).astype(np.float32) for s in shape]
        bundles.append(Bundle(name, coo, hicoo, vectors, matrices))
    return bundles


def call(kernel: str, fmt: str, b: Bundle, mode: int):
    """One kernel call through the public ``repro.kernels`` entry points."""
    import repro.kernels as K

    x = b.coo if fmt == "coo" else b.hicoo
    fn = getattr(K, f"{fmt}_{kernel}")
    if kernel == "tew":
        return fn(x, x, "add", assume_same_pattern=True)
    if kernel == "ts":
        return fn(x, 1.5, "mul")
    if kernel == "ttv":
        return fn(x, b.vectors[mode], mode)
    if kernel == "ttm":
        return fn(x, b.matrices[mode], mode)
    return fn(x, b.matrices, mode)


def modes_of(kernel: str, b: Bundle) -> range:
    return range(b.coo.nmodes) if kernel in MODE_KERNELS else range(1)


# --------------------------------------------------------------------- #
# output check against the dense reference
# --------------------------------------------------------------------- #
#: Nonzeros a slab may grow to (the first index picked is always kept).
SLAB_NNZ = 2048
#: Nonzeros densified at a time; the dense chunk has at most
#: ``CHUNK ** order`` elements.
CHUNK = 16


def check_output(kernel: str, b: Bundle, mode: int, out, rng) -> "tuple[bool, str]":
    """Compare ``out`` with ``repro.kernels.dense_ref`` on a slab.

    The tensors are far too large to densify, so the check picks a few
    indices in each mode the output keeps and takes every nonzero whose
    kept coordinates fall among them (any index of a contracted mode).
    The output at the chosen indices depends on exactly those nonzeros.
    Every kernel is linear in the tensor, so the reference is the sum,
    over small chunks of the slab, of ``dense_ref`` applied to the chunk
    densified on its own compacted coordinates.
    """
    from repro.sptensor.convert import to_coo

    x = b.coo
    n = x.nmodes
    kept = (
        [mode] if kernel == "mttkrp"
        else [m for m in range(n) if m != mode] if kernel in ("ttv", "ttm")
        else list(range(n))
    )
    idx = x.indices.astype(np.int64)
    axes, mask = _choose_slab(idx, kept, rng)
    sub, vals = idx[mask], x.values[mask].astype(np.float64)
    out_modes = [m for m in range(n) if m != mode] if kernel == "ttv" else list(range(n))
    rank = b.matrices[0].shape[1]
    if kernel == "mttkrp":
        shape = (len(axes[mode]), rank)
    else:
        shape = tuple(
            rank if kernel == "ttm" and m == mode else len(axes[m]) for m in out_modes
        )
    want = np.zeros(shape)
    for lo in range(0, len(sub), CHUNK):
        _add_chunk(want, kernel, b, mode, sub[lo:lo + CHUNK], vals[lo:lo + CHUNK], axes)

    if kernel == "mttkrp":
        got = np.asarray(out, dtype=np.float64)[axes[mode]]
    else:
        got = _restrict(to_coo(out), kernel, mode, out_modes, axes, shape)
    scale = float(np.abs(want).max()) if want.size else 0.0
    err = float(np.abs(got - want).max()) if want.size else 0.0
    ok = bool(np.allclose(got, want, rtol=1e-3, atol=1e-6 * max(scale, 1.0)))
    return ok, (
        f"{b.name} {kernel} mode {mode}: max |out - dense_ref| = {err:.3g} "
        f"over {len(sub)} slab nonzeros"
    )


def _choose_slab(idx, kept, rng):
    """Kept-mode index sets grown from random nonzeros, and the slab mask."""
    axes = {m: np.empty(0, np.int64) for m in kept}
    mask = None
    for k in rng.permutation(len(idx))[:32]:
        trial = {m: np.union1d(axes[m], idx[k, m]) for m in kept}
        tmask = np.ones(len(idx), bool)
        for m in kept:
            tmask &= np.isin(idx[:, m], trial[m])
        if mask is not None and tmask.sum() > SLAB_NNZ:
            break
        axes, mask = trial, tmask
    return axes, mask


def _add_chunk(want, kernel, b, mode, sub, vals, axes) -> None:
    """Accumulate ``dense_ref`` of one chunk into the slab reference."""
    from repro.kernels import dense_ref

    n = sub.shape[1]
    local = [np.unique(sub[:, m]) for m in range(n)]
    dense = np.zeros([len(a) for a in local])
    np.add.at(dense, tuple(np.searchsorted(local[m], sub[:, m]) for m in range(n)), vals)
    if kernel == "tew":
        part = dense_ref.dense_tew(dense, dense, "add")
    elif kernel == "ts":
        part = dense_ref.dense_ts(dense, 1.5, "mul")
    elif kernel == "ttv":
        part = dense_ref.dense_ttv(dense, b.vectors[mode][local[mode]], mode)
    elif kernel == "ttm":
        part = dense_ref.dense_ttm(dense, b.matrices[mode][local[mode]], mode)
    else:
        mats = [b.matrices[m][local[m]] for m in range(n)]
        part = dense_ref.dense_mttkrp(dense, mats, mode)
    if kernel == "mttkrp":
        at = [np.searchsorted(axes[mode], local[mode]), np.arange(part.shape[1])]
    else:
        out_modes = [m for m in range(n) if m != mode] if kernel == "ttv" else range(n)
        at = [
            np.arange(part.shape[j]) if kernel == "ttm" and m == mode
            else np.searchsorted(axes[m], local[m])
            for j, m in enumerate(out_modes)
        ]
    want[np.ix_(*at)] += part


def _restrict(out, kernel, mode, out_modes, axes, shape):
    """The sparse output's entries on the slab's kept coordinates."""
    oidx = out.indices.astype(np.int64)
    keep = np.ones(out.nnz, bool)
    cols = []
    for j, m in enumerate(out_modes):
        if kernel == "ttm" and m == mode:
            cols.append(oidx[:, j])  # the dense rank mode: every row
            continue
        keep &= np.isin(oidx[:, j], axes[m])
        cols.append(np.searchsorted(axes[m], oidx[:, j]))
    got = np.zeros(shape)
    np.add.at(got, tuple(c[keep] for c in cols), out.values[keep].astype(np.float64))
    return got


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #
def _cells(bundles):
    for b in bundles:
        for kernel in KERNELS:
            for fmt in FORMATS:
                yield b, kernel, fmt


def _pass(bundles, p: Params, samples: dict) -> int:
    """One timed pass over every cell; returns the number of calls.

    ``samples[(tensor, kernel, fmt, mode)]`` gains one per-call time.
    """
    calls = 0
    for b, kernel, fmt in _cells(bundles):
        reps = 1 if kernel in MODE_KERNELS else p.elementwise_calls
        for mode in modes_of(kernel, b):
            times = samples.setdefault((b.name, kernel, fmt, mode), [])
            for _ in range(reps):
                t0 = time.perf_counter()
                call(kernel, fmt, b, mode)
                times.append(time.perf_counter() - t0)
                calls += 1
    return calls


def _measure(bundles, p: Params, seconds: float) -> "tuple[dict, int]":
    samples: dict = {}
    calls = 0
    t_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < t_end:
        calls += _pass(bundles, p, samples)
    return samples, calls


def cell_seconds(samples: dict) -> dict:
    """Per (tensor, kernel, fmt): the fastest call in each mode, averaged
    over modes (the paper's protocol for mode-oriented kernels)."""
    per_mode: dict = {}
    for (tensor, kernel, fmt, mode), times in samples.items():
        per_mode.setdefault((tensor, kernel, fmt), []).append(min(times))
    return {cell: sum(v) / len(v) for cell, v in per_mode.items()}


def _kernel_seconds(samples: dict) -> dict:
    """Per kernel: geomean over tensors and formats of the per-call time."""
    cells = cell_seconds(samples)
    out = {}
    for kernel in KERNELS:
        calls = sum(len(v) for key, v in samples.items() if key[1] == kernel)
        out[kernel] = (geomean(v for c, v in cells.items() if c[1] == kernel), calls)
    return out


def run(seed: int, seconds: float, trace: bool, p: "Params | None" = None) -> Result:
    p = p or Params()
    res = Result(meta={"workload": "kernels"})
    probe = None
    if trace:
        import repro.generate as generate

        from perfbench.probe import Probe

        probe = Probe()
        probe.wrap(generate, "powerlaw_tensor", "generate")
    setup_times = []
    try:
        for _ in range(p.setup_reps):
            t0 = time.perf_counter()
            bundles = setup(seed, p)
            setup_times.append(time.perf_counter() - t0)
    finally:
        if probe is not None:
            probe.close()
    res.meta["tensors"] = {
        b.name: {
            "shape": list(b.coo.shape), "nnz": int(b.coo.nnz),
            "coo_bytes": int(b.coo.nbytes), "hicoo_bytes": int(b.hicoo.nbytes),
        }
        for b in bundles
    }

    # Untimed first pass: fills plan caches and checks every output.
    rng = np.random.default_rng(seed)
    for b, kernel, fmt in _cells(bundles):
        for mode in modes_of(kernel, b):
            out = call(kernel, fmt, b, mode)
            res.attempted += 1
            ok, detail = check_output(kernel, b, mode, out, rng)
            res.check(ok, f"{fmt} {detail}")

    samples, calls = _measure(bundles, p, seconds)
    res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    res.attempted += calls
    res.put("setup_s", median(setup_times), "s", len(setup_times))
    plain = _kernel_seconds(samples)
    for kernel, (value, n) in plain.items():
        res.detail(f"kernel_{kernel}_s", value, "s", n)
    # The workload's operations are kernel calls: one over the geomean,
    # over every tensor, kernel and format, of the per-call time.
    cells = cell_seconds(samples)
    res.put("ops_per_s", 1.0 / geomean(cells.values()), "1/s", calls)
    if trace:
        _traced(res, p, seconds, bundles, plain, probe)
    return res


def _traced(res, p, seconds, bundles, plain, gen_probe) -> None:
    import repro.kernels as K
    from repro.obs.tracer import Tracer
    from repro.roofline.model import RooflineModel
    from repro.roofline.oi import cost_for, extract_features

    from repro.roofline.ert import measure_host

    from perfbench.probe import Probe

    host = measure_host()
    names = {}
    for b in bundles:
        names[id(b.coo)] = names[id(b.hicoo)] = b.name
    tracer = Tracer(meta={"process": "perfbench kernels"})
    with Probe(tracer) as probe:
        for kernel in KERNELS:
            for fmt in FORMATS:
                probe.wrap(
                    K, f"{fmt}_{kernel}",
                    lambda a, kw, k=kernel, f=fmt: f"{names[id(a[0])]}.{k}.{f}",
                    note=lambda a, kw, r, k=kernel: a[2] if k in MODE_KERNELS else 0,
                )
        samples, calls = _measure(bundles, p, seconds)
    res.attempted += calls
    res.trace = tracer.freeze()

    roof = RooflineModel(host)
    res.put("roofline.host_triad_gbs", host.mem_bw_gbs, "GB/s")
    res.put("roofline.host_gemm_gflops", host.peak_sp_gflops, "GFLOP/s")
    feats = {
        b.name: extract_features(b.coo, b.name, BLOCK_SIZE, b.hicoo) for b in bundles
    }
    by_mode: dict = {}
    for layer, times in probe.samples.items():
        for mode, t in zip(probe.notes[layer], times):
            by_mode.setdefault((*layer.split("."), mode), []).append(t)
    cells = cell_seconds(by_mode)
    for kernel in KERNELS:
        for fmt in FORMATS:
            gbs, frac = [], []
            for b in bundles:
                t = cells[(b.name, kernel, fmt)]
                n = len(probe.samples[f"{b.name}.{kernel}.{fmt}"])
                res.put(f"kernels.{b.name}.{kernel}.{fmt}_s", t, "s", n)
                cost = cost_for(feats[b.name], kernel, fmt, RANK)
                gbs.append(cost.bytes / t / 1e9)
                frac.append((cost.flops / t / 1e9) / roof.attainable(cost.oi))
            res.put(f"kernels.{kernel}.{fmt}.gbs", geomean(gbs), "GB/s", len(gbs))
            res.put(f"kernels.{kernel}.{fmt}.roofline_frac", geomean(frac), "ratio", len(frac))
    gen = gen_probe.samples.get("generate", [])
    res.put("generate.p50_s", median(gen), "s", len(gen))
    res.put("generate.total_s", sum(gen), "s", len(gen))
    traced = _kernel_seconds(samples)
    ratio = geomean([traced[k][0] / plain[k][0] for k in KERNELS])
    res.put("obs.trace_overhead_frac", ratio - 1.0, "ratio", len(KERNELS))
