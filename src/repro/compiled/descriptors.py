"""Declarative loop-nest descriptors for the compiled execution tier.

The taco lineage (format abstraction, PLDI'17; workspaces, arXiv
1802.10574) lowers format-agnostic index notation to specialized loops.
We borrow the shape of that pipeline at benchmark-suite scale: each
(kernel, format, scatter method) cell of the suite is described *once*,
declaratively, by a :class:`LoopNest` — index order, gather pattern,
scatter/accumulator kind, fused scalar op — and the execution tiers
consume the descriptor instead of hand-written per-cell kernels:

* :mod:`repro.compiled.numba_tier` lowers a descriptor to a cached
  ``@njit(parallel=..., fastmath=False)`` nopython kernel (when Numba is
  installed), specialized per dtype and variant;
* :mod:`repro.compiled.fallback` lowers the same descriptor to a fused
  single-dispatch NumPy pipeline (no Python-level chunk loop, cached
  scatter plans) that is bit-compatible with the NumPy tier for the
  deterministic methods.

Descriptors are *data*: the registry below is the complete enumeration of
what the compiled tier can execute, and
:func:`repro.compiled.tier.resolve_tier` consults it before ever
promising the compiled tier to a call site.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scatter kinds a loop nest may declare.
SCATTER_DENSE_ROWS = "dense-rows"      # out[row[k], :] += contrib[k, :]
SCATTER_SEGMENTS = "segments"          # sorted stream, one reduce per run
SCATTER_OWNER_ROWS = "owner-rows"      # disjoint owner row-ranges, in order
SCATTER_POSITIONAL = "positional"      # out[k] = f(in[k]) — no conflicts

#: Accumulator kinds.
ACC_WORKSPACE = "workspace"    # per-thread dense arena, reduced once
ACC_SEGMENT = "segment-sum"    # linear sum per contiguous segment
ACC_OWNED = "owned-output"     # accumulate straight into owned rows
ACC_NONE = "none"              # elementwise, nothing carried


@dataclass(frozen=True)
class LoopNest:
    """One (kernel, format, method) cell's loop-nest description.

    Attributes
    ----------
    kernel, fmt, method:
        The suite cell this nest executes.  ``method`` is the scatter
        method for Mttkrp (``atomic``/``sort``/``owner``), ``fiber`` for
        the fiber-parallel kernels, ``elementwise`` for Tew/Ts.
    parallel_axis:
        The loop the execution tier parallelizes: ``nnz``, ``fiber``,
        ``owner-range``, or ``value`` (flat value array).
    index_order:
        Loop indices outermost-first, symbolic (``nnz``, ``fiber``,
        ``entry``, ``r`` for the rank column).
    gathers:
        Operands gathered per innermost iteration, symbolic: ``value``,
        ``mat[m]`` (factor-matrix row via the mode-``m`` index column),
        ``vec`` (dense vector entry), ``peer`` (second tensor's value).
    scatter:
        One of the ``SCATTER_*`` kinds — how results reach the output.
    accumulator:
        One of the ``ACC_*`` kinds — what carries partial sums.
    fused_op:
        Fused scalar ufunc for the elementwise kernels (``add``...),
        ``None`` for the contraction kernels (whose fused op is the
        multiply-accumulate implied by the gathers).
    workspace:
        Whether the nest accumulates into private
        :class:`repro.parallel.workspace.WorkspacePool` arenas.
    notes:
        Free-text lowering notes surfaced by ``describe()``.
    """

    kernel: str
    fmt: str
    method: str
    parallel_axis: str
    index_order: tuple
    gathers: tuple
    scatter: str
    accumulator: str
    fused_op: "str | None" = None
    workspace: bool = False
    notes: str = ""

    @property
    def key(self) -> tuple:
        return (self.kernel, self.fmt, self.method)

    def describe(self) -> str:
        """One-line human rendering (``repro info`` / docs)."""
        axes = ">".join(self.index_order)
        gat = ",".join(self.gathers) or "-"
        return (
            f"{self.kernel}/{self.fmt}/{self.method}: for[{axes}] "
            f"gather({gat}) -> {self.scatter} acc={self.accumulator}"
            + (f" fused={self.fused_op}" if self.fused_op else "")
            + (" [workspace]" if self.workspace else "")
        )


def _mttkrp_nests(fmt: str) -> list:
    gathers = ("value", "mat[m!=mode]")
    entry_axis = "nnz" if fmt == "coo" else "nnz(block-major)"
    return [
        LoopNest(
            kernel="mttkrp", fmt=fmt, method="atomic",
            parallel_axis="nnz",
            index_order=(entry_axis, "r"),
            gathers=gathers,
            scatter=SCATTER_DENSE_ROWS,
            accumulator=ACC_WORKSPACE,
            workspace=True,
            notes="nnz-parallel; per-thread arena stack, tree-reduced once",
        ),
        LoopNest(
            kernel="mttkrp", fmt=fmt, method="sort",
            parallel_axis="fiber",
            index_order=("segment", "entry", "r"),
            gathers=gathers,
            scatter=SCATTER_SEGMENTS,
            accumulator=ACC_SEGMENT,
            notes="stable row-sorted stream; linear per-segment sums are "
            "bit-identical to the NumPy sort tier",
        ),
        LoopNest(
            kernel="mttkrp", fmt=fmt, method="owner",
            parallel_axis="owner-range",
            index_order=("owner", "entry", "r"),
            gathers=gathers,
            scatter=SCATTER_OWNER_ROWS,
            accumulator=ACC_OWNED,
            notes="reuses repro.parallel.ownership partitions; per-row "
            "accumulation keeps sequential storage order (bit-identical)",
        ),
    ]


def _fiber_nests(kernel: str, fmt: str, gathers: tuple) -> LoopNest:
    return LoopNest(
        kernel=kernel, fmt=fmt, method="fiber",
        parallel_axis="fiber",
        index_order=("fiber", "entry") + (("r",) if kernel == "ttm" else ()),
        gathers=gathers,
        scatter=SCATTER_SEGMENTS,
        accumulator=ACC_SEGMENT,
        notes="race-free by the sparse-dense property; one linear "
        "reduction per fiber run",
    )


def _elementwise_nest(kernel: str, fmt: str, gathers: tuple) -> LoopNest:
    return LoopNest(
        kernel=kernel, fmt=fmt, method="elementwise",
        parallel_axis="value",
        index_order=("nnz",),
        gathers=gathers,
        scatter=SCATTER_POSITIONAL,
        accumulator=ACC_NONE,
        fused_op="add|sub|mul|div",
        notes="single fused pass over the value array",
    )


def _build_registry() -> dict:
    nests: list = []
    for fmt in ("coo", "hicoo"):
        nests.extend(_mttkrp_nests(fmt))
        nests.append(_fiber_nests("ttv", fmt, ("value", "vec")))
        nests.append(_fiber_nests("ttm", fmt, ("value", "mat[mode]")))
        nests.append(_elementwise_nest("tew", fmt, ("value", "peer")))
        nests.append(_elementwise_nest("ts", fmt, ("value",)))
    # HiCOO-Ttv/Ttm execute through the gHiCOO re-representation (the
    # product mode uncompressed); their shared fiber loop runs under that
    # label, so the compiled tier registers it as well.
    nests.append(_fiber_nests("ttv", "ghicoo", ("value", "vec")))
    nests.append(_fiber_nests("ttm", "ghicoo", ("value", "mat[mode]")))
    return {n.key: n for n in nests}


#: The complete compiled-tier coverage: (kernel, fmt, method) -> LoopNest.
DESCRIPTORS: dict = _build_registry()


def descriptor_for(kernel: str, fmt: str, method: str) -> "LoopNest | None":
    """The loop nest for a suite cell, or ``None`` when the compiled tier
    has no lowering for it (the selector then keeps the NumPy tier)."""
    return DESCRIPTORS.get((kernel, fmt, method))


def describe_all() -> str:
    """Render every registered nest (``repro info`` support)."""
    return "\n".join(
        DESCRIPTORS[k].describe() for k in sorted(DESCRIPTORS)
    )
