"""Partitioned, block-parallel core computation.

:func:`repro.homomorphism.blocks.blockwise_core` already minimizes one
Gaifman block at a time, but every block is matched against the *whole*
instance, whose index buckets grow with the total size.  This module
keeps each block's search inside its value component and adds process
parallelism on top:

* the instance is split into value components (:meth:`Instance.components`);
* each component's blocks are minimized against that component only,
  with per-component work dispatched to the :class:`repro.engine.Executor`
  pool (match plans are recompiled worker-side -- patterns are tiny);
* the minimized components are unioned; the union is the exact core.

Exactness hinges on one guard.  A homomorphism preserves value
connectivity, so it maps each component *entirely* into a single
component; when a component contains a constant, its image contains that
constant, hence is the component itself.  When every component carries
at least one constant, endomorphisms therefore decompose componentwise
and ``core(A ∪ B) = core(A) ∪ core(B)``.  Instances with an all-null
component (which could fold into any other component) fall back to the
global blockwise pass, counted in ``core.partition_fallbacks``.  Each
component runs the in-place block kernel
:func:`~repro.homomorphism.blocks.core_in_place` -- every block
minimized, then the exact block-local ``fold_step`` verification -- so
the result is always exactly the core: the partition is a speedup,
never an approximation.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from ..core.instance import Instance
from ..obs import attribution, counter, span
from ..obs.provenance import active_ledger
from .blocks import blockwise_core, core_in_place


def _partitionable(components: List[Instance]) -> bool:
    """True iff componentwise minimization is exact.

    Requires every component to mention a constant: homomorphisms map
    components into components (connectivity is preserved), and a
    constant pins a component's image to the component itself.
    """
    return all(
        any(atom.constants for atom in component) for component in components
    )


def _minimize_component(component: Instance) -> Instance:
    """The exact core of one value component, minimized in place.

    Components are private to this pass (fresh from
    :meth:`Instance.components` or unpickled in a worker), so no copy is
    taken.  ``core.blocks_parallel`` counts the blocks minimized (merged
    back from workers by the executor harness).
    """
    result, blocks = core_in_place(component)
    counter("core.blocks_parallel").inc(blocks)
    return result


def _minimize_components(components: Tuple[Instance, ...]) -> List[Instance]:
    """Worker task: minimize each component of one group, in order."""
    if not attribution.enabled():
        return [_minimize_component(component) for component in components]
    # Attributed mode: one cost row per component (size in, retained
    # size and seconds out), merged back by the executor harness.
    minimized = []
    for component in components:
        size = len(component)
        component_started = time.perf_counter()
        result = _minimize_component(component)
        attribution.record_component(
            "core.partition",
            size=size,
            steps=size - len(result),
            seconds=time.perf_counter() - component_started,
        )
        minimized.append(result)
    return minimized


def _group_components(
    components: List[Instance], groups: int
) -> List[Tuple[Instance, ...]]:
    """At most ``groups`` contiguous groups of roughly equal atom count.

    Contiguous assignment keeps the layout deterministic; balancing by
    atom count (not component count) evens out skewed instances.
    """
    groups = max(1, min(groups, len(components)))
    total = sum(len(component) for component in components)
    target = total / groups
    out: List[Tuple[Instance, ...]] = []
    bucket: List[Instance] = []
    weight = 0
    for component in components:
        bucket.append(component)
        weight += len(component)
        if weight >= target and len(out) < groups - 1:
            out.append(tuple(bucket))
            bucket, weight = [], 0
    if bucket:
        out.append(tuple(bucket))
    return out


def partitioned_core(instance: Instance, executor=None) -> Instance:
    """The core of ``instance``, computed per value component.

    Exact for every input (see the module docstring for the guard and
    fallback).  ``executor`` is a :class:`repro.engine.Executor` or
    None; component groups are dispatched through it when it is
    parallel, otherwise minimized in-process.  The result has the same
    fp/v1 canonical fingerprint as ``blockwise_core(instance)``.
    """
    with span("core.partitioned"):
        components = instance.components()
        if len(components) <= 1 or not _partitionable(components):
            counter("core.partition_fallbacks").inc()
            return blockwise_core(instance)

        # Ground components have no blocks to fold; skip the dispatch.
        ground = [c for c in components if c.is_ground]
        foldable = [c for c in components if not c.is_ground]

        workers = getattr(executor, "workers", 1) or 1
        # Retraction records cannot cross the process boundary, so an
        # active provenance ledger keeps minimization in-process (the
        # partition itself is still applied -- it is ledger-safe).
        if (
            executor is not None
            and workers > 1
            and len(foldable) > 1
            and active_ledger() is None
        ):
            groups = _group_components(foldable, workers * 2)
            minimized_groups = executor.map_tasks(
                _minimize_components,
                [(group,) for group in groups],
                label="core.partition",
            )
            minimized = [
                component
                for group in minimized_groups
                for component in group
            ]
        else:
            minimized = _minimize_components(tuple(foldable))

        result = Instance()
        for component in ground:
            result.add_all(component)
        for component in minimized:
            result.add_all(component)
        return result
