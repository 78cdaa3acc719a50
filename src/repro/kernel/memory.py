"""Shared memory of the simulated kernel.

The address space is split into a global segment (named cells, one word
each) and a heap segment.  The heap allocator never reuses addresses and
keeps freed objects poisoned in a quarantine, so use-after-free and
out-of-bounds accesses are always detectable — the same property KASAN's
redzones and quarantine give the instrumented kernels used in the paper's
evaluation.

Two properties make the hot path cheap:

* the allocator is monotonic, so object bases form a sorted sequence and
  ``object_at`` is a single :func:`bisect.bisect_right` probe instead of a
  scan over every object ever allocated;
* every mutation is journalled in an undo log, so :meth:`Memory.snapshot`
  emits a :class:`MemoryImage` — a structurally shared generation holding
  only the cells dirtied since the previous capture — and
  :meth:`Memory.restore` replays undo deltas instead of copying dicts.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.kernel.failures import FailureKind, KernelFault

GLOBAL_BASE = 0x1_0000
HEAP_BASE = 0x10_0000
#: Gap between heap objects; accesses landing in it are out-of-bounds.
REDZONE = 16

#: Undo-log marker: the address had no materialized cell before the write.
_ABSENT = object()

#: Image chains longer than this are collapsed into a fresh flat root, so
#: pathological capture sequences cannot degrade restore into a long walk.
_MAX_CHAIN_DEPTH = 128


class ObjectState(enum.Enum):
    ALLOCATED = "allocated"
    FREED = "freed"


@dataclass
class HeapObject:
    """Metadata for one heap allocation.

    Instances are treated as immutable once published: ``free`` replaces the
    object with a FREED copy instead of mutating it in place, so snapshots
    may share instances without copying.
    """

    base: int
    size: int
    tag: str
    state: ObjectState = ObjectState.ALLOCATED
    leak_tracked: bool = False
    alloc_site: str = ""
    free_site: str = ""

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def in_redzone(self, addr: int) -> bool:
        return self.base + self.size <= addr < self.base + self.size + REDZONE


def _image_from_flat(cells, objects, globals_map, next_global, next_heap):
    """Pickle reconstructor: a wire'd image always rebuilds as a flat root."""
    return MemoryImage(None, cells, objects, globals_map, {}, {},
                       next_global, next_heap)


class MemoryImage:
    """One structurally shared memory generation.

    A non-root image stores only the *overlay* (addresses dirtied since the
    parent image, with their new values) and the matching *undo* delta (their
    prior values); the full state is the chain of overlays applied root to
    leaf.  Restoring the live :class:`Memory` to an image replays undo
    entries back to the common ancestor and overlays forward — O(dirty), not
    O(machine).
    """

    __slots__ = ("parent", "cells", "objects", "globals_added",
                 "cells_undo", "objects_undo", "next_global", "next_heap",
                 "depth", "_mat")

    def __init__(self, parent: Optional["MemoryImage"],
                 cells: Dict[int, Any], objects: Dict[int, HeapObject],
                 globals_added: Dict[str, int],
                 cells_undo: Dict[int, Any],
                 objects_undo: Dict[int, Any],
                 next_global: int, next_heap: int) -> None:
        self.parent = parent
        self.cells = cells
        self.objects = objects
        self.globals_added = globals_added
        self.cells_undo = cells_undo
        self.objects_undo = objects_undo
        self.next_global = next_global
        self.next_heap = next_heap
        self.depth = 0 if parent is None else parent.depth + 1
        self._mat: Optional[Tuple[dict, dict, dict]] = None

    # -- full-state materialization (cold paths only) -------------------
    def _materialized(self) -> Tuple[dict, dict, dict]:
        if self._mat is None:
            chain = []
            node = self
            while node._mat is None and node.parent is not None:
                chain.append(node)
                node = node.parent
            if node._mat is None:  # the root: overlays *are* the state
                node._mat = (node.cells, node.objects, node.globals_added)
            cells, objects, globs = node._mat
            if chain:
                cells, objects, globs = dict(cells), dict(objects), dict(globs)
                for img in reversed(chain):
                    cells.update(img.cells)
                    objects.update(img.objects)
                    globs.update(img.globals_added)
            self._mat = (cells, objects, globs)
        return self._mat

    def __reduce__(self):
        # Wire format: a self-contained flat state.  Keeps payloads
        # independent of chain shape and avoids deep-recursion pickling.
        cells, objects, globs = self._materialized()
        return (_image_from_flat, (cells, objects, globs,
                                   self.next_global, self.next_heap))


class Memory:
    """The sequentially consistent shared memory.

    Values are plain Python integers (pointers are addresses) except for
    list cells, which hold tuples and are manipulated through the ``LIST_*``
    instructions as single read-modify-write accesses.
    """

    def __init__(self, globals_init: Optional[Dict[str, Any]] = None) -> None:
        self._cells: Dict[int, Any] = {}
        self._globals: Dict[str, int] = {}
        self._global_names: Dict[int, str] = {}
        self._objects: Dict[int, HeapObject] = {}
        self._bases: list = []  # sorted object bases (allocator is monotonic)
        self._freed_count = 0
        self._next_global = GLOBAL_BASE
        self._next_heap = HEAP_BASE
        # Dirty journal since the last capture (see MemoryImage).
        self._parent: Optional[MemoryImage] = None
        self._cells_undo: Dict[int, Any] = {}
        self._objects_undo: Dict[int, Any] = {}
        self._globals_undo: Set[str] = set()
        for name, value in (globals_init or {}).items():
            self.define_global(name, value)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def define_global(self, name: str, value: Any = 0) -> int:
        """Allocate a named global cell; idempotent re-definition updates the
        initial value."""
        if name in self._globals:
            addr = self._globals[name]
        else:
            addr = self._next_global
            self._next_global += 8
            self._globals[name] = addr
            self._global_names[addr] = name
            self._globals_undo.add(name)
        self._write(addr, value)
        return addr

    def global_addr(self, name: str) -> int:
        try:
            return self._globals[name]
        except KeyError:
            raise KeyError(f"undefined global {name!r}") from None

    @property
    def global_names(self) -> Dict[str, int]:
        return dict(self._globals)

    def symbolize(self, addr: int) -> str:
        """Best-effort symbolic name for a data address (for reports)."""
        name = self._global_names.get(addr)
        if name is not None:
            return name
        obj = self.object_at(addr, include_freed=True)
        if obj is not None:
            offset = addr - obj.base
            return f"{obj.tag}+{offset}" if offset else obj.tag
        return f"0x{addr:x}"

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def alloc(self, size: int, tag: str, site: str = "",
              leak_tracked: bool = False) -> int:
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        base = self._next_heap
        self._next_heap = base + size + REDZONE
        obj = HeapObject(base=base, size=size, tag=tag,
                         leak_tracked=leak_tracked, alloc_site=site)
        self._set_object(base, obj)
        self._bases.append(base)  # monotonic allocator: stays sorted
        # Slots are lazily materialized: an unwritten in-object slot reads
        # as 0 without ever touching the cells dict.
        return base

    def free(self, addr: int, site: str = "") -> HeapObject:
        obj = self.object_at(addr, include_freed=True)
        if obj is None:
            raise KernelFault(FailureKind.GPF,
                              f"free of non-heap address 0x{addr:x}",
                              data_addr=addr)
        if not obj.contains(addr):
            # The pointer lands in the redzone past the object: freeing it
            # must not silently release the neighbour.
            raise KernelFault(
                FailureKind.GPF,
                f"free of invalid pointer 0x{addr:x} "
                f"(redzone of {obj.tag})",
                data_addr=addr, object_tag=obj.tag)
        if obj.state is ObjectState.FREED:
            raise KernelFault(FailureKind.DOUBLE_FREE,
                              f"double free of {obj.tag}",
                              data_addr=addr, object_tag=obj.tag)
        # Copy-on-free: shared snapshot images may hold the old instance.
        freed = HeapObject(base=obj.base, size=obj.size, tag=obj.tag,
                           state=ObjectState.FREED,
                           leak_tracked=obj.leak_tracked,
                           alloc_site=obj.alloc_site, free_site=site)
        self._set_object(obj.base, freed)
        self._freed_count += 1
        return freed

    def object_at(self, addr: int, include_freed: bool = False) -> Optional[HeapObject]:
        """Find the heap object containing ``addr`` (or whose redzone does).

        Objects plus their redzones tile the heap segment without overlap,
        so the candidate is uniquely the object with the greatest base not
        above ``addr`` — one bisect probe."""
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        obj = self._objects[self._bases[i]]
        if obj.contains(addr) or obj.in_redzone(addr):
            if obj.state is ObjectState.FREED and not include_freed:
                return None
            return obj
        return None

    def live_leaked_objects(self) -> list:
        """Leak-tracked objects that are still allocated but no longer
        referenced from anywhere in memory — the kmemleak criterion: an
        allocated block whose address appears in no live cell is
        unreachable and therefore leaked."""
        referenced = set()
        for value in self._cells.values():
            if isinstance(value, int):
                referenced.add(value)
            elif isinstance(value, tuple):
                referenced.update(v for v in value if isinstance(v, int))
        return [
            obj for obj in self._objects.values()
            if obj.leak_tracked and obj.state is ObjectState.ALLOCATED
            and obj.base not in referenced
        ]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check(self, addr: int, writing: bool) -> bool:
        """Validate an access; returns whether a cell is materialized at
        ``addr`` (an absent in-object slot is valid and reads as 0)."""
        if addr == 0:
            raise KernelFault(FailureKind.GPF, "NULL pointer dereference",
                              data_addr=addr)
        if addr in self._cells:
            # Fast path: a materialized cell can only be a global or an
            # in-object slot, so the only hazard left is use-after-free —
            # and that needs an object lookup only if anything was freed.
            if self._freed_count and addr >= HEAP_BASE:
                obj = self.object_at(addr, include_freed=True)
                if obj is not None and obj.state is ObjectState.FREED:
                    self._raise_uaf(obj, addr, writing)
            return True
        obj = self.object_at(addr, include_freed=True)
        if obj is not None:
            # Valid slots are the object's natural ones (base + k*8,
            # which eager allocation used to pre-fill) plus absolutely
            # 8-aligned in-object addresses (which loads used to
            # materialize on demand).
            if obj.in_redzone(addr) or (addr % 8 != 0
                                        and (addr - obj.base) % 8 != 0):
                raise KernelFault(
                    FailureKind.KASAN_OOB,
                    f"slab-out-of-bounds access in {obj.tag} "
                    f"(offset {addr - obj.base}, size {obj.size})",
                    data_addr=addr, object_tag=obj.tag)
            if obj.state is ObjectState.FREED:
                self._raise_uaf(obj, addr, writing)
            # Valid but uninitialized slot inside a live object.
            return False
        raise KernelFault(FailureKind.GPF,
                          f"wild memory access at 0x{addr:x}", data_addr=addr)

    @staticmethod
    def _raise_uaf(obj: HeapObject, addr: int, writing: bool) -> None:
        action = "write" if writing else "read"
        raise KernelFault(
            FailureKind.KASAN_UAF,
            f"use-after-free {action} in {obj.tag} "
            f"(freed at {obj.free_site or '?'})",
            data_addr=addr, object_tag=obj.tag)

    def load(self, addr: int) -> Any:
        if self._check(addr, writing=False):
            return self._cells[addr]
        # Absent in-object slot: reads are non-mutating — materializing the
        # slot here would make a pure load dirty the undo journal, and the
        # next capture would copy a cell that no store wrote.
        return 0

    def store(self, addr: int, value: Any) -> None:
        self._check(addr, writing=True)
        self._write(addr, value)

    # -- journalled mutation helpers -------------------------------------
    def _write(self, addr: int, value: Any) -> None:
        cells = self._cells
        if addr not in self._cells_undo:
            self._cells_undo[addr] = cells.get(addr, _ABSENT)
        cells[addr] = value

    def _set_object(self, base: int, obj: HeapObject) -> None:
        if base not in self._objects_undo:
            self._objects_undo[base] = self._objects.get(base, _ABSENT)
        self._objects[base] = obj

    # ------------------------------------------------------------------
    # Snapshot / restore (used by the hypervisor between runs)
    # ------------------------------------------------------------------
    def snapshot(self) -> MemoryImage:
        """Capture the current state as a structurally shared image.

        O(dirty): only addresses written since the previous capture are
        copied.  A capture with no intervening writes returns the previous
        image unchanged."""
        parent = self._parent
        dirty = (self._cells_undo or self._objects_undo
                 or self._globals_undo)
        if parent is not None and not dirty:
            return parent
        if parent is None or parent.depth >= _MAX_CHAIN_DEPTH:
            image = MemoryImage(
                None, dict(self._cells), dict(self._objects),
                dict(self._globals), {}, {},
                self._next_global, self._next_heap)
        else:
            image = MemoryImage(
                parent,
                {a: self._cells[a] for a in self._cells_undo},
                {b: self._objects[b] for b in self._objects_undo},
                {n: self._globals[n] for n in self._globals_undo},
                self._cells_undo, self._objects_undo,
                self._next_global, self._next_heap)
        self._parent = image
        self._cells_undo = {}
        self._objects_undo = {}
        self._globals_undo = set()
        return image

    def restore(self, image: MemoryImage) -> None:
        """Rewind (or fast-forward) to a previously captured state.

        Same-lineage restores replay undo/overlay deltas through the common
        ancestor — O(changes between here and there).  Cross-lineage images
        (e.g. unpickled from the wire) fall back to installing the
        materialized state."""
        if image is self._parent:
            if self._cells_undo or self._objects_undo or self._globals_undo:
                self._apply_undo(self._cells_undo, self._objects_undo,
                                 self._globals_undo)
                self._finish_restore(image)
            return
        ancestors = set()
        node = self._parent
        while node is not None:
            ancestors.add(id(node))
            node = node.parent
        forward = []
        node = image
        while node is not None and id(node) not in ancestors:
            forward.append(node)
            node = node.parent
        if node is None:
            cells, objects, globs = image._materialized()
            self._cells = dict(cells)
            self._objects = dict(objects)
            self._globals = dict(globs)
            self._global_names = {addr: name for name, addr in globs.items()}
            self._finish_restore(image)
            return
        common = node
        # Roll the live dirt back, then unwind images down to the ancestor.
        self._apply_undo(self._cells_undo, self._objects_undo,
                         self._globals_undo)
        node = self._parent
        while node is not common:
            self._apply_undo(node.cells_undo, node.objects_undo,
                             node.globals_added)
            node = node.parent
        # Replay overlays forward from the ancestor to the target image.
        for img in reversed(forward):
            self._cells.update(img.cells)
            self._objects.update(img.objects)
            for name, addr in img.globals_added.items():
                self._globals[name] = addr
                self._global_names[addr] = name
        self._finish_restore(image)

    def _apply_undo(self, cells_undo, objects_undo, globals_added) -> None:
        cells = self._cells
        for addr, prev in cells_undo.items():
            if prev is _ABSENT:
                cells.pop(addr, None)
            else:
                cells[addr] = prev
        objects = self._objects
        for base, prev in objects_undo.items():
            if prev is _ABSENT:
                objects.pop(base, None)
            else:
                objects[base] = prev
        for name in globals_added:
            addr = self._globals.pop(name, None)
            if addr is not None:
                self._global_names.pop(addr, None)

    def _finish_restore(self, image: MemoryImage) -> None:
        self._next_global = image.next_global
        self._next_heap = image.next_heap
        self._parent = image
        self._cells_undo = {}
        self._objects_undo = {}
        self._globals_undo = set()
        self._bases = sorted(self._objects)
        self._freed_count = sum(
            1 for o in self._objects.values()
            if o.state is ObjectState.FREED)
