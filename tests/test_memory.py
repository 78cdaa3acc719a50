"""Unit tests for the shared memory and KASAN-style allocator."""

import pytest

from repro.kernel.failures import FailureKind, KernelFault
from repro.kernel.memory import GLOBAL_BASE, HEAP_BASE, Memory, ObjectState


class TestGlobals:
    def test_define_and_read(self):
        mem = Memory()
        addr = mem.define_global("x", 42)
        assert addr >= GLOBAL_BASE
        assert mem.load(addr) == 42

    def test_redefinition_keeps_address(self):
        mem = Memory()
        a1 = mem.define_global("x", 1)
        a2 = mem.define_global("x", 2)
        assert a1 == a2
        assert mem.load(a1) == 2

    def test_distinct_globals_distinct_addresses(self):
        mem = Memory()
        assert mem.define_global("x") != mem.define_global("y")

    def test_global_addr_unknown_raises(self):
        with pytest.raises(KeyError):
            Memory().global_addr("nope")

    def test_symbolize_global(self):
        mem = Memory()
        addr = mem.define_global("po_fanout")
        assert mem.symbolize(addr) == "po_fanout"


class TestHeap:
    def test_alloc_returns_heap_address(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        assert addr >= HEAP_BASE
        assert mem.load(addr) == 0  # zero-initialised

    def test_alloc_never_reuses_addresses(self):
        mem = Memory()
        a = mem.alloc(8, "a")
        mem.free(a)
        b = mem.alloc(8, "b")
        assert a != b

    def test_store_load_roundtrip(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        mem.store(addr + 8, 99)
        assert mem.load(addr + 8) == 99

    def test_alloc_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Memory().alloc(0, "zero")

    def test_symbolize_heap_field(self):
        mem = Memory()
        addr = mem.alloc(16, "irqfd")
        assert mem.symbolize(addr) == "irqfd"
        assert mem.symbolize(addr + 8) == "irqfd+8"


class TestFaults:
    def test_null_dereference_is_gpf(self):
        with pytest.raises(KernelFault) as exc:
            Memory().load(0)
        assert exc.value.kind is FailureKind.GPF

    def test_wild_access_is_gpf(self):
        with pytest.raises(KernelFault) as exc:
            Memory().load(0xDEAD_BEEF)
        assert exc.value.kind is FailureKind.GPF

    def test_use_after_free_read(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        mem.free(addr, site="K1")
        with pytest.raises(KernelFault) as exc:
            mem.load(addr)
        assert exc.value.kind is FailureKind.KASAN_UAF
        assert "K1" in exc.value.message

    def test_use_after_free_write(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        mem.free(addr)
        with pytest.raises(KernelFault) as exc:
            mem.store(addr + 8, 1)
        assert exc.value.kind is FailureKind.KASAN_UAF

    def test_out_of_bounds_in_redzone(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        with pytest.raises(KernelFault) as exc:
            mem.load(addr + 16)
        assert exc.value.kind is FailureKind.KASAN_OOB

    def test_double_free(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        mem.free(addr)
        with pytest.raises(KernelFault) as exc:
            mem.free(addr)
        assert exc.value.kind is FailureKind.DOUBLE_FREE

    def test_free_of_non_heap_address_is_gpf(self):
        with pytest.raises(KernelFault) as exc:
            Memory().free(0x123)
        assert exc.value.kind is FailureKind.GPF

    def test_in_bounds_uninitialised_slot_reads_zero(self):
        mem = Memory()
        addr = mem.alloc(32, "obj")
        # Slots are initialised every 8 bytes; any aligned in-range slot
        # must read as zero rather than faulting.
        assert mem.load(addr + 24) == 0


class TestLeakDetection:
    def test_unreferenced_tracked_object_is_leaked(self):
        mem = Memory()
        mem.alloc(16, "filter", leak_tracked=True)
        assert len(mem.live_leaked_objects()) == 1

    def test_referenced_object_is_not_leaked(self):
        mem = Memory()
        slot = mem.define_global("task_filter")
        addr = mem.alloc(16, "filter", leak_tracked=True)
        mem.store(slot, addr)
        assert mem.live_leaked_objects() == []

    def test_reference_inside_tuple_counts(self):
        mem = Memory()
        slot = mem.define_global("filter_list", ())
        addr = mem.alloc(16, "filter", leak_tracked=True)
        mem.store(slot, (addr,))
        assert mem.live_leaked_objects() == []

    def test_freed_object_is_not_leaked(self):
        mem = Memory()
        addr = mem.alloc(16, "filter", leak_tracked=True)
        mem.free(addr)
        assert mem.live_leaked_objects() == []

    def test_untracked_object_is_ignored(self):
        mem = Memory()
        mem.alloc(16, "scratch")
        assert mem.live_leaked_objects() == []


class TestSnapshot:
    def test_snapshot_restore_roundtrip(self):
        mem = Memory()
        g = mem.define_global("x", 5)
        addr = mem.alloc(16, "obj")
        snap = mem.snapshot()
        mem.store(g, 9)
        mem.free(addr)
        mem.restore(snap)
        assert mem.load(g) == 5
        assert mem.load(addr) == 0  # object alive again

    def test_snapshot_is_deep(self):
        mem = Memory()
        addr = mem.alloc(16, "obj")
        snap = mem.snapshot()
        mem.free(addr)
        # Mutating after the snapshot must not affect what it captured:
        # restored in place or onto another memory, the object is back.
        other = Memory()
        other.restore(snap)
        mem.restore(snap)
        for restored in (mem, other):
            obj = restored.object_at(addr, include_freed=True)
            assert obj.state is ObjectState.ALLOCATED
