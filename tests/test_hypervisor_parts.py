"""Unit tests for breakpoints, watchpoints and the trampoline."""

from repro.hypervisor.breakpoints import (
    Breakpoint,
    BreakpointManager,
    Watchpoint,
    WatchpointManager,
)
from repro.hypervisor.trampoline import ParkReason, Trampoline
from repro.kernel.access import AccessKind, MemoryAccess


def _access(thread="B", addr=100, kind=AccessKind.READ):
    return MemoryAccess(seq=1, thread=thread, instr_addr=0x20,
                        instr_label="B2", func="f", data_addr=addr,
                        kind=kind, occurrence=1)


class TestBreakpoints:
    def test_occurrence_wildcard_matches_every_execution(self):
        bpm = BreakpointManager()
        bpm.install(Breakpoint(0x10, thread="A"))
        assert bpm.hit("A", 0x10, 1)
        assert bpm.hit("A", 0x10, 5)
        assert bpm.hit("B", 0x10, 1) is None
        assert bpm.hit("A", 0x14, 1) is None

    def test_thread_and_occurrence_filters(self):
        bp = Breakpoint(0x10, thread="A", occurrence=2)
        assert bp.matches("A", 0x10, 2)
        assert not bp.matches("B", 0x10, 2)
        assert not bp.matches("A", 0x10, 1)

    def test_armed_is_the_one_probe_trap_gate(self):
        bpm = BreakpointManager()
        first = Breakpoint(0x10, thread="A", occurrence=1)
        second = Breakpoint(0x10, thread="A", occurrence=3)
        bpm.install(first)
        bpm.install(second)
        bpm.install(Breakpoint(0x20, thread="B", occurrence=1))
        assert ("A", 0x10) in bpm.armed and ("B", 0x20) in bpm.armed
        assert ("B", 0x10) not in bpm.armed
        # Armed is necessary, not sufficient: the occurrence still decides.
        assert bpm.hit("A", 0x10, 2) is None
        assert bpm.hit("A", 0x10, 3) == second
        # A key disarms only when its last breakpoint goes.
        bpm.remove(first)
        assert ("A", 0x10) in bpm.armed
        bpm.remove(second)
        assert ("A", 0x10) not in bpm.armed

    def test_remove_and_clear(self):
        bpm = BreakpointManager()
        bp = Breakpoint(0x10, thread="A")
        bpm.install(bp)
        assert len(bpm) == 1
        bpm.remove(bp)
        assert len(bpm) == 0
        bpm.remove(bp)  # removing an absent breakpoint is a no-op
        bpm.install(bp)
        bpm.clear()
        assert bpm.hit("A", 0x10, 1) is None
        assert not bpm.armed


class TestWatchpoints:
    def test_other_thread_access_traps(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(data_addr=100, owner_thread="A",
                               owner_instr_addr=0x10, owner_label="A6"))
        hits = wpm.observe(_access(thread="B", addr=100))
        assert len(hits) == 1
        assert hits[0].watchpoint.owner_label == "A6"

    def test_owner_access_does_not_trap(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        assert wpm.observe(_access(thread="A", addr=100)) == []

    def test_unwatched_address_ignored(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        assert wpm.observe(_access(addr=200)) == []

    def test_remove_owned_by(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        wpm.remove_owned_by("A", 0x10)
        assert wpm.observe(_access(addr=100)) == []


class TestTrampoline:
    def test_preempted_parking_is_lifo(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.park_preempted("B", 0x20)
        assert t.resume_candidates() == ["B", "A"]
        t.release("B")
        assert t.resume_candidates() == ["A"]
        assert not t.is_parked("B")

    def test_constraint_parking(self):
        t = Trampoline()
        t.park_on_constraint("A", 3, 0x10)
        assert t.parked_reason("A") is ParkReason.CONSTRAINT
        assert t.constraint_index("A") == 3
        released = t.release_constraint_parked()
        assert released == ["A"]
        assert not t.is_parked("A")

    def test_release_constraint_leaves_preempted(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.park_on_constraint("B", 1, 0x20)
        assert t.release_constraint_parked() == ["B"]
        assert t.is_parked("A")

    def test_clear(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.clear()
        assert t.parked_threads() == []
