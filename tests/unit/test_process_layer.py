"""Tests for processes, threads, registers, pipes, procfs, ptrace and fork."""

from __future__ import annotations

import pytest

from repro.config import PAGE_SIZE
from repro.errors import (
    NoSuchProcessError,
    ProcessStateError,
    PtraceError,
    SyscallInjectionError,
    UnsupportedRuntimeError,
)
from repro.kernel.faults import FaultRecord
from repro.mem.page import Protection
from repro.mem.vma import VmaKind
from repro.proc.forkexec import fork_process
from repro.proc.pipes import Message, Pipe
from repro.proc.process import ProcessState, SimProcess
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import InjectedSyscall, Ptrace
from repro.proc.registers import RegisterSet
from repro.proc.thread import ThreadState


class TestRegisterSet:
    def test_initial_sets_rip_and_rsp(self):
        regs = RegisterSet.initial(rip=0x1000, rsp=0x2000)
        assert regs.get("rip") == 0x1000
        assert regs.get("rsp") == 0x2000
        assert regs.get("rbp") == 0x2000

    def test_with_updates_returns_new_set(self):
        regs = RegisterSet.initial()
        updated = regs.with_updates(rax=42)
        assert updated.get("rax") == 42
        assert regs.get("rax") == 0

    def test_unknown_register_rejected(self):
        with pytest.raises(KeyError):
            RegisterSet.initial().with_updates(xyz=1)
        with pytest.raises(KeyError):
            RegisterSet.initial().get("xyz")

    def test_advanced_changes_state_deterministically(self):
        regs = RegisterSet.initial()
        a = regs.advanced(100, stack_delta=8)
        b = regs.advanced(100, stack_delta=8)
        assert a == b
        assert a != regs
        assert a.get("rip") == regs.get("rip") + 100

    def test_equality_and_hash(self):
        a = RegisterSet.initial()
        b = RegisterSet.initial()
        assert a == b
        assert hash(a) == hash(b)


class TestThreadsAndProcess:
    def test_process_start_creates_main_thread(self):
        proc = SimProcess("fn")
        proc.start()
        assert proc.num_threads == 1
        assert proc.state is ProcessState.RUNNING

    def test_spawn_thread_assigns_unique_tids(self):
        proc = SimProcess("fn")
        t1 = proc.spawn_thread()
        t2 = proc.spawn_thread()
        assert t1.tid != t2.tid
        assert proc.thread(t1.tid) is t1
        assert proc.threads == (t1, t2)

    def test_stop_and_resume_all_threads(self):
        proc = SimProcess("fn")
        proc.start()
        proc.spawn_thread()
        assert proc.stop_all_threads() == 2
        assert proc.is_stopped
        assert proc.resume_all_threads() == 2
        assert proc.state is ProcessState.RUNNING

    def test_exit_terminates_all_threads(self):
        proc = SimProcess("fn")
        proc.start()
        main = proc.main_thread
        proc.exit(3)
        assert not proc.is_alive
        assert proc.exit_code == 3
        assert proc.threads == () and proc.num_threads == 0
        assert main.state is ThreadState.EXITED
        with pytest.raises(ProcessStateError):
            proc.start()

    def test_thread_cannot_run_while_stopped(self):
        proc = SimProcess("fn")
        proc.start()
        proc.stop_all_threads()
        with pytest.raises(ProcessStateError):
            proc.main_thread.run_instructions(10)

    def test_drop_privileges(self):
        proc = SimProcess("fn")
        proc.drop_privileges(1001)
        assert proc.uid == 1001
        with pytest.raises(ValueError):
            proc.drop_privileges(0)

    def test_unknown_thread_lookup_fails(self):
        proc = SimProcess("fn")
        with pytest.raises(ProcessStateError):
            proc.thread(999999)


class TestPipes:
    def test_fifo_ordering(self):
        pipe = Pipe("p")
        pipe.write(Message(payload_bytes=1, label="a"))
        pipe.write(Message(payload_bytes=2, label="b"))
        assert pipe.read().label == "a"
        assert pipe.read().label == "b"

    def test_read_empty_raises(self):
        with pytest.raises(LookupError):
            Pipe("p").read()

    def test_transfer_cost_scales_with_payload(self):
        pipe = Pipe("p")
        small = pipe.transfer_cost(Message(payload_bytes=100))
        large = pipe.transfer_cost(Message(payload_bytes=200_000))
        assert large > small

    def test_counters_accumulate(self):
        pipe = Pipe("p")
        pipe.write(Message(payload_bytes=10))
        pipe.write(Message(payload_bytes=20))
        assert pipe.bytes_transferred == 30
        assert pipe.messages_transferred == 2

    def test_drain_discards_messages(self):
        pipe = Pipe("p")
        pipe.write(Message(payload_bytes=1))
        assert pipe.drain() == 1
        assert pipe.empty

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Message(payload_bytes=-1)


class TestProcFs:
    def test_read_maps_reflects_address_space(self, process):
        process.address_space.mmap(4 * PAGE_SIZE, name="lib.so")
        layout, cost = ProcFs(process).read_maps()
        assert layout.num_vmas == 1
        assert cost > 0

    def test_scan_pagemap_and_clear_refs(self, process):
        vma = process.address_space.mmap(8 * PAGE_SIZE, populate=True)
        procfs = ProcFs(process)
        procfs.clear_soft_dirty()
        process.address_space.write_page(vma.first_page, b"x")
        scan = procfs.scan_pagemap()
        assert scan.dirty_pages == (vma.first_page,)
        cleared, _ = procfs.clear_soft_dirty()
        assert cleared == 1
        assert procfs.scan_pagemap().dirty_pages == ()

    def test_dead_process_rejected(self, process):
        procfs = ProcFs(process)
        process.exit()
        with pytest.raises(NoSuchProcessError):
            procfs.read_maps()


class TestPtrace:
    def test_attach_interrupt_resume_detach(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        assert ptrace.interrupt_all() > 0
        assert process.is_stopped
        ptrace.resume_all()
        assert process.state is ProcessState.RUNNING
        ptrace.detach()
        assert not ptrace.attached

    def test_operations_require_attachment(self, process):
        ptrace = Ptrace(process)
        with pytest.raises(PtraceError):
            ptrace.interrupt_all()

    def test_register_roundtrip(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        ptrace.interrupt_all()
        regs, _ = ptrace.get_registers()
        tid = process.main_thread.tid
        modified = {tid: regs[tid].with_updates(rax=99)}
        ptrace.set_registers(modified)
        assert process.main_thread.get_registers().get("rax") == 99

    def test_registers_require_stop(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        with pytest.raises(PtraceError):
            ptrace.get_registers()

    def test_inject_mmap_and_munmap(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        ptrace.interrupt_all()
        address = 0x30000000
        ptrace.inject_syscall(
            InjectedSyscall("mmap", (address, 2 * PAGE_SIZE, Protection.rw(), VmaKind.ANON, "inj"))
        )
        assert process.address_space.find_vma(address) is not None
        ptrace.inject_syscall(InjectedSyscall("munmap", (address, 2 * PAGE_SIZE)))
        assert process.address_space.find_vma(address) is None

    def test_inject_brk(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        ptrace.interrupt_all()
        target = process.address_space.brk_base + 4 * PAGE_SIZE
        ptrace.inject_syscall(InjectedSyscall("brk", (target,)))
        assert process.address_space.brk == target

    def test_unsupported_syscall_rejected(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        ptrace.interrupt_all()
        with pytest.raises(SyscallInjectionError):
            ptrace.inject_syscall(InjectedSyscall("open", ("/etc/passwd",)))

    def test_failed_syscall_wrapped(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        ptrace.interrupt_all()
        with pytest.raises(SyscallInjectionError):
            ptrace.inject_syscall(InjectedSyscall("munmap", (12345, PAGE_SIZE)))

    def test_double_attach_rejected(self, process):
        ptrace = Ptrace(process)
        ptrace.seize()
        with pytest.raises(PtraceError):
            ptrace.seize()


class TestForkExec:
    def test_fork_rejects_multithreaded_parent(self, process):
        process.spawn_thread()
        with pytest.raises(UnsupportedRuntimeError):
            fork_process(process)

    def test_fork_allows_override_for_experiments(self, process):
        process.spawn_thread()
        result = fork_process(process, require_single_threaded=False)
        assert result.child.is_alive

    def test_fork_cost_grows_with_vma_count(self, process):
        result_small = fork_process(process)
        for _ in range(50):
            process.address_space.mmap(PAGE_SIZE)
        result_large = fork_process(process)
        assert result_large.cost_seconds > result_small.cost_seconds

    def test_fork_child_starts_running_with_parent_registers(self, process):
        process.main_thread.run_instructions(500)
        result = fork_process(process)
        assert result.child.state is ProcessState.RUNNING
        assert result.child.main_thread.get_registers() == process.main_thread.get_registers()

    def test_cannot_fork_exited_process(self, process):
        process.exit()
        with pytest.raises(ProcessStateError):
            fork_process(process)


class TestKernel:
    def test_create_and_reap(self, kernel):
        proc = kernel.create_process("fn")
        assert kernel.process(proc.pid) is proc
        kernel.reap(proc)
        with pytest.raises(NoSuchProcessError):
            kernel.process(proc.pid)
        assert kernel.stats.processes_exited == 1

    def test_lookup_unknown_pid(self, kernel):
        with pytest.raises(NoSuchProcessError):
            kernel.process(424242)

    def test_fork_registers_child(self, kernel):
        parent = kernel.create_process("fn")
        parent.start()
        result = kernel.fork(parent)
        assert kernel.process(result.child.pid) is result.child
        assert kernel.stats.forks == 1

    def test_views_require_registered_process(self, kernel):
        foreign = SimProcess("foreign")
        with pytest.raises(NoSuchProcessError):
            kernel.procfs(foreign)
        with pytest.raises(NoSuchProcessError):
            kernel.ptrace(foreign)

    def test_fault_record_reflects_meter(self, kernel):
        proc = kernel.create_process("fn")
        proc.start()
        vma = proc.address_space.mmap(4 * PAGE_SIZE)
        proc.address_space.write_range(vma.first_page, 4, b"x")
        record = FaultRecord.from_meter(proc.address_space.meter.counters)
        assert record.minor == 4
        assert record.total == 4
        assert record.cost_seconds(proc.cost_model) > 0
