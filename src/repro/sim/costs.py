"""Calibrated cost model for every simulated kernel and Groundhog operation.

The paper measures Groundhog on an Intel Xeon E5-2667 v2 running Linux 5.4.
This reproduction replaces the hardware and kernel with a simulator, so all
durations are produced by the :class:`CostModel` below.  The constants were
calibrated so that the *derived* quantities land in the ranges the paper
reports:

* restoration time: median ~3.7 ms, 10p ~0.7 ms, 90p ~13 ms across the 58
  benchmarks (§3, Fig. 8, Table 3),
* snapshot time: a few ms for small C functions up to ~300 ms for the largest
  Node.js function (Fig. 8),
* in-function overheads: a soft-dirty minor fault per first write to a page
  after ``clear_refs`` (GH), a data-copying CoW fault per first write (FORK),
* restoration cost dominated by (a) scanning pagemap entries of the whole
  address space and (b) copying back dirtied pages (§5.4).

Only the shape of results is claimed (who wins, scaling trends, crossovers);
absolute values are in the right order of magnitude but are not the point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs, in seconds (per unit noted in each field)."""

    # ------------------------------------------------------------------
    # Page faults (charged to the function, on the critical path)
    # ------------------------------------------------------------------
    #: Minor fault that only allocates a zero page lazily (first touch).
    minor_fault_seconds: float = 1.2e-6
    #: Extra cost of a write fault whose only job is to set the soft-dirty
    #: bit after a ``clear_refs`` (Groundhog's in-function overhead).
    soft_dirty_fault_seconds: float = 1.4e-6
    #: Cost of a copy-on-write fault: fault + copy of one page (fork baseline).
    cow_fault_seconds: float = 3.8e-6
    #: Extra first-access cost in a freshly forked child (dTLB miss + lazy PTE
    #: creation) charged per *mapped* page touched, even if unmodified (§5.2.3).
    fork_first_touch_seconds: float = 0.35e-6
    #: Cost of a userfaultfd write-protect fault handled in user space.  The
    #: paper found UFFD notably slower than soft-dirty bits due to context
    #: switches (§4.3).
    uffd_fault_seconds: float = 7.0e-6

    # ------------------------------------------------------------------
    # Memory copying and scanning (restoration / snapshot, off critical path)
    # ------------------------------------------------------------------
    #: Copy one page between the manager and the function process (snapshot
    #: capture or restore write) via /proc/<pid>/mem.
    page_copy_seconds: float = 2.4e-6
    #: When many contiguous pages are restored at once Groundhog coalesces
    #: them into larger writes; coalesced pages cost this much instead
    #: (visible as the slope change at ~60% dirtied in Fig. 3 left).
    page_copy_coalesced_seconds: float = 1.3e-6
    #: Fraction of dirtied pages above which coalescing kicks in.
    coalesce_threshold: float = 0.60
    #: Read one 64-bit pagemap entry (present + soft-dirty bits) from /proc.
    pagemap_scan_seconds: float = 0.18e-6
    #: Reset the soft-dirty bit of one page (write to clear_refs amortised).
    soft_dirty_clear_seconds: float = 0.05e-6
    #: Capture one page during snapshotting (read + store in manager memory).
    snapshot_page_seconds: float = 1.4e-6

    # ------------------------------------------------------------------
    # Process control (ptrace)
    # ------------------------------------------------------------------
    #: Interrupt (PTRACE_INTERRUPT + wait) one thread.
    ptrace_interrupt_seconds: float = 60e-6
    #: Read or write the full register set of one thread.
    ptrace_getset_regs_seconds: float = 8e-6
    #: Inject one syscall into the tracee (save regs, set up, single-step,
    #: restore regs).
    syscall_injection_seconds: float = 25e-6
    #: Detach from one thread.
    ptrace_detach_seconds: float = 20e-6

    # ------------------------------------------------------------------
    # /proc parsing
    # ------------------------------------------------------------------
    #: Parse one line (one VMA) of /proc/<pid>/maps.
    maps_read_per_vma_seconds: float = 3.0e-6
    #: Compare one VMA while diffing two memory layouts.
    layout_diff_per_vma_seconds: float = 0.8e-6

    # ------------------------------------------------------------------
    # Pipes / interposition
    # ------------------------------------------------------------------
    #: Per-byte cost of relaying request/response payloads through the
    #: Groundhog manager's stdin/stdout interposition (§4.5, §5.3.1: json and
    #: img-resize suffer from 200 kB / 76 kB inputs).
    pipe_copy_per_byte_seconds: float = 9.0e-9
    #: Fixed per-message pipe cost (syscalls + wakeup).
    pipe_message_seconds: float = 15e-6
    #: Fixed per-request cost of the Groundhog manager's interposition: the
    #: manager is woken up, parses the request framing, forwards it, waits
    #: for the response and forwards that too.  This is what makes very
    #: short functions (get-time, version) show noticeable relative invoker
    #: overhead under GH and GH-NOP (§5.3.1).
    manager_interposition_seconds: float = 0.9e-3
    #: Per-request invoker-side overhead outside the function process
    #: (actionloop proxy HTTP handling, scheduling).  Present in every
    #: configuration; bounds the achievable throughput of very short
    #: functions.
    invoker_request_overhead_seconds: float = 0.8e-3

    # ------------------------------------------------------------------
    # Container / runtime life-cycle (Fig. 1)
    # ------------------------------------------------------------------
    #: Creating the container environment (namespaces, cgroups, rootfs).
    container_create_seconds: float = 0.450
    #: Exec + dynamic linking of the function runtime binary.
    runtime_exec_seconds: float = 0.020
    #: Initialising one MiB of a managed runtime (interpreter + libraries);
    #: scaled by the runtime's initialisation footprint.
    runtime_init_per_mib_seconds: float = 0.9e-3
    #: Starting one runtime worker thread.
    thread_start_seconds: float = 120e-6
    #: fork() of a fully initialised process (FORK baseline, per invocation):
    #: cost grows with the number of VMAs to duplicate.
    fork_base_seconds: float = 180e-6
    fork_per_vma_seconds: float = 1.6e-6
    #: Tearing down a forked child (exit + reap).
    fork_teardown_seconds: float = 90e-6

    # ------------------------------------------------------------------
    # Alternative isolation mechanisms
    # ------------------------------------------------------------------
    #: FAASM-style reset: drop and CoW-remap the contiguous wasm heap.  Cheap
    #: and mostly independent of function size (Fig. 6 shows a few ms).
    faasm_reset_base_seconds: float = 1.1e-3
    faasm_reset_per_kpage_seconds: float = 0.25e-3
    #: Relative execution-speed factor of WebAssembly vs native for each
    #: language family (§5.3.3): interpreted Python compiled to wasm is much
    #: slower, PolyBench-style numeric C kernels are slightly faster.
    wasm_python_factor: float = 1.75
    wasm_c_factor: float = 0.86
    #: Short-function fixed overhead difference of the FAASM platform.
    faasm_platform_overhead_seconds: float = 0.8e-3
    #: CRIU-style restore: deserialise the image from disk (order of seconds
    #: for real containers; §6 cites ~0.5 s even for in-memory VAS-CRIU).
    criu_restore_base_seconds: float = 0.45
    criu_restore_per_kpage_seconds: float = 1.2e-3
    criu_checkpoint_base_seconds: float = 0.60
    criu_checkpoint_per_kpage_seconds: float = 1.6e-3

    # ------------------------------------------------------------------
    # Node.js runtime behaviour (§5.3.1)
    # ------------------------------------------------------------------
    #: Extra latency of a garbage-collection cycle triggered because
    #: restoration reverted the runtime's notion of elapsed time.
    node_gc_pause_seconds: float = 14e-3
    #: Probability that a restored Node.js runtime triggers such a GC on the
    #: next request (per dirtied MiB of heap, capped at 1.0 by the runtime).
    node_gc_probability_per_mib: float = 0.015


#: The default, paper-calibrated cost model.
DEFAULT_COST_MODEL = CostModel()

