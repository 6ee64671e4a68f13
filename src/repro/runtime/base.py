"""The function-runtime model shared by all language families.

A :class:`FunctionRuntime` hosts one FaaS function inside a
:class:`~repro.proc.process.SimProcess`.  It is responsible for the three
phases of the container life-cycle that Groundhog cares about (Fig. 1):

* **boot** — exec the runtime and map its initialised footprint,
* **warm** — serve the dummy request provided by the function deployer,
  which triggers lazy paging / lazy class loading and any application-level
  initialisation of global state (§4.1), and
* **invoke** — serve one real request: dirty the function's working set,
  cause whatever memory-layout churn the runtime is known for, and produce
  a response.

The runtime performs *real* memory operations against the simulated address
space — writes that carry the request payload, heap growth, scratch
mappings, read touches — so every isolation mechanism's overhead and every
restoration's work is derived from actual memory state rather than assumed.
Execution time is the profile's calibrated compute cost plus whatever the
memory system charged for faults.
"""

from __future__ import annotations

import abc
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.errors import ProcessStateError, RuntimeModelError
from repro.kernel.faults import FaultRecord
from repro.mem.page import Protection
from repro.mem.vma import Vma, VmaKind
from repro.proc.process import ProcessState, SimProcess
from repro.sim.rng import fallback_stream
from repro.runtime.profiles import FunctionProfile, Language


@dataclass(frozen=True)
class BootResult:
    """Outcome of booting the runtime inside its process."""

    boot_seconds: float
    mapped_pages: int
    threads: int


class InvocationResult(NamedTuple):
    """Outcome of serving one request (dummy or real).

    Every request builds one, so it is a named tuple: immutable, and
    several times cheaper to build than a frozen dataclass.
    """

    #: The structured response returned to the platform.
    response: Dict[str, object]
    #: Serialized response size in bytes.
    response_bytes: int
    #: Pure compute time (including GC pauses and leak-induced slowdown).
    compute_seconds: float
    #: Critical-path time charged by the memory system (faults).
    fault_seconds: float
    #: Fault counts behind ``fault_seconds``.
    faults: FaultRecord
    #: Number of page-sized writes the invocation performed.
    pages_written: int
    #: Payload found in the request buffer *before* this request overwrote
    #: it.  Empty when the process state was clean; contains the previous
    #: request's data when state leaked across invocations.
    residual: bytes
    #: Portion of ``compute_seconds`` attributable to a GC pause triggered
    #: by rolled-back runtime clocks (§5.3.1's Node.js discussion).
    gc_pause_seconds: float = 0.0

    @property
    def busy_seconds(self) -> float:
        """Total time the function process was busy with this request."""
        return self.compute_seconds + self.fault_seconds


class RequestPlan:
    """Where a warm request's memory work lands, resolved once per layout.

    A warm container serves one function, one request at a time, over a
    memory layout that does not change between requests (§3.1).  The plan
    keeps what every request would otherwise work out again: the
    profile's page counts and the mapping handles
    (:meth:`AddressSpace.mapping_at`) of the request-buffer page and the
    working VMA.  The handles belong to one process's address space at one
    :attr:`AddressSpace.layout_generation` (``process`` and ``generation``);
    :meth:`resolve` looks them up again.
    """

    __slots__ = (
        "buffer_page",
        "working_first",
        "working_pages",
        "dirtied_pages",
        "read_pages",
        "growth_pages",
        "leak_pages",
        "process",
        "generation",
        "buffer",
        "working",
    )

    def __init__(self, profile: FunctionProfile, buffer_page: int, working: Vma) -> None:
        #: The request buffer (the leak channel) and the working VMA's pages.
        self.buffer_page = buffer_page
        self.working_first = working.first_page
        self.working_pages = working.num_pages
        #: The profile's per-request page counts.
        self.dirtied_pages = profile.dirtied_pages
        self.read_pages = min(profile.read_pages, working.num_pages)
        self.growth_pages = profile.heap_growth_pages
        self.leak_pages = profile.leak_pages_per_invocation
        #: The process and layout generation the handles were resolved in.
        self.process: Optional[SimProcess] = None
        self.generation = -1
        self.buffer = None
        self.working = None

    def resolve(self, process: SimProcess) -> None:
        """Look the handles up in ``process``'s address space as it is now."""
        space = process.address_space
        self.process = process
        self.generation = space.layout_generation
        self.buffer = space.mapping_at(self.buffer_page)
        self.working = space.mapping_at(self.working_first)


class FunctionRuntime(abc.ABC):
    """Base class of the per-language runtime models."""

    #: Overridden by subclasses.
    language: Language = Language.C
    #: Human-readable runtime name (shown in reports).
    runtime_name: str = "runtime"

    def __init__(
        self,
        profile: FunctionProfile,
        process: SimProcess,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.profile = profile
        self.process = process
        self.rng = rng if rng is not None else fallback_stream("runtime")
        self._booted = False
        self._warmed = False
        self._invocations = 0
        self._leaked_pages = 0
        self._restored_since_last_invoke = False
        self._scratch_vmas: List[Vma] = []
        self._scratch_counter = 0
        self._lazy_vma: Optional[Vma] = None
        self._lazy_pages_remaining = 0
        self._clean_state: Optional[Tuple[int, List[Vma]]] = None
        self._plan: Optional[RequestPlan] = None
        #: The last payload digested and its digest (payloads are immutable).
        self._digested: Optional[bytes] = None
        self._digest = ""

    # ------------------------------------------------------------------
    # Layout planning hooks (overridden per language)
    # ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        """Threads this runtime starts (profile-driven, language-clamped)."""
        return max(1, self.profile.threads)

    def _text_pages(self) -> int:
        """Pages of executable text mapped at boot."""
        return max(4, int(self.profile.total_pages * 0.02))

    def _data_pages(self) -> int:
        """Pages of static data mapped at boot."""
        return max(4, int(self.profile.total_pages * 0.03))

    def _heap_pages(self) -> int:
        """Initial heap size in pages."""
        return max(16, int(self.profile.total_pages * 0.10))

    def _stack_pages_per_thread(self) -> int:
        """Stack pages per runtime thread."""
        return 32

    def _arena_vma_count(self) -> int:
        """Number of additional runtime arena mappings created at boot.

        Managed runtimes map many separate regions; the count feeds the
        maps-read and layout-diff costs of snapshot and restore.
        """
        return 4

    def _init_extra_seconds(self) -> float:
        """Extra one-time runtime initialisation cost (interpreter startup)."""
        return 0.0

    # ------------------------------------------------------------------
    # Boot / warm
    # ------------------------------------------------------------------

    def boot(self) -> BootResult:
        """Exec the runtime inside the process and map its initial footprint."""
        if self._booted:
            raise RuntimeModelError(f"{self.runtime_name} already booted")
        process = self.process
        space = process.address_space
        cm = process.cost_model
        profile = self.profile

        total = profile.total_pages
        text = self._text_pages()
        data = self._data_pages()
        heap = self._heap_pages()
        stacks = self._stack_pages_per_thread() * self.num_threads
        arena_count = self._arena_vma_count()

        # The working region absorbs whatever is left of the footprint and
        # must at least hold the per-invocation write set plus slack.
        fixed = text + data + heap + stacks + arena_count * 16
        working = max(profile.dirtied_pages + profile.heap_growth_pages + 64, total - fixed)
        init_working = max(1, int(working * profile.init_fraction))
        lazy_working = working - init_working

        space.mmap(text * PAGE_SIZE, Protection.rx(), kind=VmaKind.TEXT,
                   name=f"{self.runtime_name}.text", populate=True)
        space.mmap(data * PAGE_SIZE, Protection.rw(), kind=VmaKind.DATA,
                   name=f"{self.runtime_name}.data", populate=True)
        space.set_brk(space.brk_base + heap * PAGE_SIZE)
        heap_vma = space.find_vma(space.brk_base)
        if heap_vma is not None:
            space.kernel_write_range(heap_vma.first_page, heap_vma.num_pages, b"")
        for index in range(arena_count):
            space.mmap(16 * PAGE_SIZE, Protection.rw(), kind=VmaKind.RUNTIME,
                       name=f"{self.runtime_name}.arena{index}", populate=True)
        working_vma = space.mmap(
            init_working * PAGE_SIZE, Protection.rw(), kind=VmaKind.RUNTIME,
            name=f"{self.runtime_name}.working", populate=True,
        )
        self._lazy_pages_remaining = lazy_working
        for thread_index in range(self.num_threads):
            space.map_stack(self._stack_pages_per_thread() * PAGE_SIZE,
                            name=f"stack:{self.runtime_name}-t{thread_index}")
            process.spawn_thread(name=f"{self.runtime_name}-t{thread_index}")
        process.start()

        # The request buffer lives at the start of the heap: it is where the
        # (buggy) function caches request data between invocations.
        self._plan = RequestPlan(profile, space.brk_base // PAGE_SIZE, working_vma)

        footprint_mib = profile.footprint_bytes / (1024 * 1024)
        boot_seconds = (
            cm.runtime_exec_seconds
            + footprint_mib * cm.runtime_init_per_mib_seconds * profile.init_fraction
            + self.num_threads * cm.thread_start_seconds
            + self._init_extra_seconds()
        )
        self._booted = True
        return BootResult(
            boot_seconds=boot_seconds,
            mapped_pages=space.total_mapped_pages,
            threads=self.num_threads,
        )

    def warm(self, payload: bytes = b"__dummy__") -> InvocationResult:
        """Serve the deployer-supplied dummy request (§4.1).

        Lazy loading happens here: the remaining fraction of the footprint
        is mapped and populated, so the snapshot taken right after the warm
        request captures a fully initialised runtime.
        """
        if not self._booted:
            raise RuntimeModelError("warm() before boot()")
        space = self.process.address_space
        if self._lazy_pages_remaining > 0:
            self._lazy_vma = space.mmap(
                self._lazy_pages_remaining * PAGE_SIZE,
                Protection.rw(),
                kind=VmaKind.RUNTIME,
                name=f"{self.runtime_name}.lazy",
                populate=True,
            )
            self._lazy_pages_remaining = 0
        result = self._execute(payload, request_id="warmup", is_warm=True)
        self._warmed = True
        return result

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def invoke(self, payload: bytes, request_id: str = "") -> InvocationResult:
        """Serve one request carrying ``payload``."""
        if not self._warmed:
            raise RuntimeModelError("invoke() before warm()")
        if self.process.state is not ProcessState.RUNNING:
            raise ProcessStateError(
                f"function process is {self.process.state.value}, not running"
            )
        self._invocations += 1
        return self._execute(payload, request_id or f"req-{self._invocations}", is_warm=False)

    def mark_clean_state(self) -> None:
        """Record the logical state corresponding to the clean snapshot.

        The runtime's bookkeeping (accumulated leaks, scratch-arena list)
        lives in the function process's memory in reality, so rolling the
        process back also rolls that bookkeeping back.  Isolation mechanisms
        call this right after the snapshot is taken and
        :meth:`reset_logical_state` after every rollback.
        """
        self._clean_state = (self._leaked_pages, list(self._scratch_vmas))

    def reset_logical_state(self) -> None:
        """Revert memory-resident bookkeeping to the clean-snapshot state."""
        if self._clean_state is not None:
            leaked, scratch = self._clean_state
            self._leaked_pages = leaked
            self._scratch_vmas = list(scratch)

    def notify_restored(self) -> None:
        """Tell the runtime its in-memory state was rolled back.

        Resets memory-resident bookkeeping and flags time-dependent
        behaviour (garbage-collection clocks) that restoration perturbs; see
        the Node.js runtime.
        """
        self._restored_since_last_invoke = True
        self.reset_logical_state()

    # ------------------------------------------------------------------
    # Shared execution model
    # ------------------------------------------------------------------

    def _execute(self, payload: bytes, request_id: str, is_warm: bool) -> InvocationResult:
        profile = self.profile
        process = self.process
        space = process.address_space
        plan = self._plan
        assert plan is not None
        if plan.process is not process or plan.generation != space.layout_generation:
            plan.resolve(process)
        meter_before = space.meter.checkpoint()

        # (1) A buggy function caches request data in a global buffer: read
        # whatever is there (the leak channel) and overwrite it with this
        # request's payload.
        residual = space.read_mapped(plan.buffer, plan.buffer_page)
        secret = b"REQ:" + request_id.encode("utf-8") + b":" + payload[:128]
        space.write_mapped(plan.buffer, plan.buffer_page, 1, secret)

        # (2) Heap growth from allocations that survive the request.
        pages_from_growth = plan.growth_pages
        if pages_from_growth > 0:
            old_brk = space.brk
            space.sbrk(pages_from_growth * PAGE_SIZE)
            space.write_range(old_brk // PAGE_SIZE, pages_from_growth, b"ALLOC:" + secret[:32])

        # (3) Runtime-specific layout churn (scratch arenas mapped/unmapped).
        pages_from_scratch = self._layout_churn(secret)
        if plan.generation != space.layout_generation:
            plan.resolve(process)

        # (4) Bulk dirtying of the function's working set.
        already_dirtied = 1 + pages_from_growth + pages_from_scratch
        bulk = max(0, plan.dirtied_pages - already_dirtied)
        bulk = min(bulk, plan.working_pages)
        if bulk > 0:
            space.write_mapped(plan.working, plan.working_first, bulk, b"WS:" + secret[:24])

        # (5) Read-touch the wider working set (matters for fork's cold TLB).
        if plan.read_pages > 0:
            space.touch_read_mapped(plan.working, plan.working_first, plan.read_pages)
        self._extra_reads()

        # (6) Registers advance on every thread.
        instructions = 1024 + 64 * self._invocations
        for thread in process.threads:
            thread.run_instructions(instructions=instructions, stack_delta=0)

        # (7) Memory leak accumulation (the ``logging`` benchmark).
        leak_slowdown = 0.0
        if plan.leak_pages > 0 and not is_warm:
            old_brk = space.brk
            space.sbrk(plan.leak_pages * PAGE_SIZE)
            space.write_range(old_brk // PAGE_SIZE, plan.leak_pages, b"LEAK")
            self._leaked_pages += plan.leak_pages
            leak_slowdown = (
                (self._leaked_pages / 1000.0) * profile.leak_slowdown_seconds_per_kpage
            )

        # (8) Compute time: calibrated cost, jitter, runtime-specific extras.
        gc_pause = self._gc_pause(is_warm)
        base_exec = self._base_execution_seconds()
        jitter = self.rng.gauss(0.0, profile.exec_jitter) if profile.exec_jitter else 0.0
        compute_seconds = max(1e-6, base_exec * (1.0 + jitter)) + leak_slowdown + gc_pause

        meter_delta = space.meter.since(meter_before)
        faults = FaultRecord.from_meter(meter_delta)
        response = self._build_response(payload, request_id, residual, is_warm)
        self._restored_since_last_invoke = False
        return InvocationResult(
            response=response,
            response_bytes=profile.output_bytes,
            compute_seconds=compute_seconds,
            fault_seconds=meter_delta.cost_seconds,
            faults=faults,
            pages_written=meter_delta.pages_written,
            residual=residual,
            gc_pause_seconds=gc_pause,
        )

    # ------------------------------------------------------------------
    # Hooks customised by subclasses
    # ------------------------------------------------------------------

    def _base_execution_seconds(self) -> float:
        """Pure compute cost of one invocation before jitter and extras."""
        return self.profile.exec_seconds

    def _layout_churn(self, secret: bytes) -> int:
        """Map/unmap scratch regions; returns pages dirtied in new regions."""
        profile = self.profile
        space = self.process.address_space
        pages_written = 0
        scratch_pages = 12
        for _ in range(profile.regions_mapped_per_invocation):
            self._scratch_counter += 1
            vma = space.mmap(
                scratch_pages * PAGE_SIZE,
                Protection.rw(),
                kind=VmaKind.ANON,
                name=f"{self.runtime_name}.scratch{self._scratch_counter}",
            )
            space.write_range(vma.first_page, scratch_pages, b"SCRATCH:" + secret[:16])
            self._scratch_vmas.append(vma)
            pages_written += scratch_pages
        for _ in range(profile.regions_unmapped_per_invocation):
            if not self._scratch_vmas:
                break
            vma = self._scratch_vmas.pop(0)
            if space.find_vma(vma.start) is not None:
                space.munmap(vma.start, vma.length)
        return pages_written

    def _extra_reads(self) -> None:
        """Additional read behaviour (the microbenchmark overrides this)."""

    def _gc_pause(self, is_warm: bool) -> float:
        """GC pause triggered by restoration-perturbed clocks (default none)."""
        return 0.0

    def _build_response(
        self, payload: bytes, request_id: str, residual: bytes, is_warm: bool
    ) -> Dict[str, object]:
        if payload is not self._digested:
            self._digested = payload
            self._digest = hashlib.sha256(payload).hexdigest()[:16]
        return {
            "ok": True,
            "request_id": request_id,
            "result": self._digest,
            "warm": is_warm,
            "residual": residual,
            "runtime": self.runtime_name,
            "invocations_seen": self._invocations,
        }

    # ------------------------------------------------------------------
    # Introspection used by tests and mechanisms
    # ------------------------------------------------------------------

    @property
    def invocations(self) -> int:
        """Number of real (non-warm) invocations served."""
        return self._invocations

    @property
    def request_buffer_page(self) -> int:
        """Page number of the global request buffer (the leak channel)."""
        if self._plan is None:
            raise RuntimeModelError("runtime not booted")
        return self._plan.buffer_page

    def read_request_buffer(self) -> bytes:
        """Return the current content of the request buffer page."""
        return self.process.address_space.kernel_read_page(self.request_buffer_page)
