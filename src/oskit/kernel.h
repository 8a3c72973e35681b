/**
 * @file
 * The shared kernel core: process table, deterministic round-robin
 * scheduler, blocking syscall machinery, and the syscall dispatch
 * that every OS personality (Linux model, Occlum LibOS, EIP/Graphene
 * baseline) plugs into.
 *
 * Personalities differ in:
 *  - how processes are created and where their memory lives (per-
 *    process address spaces vs. domains in one shared enclave),
 *  - the cost of a syscall round trip (native trap vs. in-enclave
 *    function call vs. OCALL with two world switches),
 *  - the file system behind open() (plain host FS vs. writable
 *    encrypted FS vs. read-only protected files),
 *  - extra costs on IPC (the EIP baseline encrypts pipe traffic
 *    through untrusted memory, paper §3.2),
 *  - syscall-return validation (the Occlum LibOS checks the return
 *    target is a cfi_label of the calling SIP, paper §6).
 */
#ifndef OCCLUM_OSKIT_KERNEL_H
#define OCCLUM_OSKIT_KERNEL_H

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/sim_clock.h"
#include "oelf/abi.h"
#include "oskit/file_object.h"
#include "oskit/leaf_table.h"
#include "oskit/quantum_pool.h"
#include "trace/metrics.h"
#include "vm/cpu.h"

namespace occlum::oskit {

/** Why a process stopped for good. */
enum class DeathCause {
    kNone,       // still alive
    kExited,     // called exit()
    kFault,      // memory/bound/decode fault (killed by the kernel)
    kPrivileged, // executed a privileged instruction
    kKilled,     // kill() by another process
    kPipe,       // wrote to a pipe with no readers (SIGPIPE-shaped)
};

/**
 * A process's pre-run (DESIGN.md §3.4): its next quantum, executed
 * speculatively on a pool thread while the walk goes on, and committed
 * or undone at its walk slot, which may lie in the round after the
 * post. The kernel owns the fields before the "written by run()" mark;
 * the pool thread running the task writes the ones after it, which the
 * kernel reads only once the task is settled.
 */
struct PreRunTask final : QuantumPool::Task {
    /** Posted and not yet settled. */
    bool posted = false;
    /** CPU cycles and instructions before the pre-run. */
    uint64_t base_cycles = 0;
    uint64_t base_instructions = 0;
    /** The Cpu's code generation at the post. */
    uint64_t generation = 0;
    vm::Cpu *cpu = nullptr;
    uint64_t quantum = 0;

    // ---- written by run() ---------------------------------------------
    /** A speculation is outstanding (neither committed nor undone). */
    bool speculated = false;
    /** The speculation was refused (foreign access, code store). */
    bool yielded = false;
    /** Its exit, consumed at the walk slot. */
    vm::CpuExit exit;

  private:
    void run() override;
};

/** Scheduler state of a process. */
enum class ProcState {
    kRunnable,
    kBlocked,
    kDead,
};

/**
 * A process's descriptor table: a LeafTable indexed by fd, a null slot
 * being a free descriptor. Lookup is two indexes; memory follows the
 * descriptors open, so a dup2 far up costs one leaf, not the span
 * below it. Fds are the `int` the syscall layer truncates its
 * argument to.
 */
class FdTable
{
  public:
    /** dup2's newfd bound, like RLIMIT_NOFILE: the one call that can
     *  name a descriptor far above the ones in use. */
    static constexpr int kLimit = 1 << 20;

    /** The object open at `fd`, or null (free or out of range). */
    FileObject *
    get(int fd) const
    {
        const FilePtr *slot = find(fd);
        return slot ? slot->get() : nullptr;
    }
    /** get() as a strong reference (null if not open). */
    FilePtr
    ref(int fd) const
    {
        const FilePtr *slot = find(fd);
        return slot ? *slot : nullptr;
    }
    bool contains(int fd) const { return get(fd) != nullptr; }

    /** Install `file` at `fd` (0 <= fd < kLimit), replacing nothing:
     *  the slot must be free. */
    void
    set(int fd, FilePtr file)
    {
        slots_.claim(static_cast<size_t>(fd)) = std::move(file);
    }
    /** Free the open `fd`, returning what was open there. */
    FilePtr
    take(int fd)
    {
        FilePtr file = std::move(*slots_.find(static_cast<size_t>(fd)));
        slots_.release(static_cast<size_t>(fd));
        return file;
    }

    /** The lowest free descriptor at or above `from`. */
    int
    lowest_free(int from) const
    {
        while (get(from)) {
            ++from;
        }
        return from;
    }

    /** `fn(fd, file)` for every open descriptor, ascending. */
    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        slots_.for_each([&fn](size_t fd, const FilePtr &file) {
            if (file) {
                fn(static_cast<int>(fd), file);
            }
        });
    }

    void clear() { slots_.clear(); }

    /** Allocated leaves of LeafTable::kLeafSize slots each. */
    size_t leaves() const { return slots_.leaves(); }

  private:
    const FilePtr *
    find(int fd) const
    {
        return fd >= 0 ? slots_.find(static_cast<size_t>(fd)) : nullptr;
    }

    LeafTable<FilePtr> slots_;
};

/**
 * A set of pids as a bitmap: insert and erase are a bit flip, and the
 * ascending scan the walk makes reads a word per 64 pids.
 */
class PidSet
{
  public:
    void
    insert(int pid)
    {
        const size_t word = static_cast<size_t>(pid) / 64;
        if (word >= words_.size()) {
            words_.resize(word + 1);
        }
        words_[word] |= 1ull << (pid % 64);
    }

    void
    erase(int pid)
    {
        const size_t word = static_cast<size_t>(pid) / 64;
        if (word < words_.size()) {
            words_[word] &= ~(1ull << (pid % 64));
        }
    }

    /** The lowest member above `pid` (>= 0), or -1 if none. */
    int
    next_after(int pid) const
    {
        size_t word = static_cast<size_t>(pid + 1) / 64;
        if (word >= words_.size()) {
            return -1;
        }
        uint64_t bits = words_[word] & (~0ull << ((pid + 1) % 64));
        for (;;) {
            if (bits != 0) {
                return static_cast<int>(word * 64) + __builtin_ctzll(bits);
            }
            if (++word == words_.size()) {
                return -1;
            }
            bits = words_[word];
        }
    }

  private:
    std::vector<uint64_t> words_;
};

/** One process (a SIP under Occlum; a full enclave under EIP). */
struct Process {
    int pid = 0;
    /**
     * Fixed home core (pid % cores, assigned at spawn). Run-queue
     * membership is always on the home core's queue — work stealing
     * changes which core *executes* a quantum, never where the pid is
     * queued, so cross-core wakeups need no routing decision.
     */
    int home_core = 0;
    /**
     * Round sequence number of the last scheduler visit (quantum or
     * syscall retry). A pid stolen by an earlier core in the round
     * must not run again when its home core walks its queue.
     */
    uint64_t ran_round = 0;
    ProcState state = ProcState::kRunnable;
    PreRunTask prerun;
    DeathCause death = DeathCause::kNone;
    int64_t exit_code = 0;
    vm::FaultKind last_fault = vm::FaultKind::kNone;
    uint64_t last_fault_addr = 0;

    /** CPU + memory; both owned by the personality's process record. */
    vm::Cpu *cpu = nullptr;
    vm::AddressSpace *space = nullptr;

    FdTable fds;

    std::vector<std::string> argv;

    /** Owned resources for per-process-space personalities. */
    std::unique_ptr<vm::AddressSpace> owned_space;
    std::unique_ptr<vm::Cpu> owned_cpu;

    /** Domain geometry (used by Occlum; Linux uses it for the PCB). */
    uint64_t domain_base = 0;
    uint64_t d_begin = 0; // data region begin
    uint64_t d_end = 0;   // data region end (exclusive)
    /** The domain id the loader stamped into the SIP's cfi_labels. The
     *  PCB holds a copy the SIP can overwrite; this one it cannot. */
    uint32_t domain_id = 0;

    /** mmap bump area inside the heap. */
    uint64_t mmap_cursor = 0;
    uint64_t mmap_end = 0;

    /** Earliest time a blocked process should retry (cycles); while
     *  armed, the key of its entry in Kernel::timers_. */
    uint64_t wake_time = ~0ull;

    /**
     * Set when a wakeup (wait-queue notification or due timer) has
     * scheduled this blocked process for one retry dispatch. Cleared
     * when the retry runs.
     */
    bool wake_pending = false;

    /**
     * Every wait queue this blocked process is registered on (one for
     * read/write/accept/waitpid, several for poll). Any wake detaches
     * it from all of them.
     */
    std::vector<WaitQueue *> waiting_on;

    /** In-flight (possibly blocked) syscall state. */
    bool in_syscall = false;
    uint64_t sys_num = 0;
    uint64_t sys_args[abi::kSyscallArgs] = {};
    uint64_t sys_ret_addr = 0;
    /**
     * Absolute deadline (cycles) for the in-flight syscall, computed
     * once at the first dispatch so blocked retries do not slide it.
     * ~0 = none/unset; reset on syscall entry.
     */
    uint64_t sys_deadline = ~0ull;

    /**
     * Epoll objects reachable from this process's fd table, so close()
     * can auto-remove the closed fd from every interest list without
     * scanning the whole table (O(#epolls), and #epolls is ~1).
     * Maintained by kEpollCreate / kClose / kill_process.
     */
    std::vector<EpollObject *> epolls;

    /**
     * Scan cursor for alloc_fd: every descriptor below it is known to
     * be occupied. Installing fds never invalidates it; any erase at
     * `fd` must lower it via fd_closed(fd). Keeps allocation O(1)
     * amortized instead of O(fds) — at a million open connections the
     * old full scan made every accept quadratic.
     */
    int fd_scan_hint = 0;

    void
    fd_closed(int fd)
    {
        fd_scan_hint = std::min(fd_scan_hint, fd);
    }

    /**
     * POSIX-style allocation: the lowest descriptor not currently in
     * the fd table. The caller must install the returned fd in `fds`
     * before allocating again (pipe() allocates two in a row), or the
     * same number comes back twice.
     */
    int
    alloc_fd()
    {
        int fd = fds.lowest_free(fd_scan_hint);
        // Everything below the returned fd is occupied, so the next
        // scan may start here (the caller installs this fd).
        fd_scan_hint = fd;
        return fd;
    }
};

/** Post-mortem record kept after a process is reaped. */
struct DeathRecord {
    DeathCause cause = DeathCause::kNone;
    int64_t code = 0;
    vm::FaultKind fault = vm::FaultKind::kNone;
    uint64_t fault_addr = 0;
};

/** Aggregate execution statistics. */
struct KernelStats {
    uint64_t spawns = 0;
    uint64_t syscalls = 0;
    uint64_t user_instructions = 0;
    uint64_t faults = 0;
};

/**
 * Host-side pre-run bookkeeping. Which posts happen, and which of them
 * are discarded or go stale, depends on simulated state only; how many
 * ran on a thread, were taken back or yielded depends on the host's
 * CPUs and timing too, so none of it is part of a simulated result.
 * `stale` counts discards whose Cpu's code generation moved between
 * post and slot: only a Cpu that follows the space-wide clock (an
 * unsigned SIP that ran a sibling's code) can see that, since nothing
 * changes a live SIP's own slot region before its slot. A post made at
 * a budget exit waits for the next round's slot, so a respawn anywhere
 * in the rest of that round can stale it.
 */
struct PreRunStats {
    uint64_t posted = 0;    // quanta handed to the pool
    uint64_t preruns = 0;   // speculative quanta executed
    uint64_t commits = 0;   // ... kept at their walk slot
    uint64_t yields = 0;    // refused (foreign access, code store)
    uint64_t taken_back = 0; // settled before any thread started it
    uint64_t discards = 0;  // undone: killed, foreign access, stale,
                            // AEX plan, pool swap, accessor, teardown
    uint64_t stale = 0;     // ... of which: code moved since the post
};

/** Upper bound of Kernel::set_cores. */
constexpr int kMaxCores = 64;

/**
 * Parse a core count such as the OCCLUM_CORES value: a decimal
 * integer in [1, kMaxCores] with nothing around it. Anything else is
 * an error naming the text, never a silent default or clamp.
 */
Result<int> parse_core_count(const std::string &text);

/** The shared kernel. Subclass per OS personality. */
class Kernel
{
  public:
    Kernel(SimClock &clock, host::HostFileStore &binaries,
           host::NetSim *net = nullptr)
        : clock_(&clock), binaries_(&binaries), net_(net),
          // Register the kernel's metrics once; the registry keeps
          // the addresses stable for the lifetime of the process.
          ctr_syscalls_(
              &trace::Registry::instance().counter("kernel.syscalls")),
          ctr_spawns_(
              &trace::Registry::instance().counter("kernel.spawns")),
          ctr_faults_(
              &trace::Registry::instance().counter("kernel.faults")),
          hist_syscall_cycles_(&trace::Registry::instance().histogram(
              "kernel.syscall_cycles")),
          ctr_wakeups_(
              &trace::Registry::instance().counter("kernel.wakeups")),
          ctr_wasted_retries_(&trace::Registry::instance().counter(
              "kernel.wasted_retries")),
          ctr_deferred_retries_(&trace::Registry::instance().counter(
              "kernel.deferred_retries")),
          ctr_poll_calls_(&trace::Registry::instance().counter(
              "kernel.poll_calls")),
          ctr_sched_visits_(&trace::Registry::instance().counter(
              "kernel.sched_visits")),
          ctr_epoll_waits_(&trace::Registry::instance().counter(
              "kernel.epoll_waits"))
    {
        install_net_events();
    }
    virtual ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // ---- public control --------------------------------------------
    /**
     * Start a new process running `path` with `argv` (argv[0] is the
     * program name by convention). stdio_fds, when given, maps the
     * child's fds 0..2 from the *parent_pid* process's descriptors;
     * parent_pid < 0 takes stdio from the console.
     */
    Result<int> spawn(const std::string &path,
                      const std::vector<std::string> &argv,
                      int parent_pid = -1,
                      const std::array<int64_t, 3> *stdio_fds = nullptr);

    /**
     * Run one scheduler round over all processes (DESIGN.md §3.4).
     * Returns true if any process made progress (executed instructions or completed a
     * syscall). When false, callers may advance the clock to
     * next_wake_time() or conclude the system is idle.
     */
    bool step_round();

    /**
     * Run until every process is dead, advancing the clock over
     * blocking waits. Panics on deadlock (all blocked forever) after
     * diagnosing, unless `allow_idle` is set, in which case it
     * returns with processes still blocked (e.g. a server waiting
     * for outside traffic).
     */
    void run(bool allow_idle = false);

    bool all_exited() const;
    /** Earliest known wake time over all blocked processes (~0=none). */
    uint64_t next_wake_time() const;

    /**
     * Configure the number of simulated cores, 1..kMaxCores. Must be
     * called before the first spawn (home cores are assigned at
     * spawn). Each core owns a run queue; cores == 1 (the default) is
     * the degenerate case of one queue and nothing to steal.
     */
    void set_cores(int cores);
    int cores() const { return num_cores_; }
    /** Core whose share of the current round is executing. */
    int current_core() const { return current_core_; }

    /** Pids in death order — the determinism tests' fingerprint. */
    const std::vector<int> &death_order() const { return death_order_; }

    /** Armed timed waits (one per process with a wake_time). */
    size_t timer_entries() const { return timers_.size(); }

    /** The kernel's staging buffer of at least `len` bytes: poll()'s
     *  records, and a read/write on a file that takes one contiguous
     *  buffer (FileObject::read_user). */
    uint8_t *
    staging(uint64_t len)
    {
        if (io_scratch_.size() < len) {
            io_scratch_.resize(len);
        }
        return io_scratch_.data();
    }

    Result<int64_t> exit_code(int pid) const;
    /** Full post-mortem info (cause, fault kind) for a dead pid. */
    Result<DeathRecord> death_record(int pid) const;
    /** The process record of `pid` (nullptr if none), its pre-run
     *  settled and undone first: the caller may read its Cpu. */
    const Process *find_process(int pid);

    SimClock &clock() { return *clock_; }
    const std::string &console() const { return console_; }
    void clear_console() { console_.clear(); }
    const KernelStats &stats() const { return stats_; }
    host::NetSim *net() { return net_; }
    host::HostFileStore &binaries() { return *binaries_; }

    /** Instructions per scheduling quantum. */
    void
    set_quantum(uint64_t quantum)
    {
        drop_preruns(); // posted with the old budget
        quantum_ = quantum;
    }

    /**
     * Host threads for pre-running quanta (QuantumPool::shared() by
     * default; nullptr runs every quantum inline at its slot). Results
     * are the same for every pool; tests pin that. The old pool's
     * outstanding pre-runs are settled and undone first.
     */
    void
    set_quantum_pool(QuantumPool *pool)
    {
        drop_preruns();
        pool_ = pool;
    }
    const PreRunStats &prerun_stats() const { return prerun_stats_; }

    // ---- wakeups ---------------------------------------------------
    /**
     * Notify a wait queue that the condition it guards may now (or at
     * `when`, if in the future) hold. Waiters whose condition is due
     * are marked wake-pending and rejoin the scheduling walk at their
     * pid position; future events arm their timers instead, leaving
     * the waiters queued so earlier events can still reach them.
     */
    void wake_queue(WaitQueue &queue, uint64_t when);

  private:
    /** Route a queue notification to its epoll watches (wake_queue). */
    void notify_watches(WaitQueue &queue, uint64_t when);

  public:

    // ---- personality hooks --------------------------------------------
  protected:
    /** Create the process record: memory, CPU, loaded image, PCB. */
    virtual Result<std::unique_ptr<Process>>
    create_process(const std::string &path,
                   const std::vector<std::string> &argv) = 0;

    /** Tear down personality resources (e.g. free the domain slot). */
    virtual void destroy_process(Process &proc) = 0;

    /** Cycles charged on every syscall entry/exit round trip. */
    virtual uint64_t syscall_cost() const = 0;

    /** Open a path on the personality's file system. */
    virtual Result<FilePtr> fs_open(Process &proc, const std::string &path,
                                    uint64_t flags) = 0;
    virtual Status fs_unlink(const std::string &path) = 0;
    virtual Status fs_mkdir(const std::string &path) = 0;

  public:
    /** Per-byte cycles for moving pipe data (EIP adds crypto). */
    virtual double pipe_byte_cost() const
    {
        return CostModel::kPipeCopyCyclesPerByte;
    }

    /** Extra cycles per pipe operation (EIP: an amortized switch). */
    virtual uint64_t pipe_op_cost() const { return 0; }

    /**
     * The OCALL gate: the one way kernel and LibOS code reaches the
     * untrusted host (device I/O, network). Enclave personalities
     * take the EEXIT + EENTER pair through the SGX model; the base
     * kernel runs on the host already, so the default does nothing.
     */
    virtual void ocall() {}

  protected:

    /**
     * Validate the syscall return target popped off the user stack.
     * The Occlum LibOS enforces that it is a cfi_label of the calling
     * SIP (paper §6); others accept anything.
     */
    virtual Status
    validate_syscall_return(Process &proc, uint64_t target)
    {
        (void)proc;
        (void)target;
        return Status();
    }

    /** Zero-fill cost for anonymous mmap (Occlum does it manually). */
    virtual uint64_t mmap_zero_cost(uint64_t len) const
    {
        (void)len;
        return 0;
    }

    /**
     * Check a user buffer is legal for the calling process. Occlum
     * confines it to the SIP's own data region — a malicious SIP must
     * not use the LibOS as a deputy to read other SIPs' memory. The
     * base refuses only a range that wraps: whether it is mapped is
     * the probe of the copy or resolve that follows.
     */
    virtual Status validate_user_range(Process &proc, uint64_t addr,
                                       uint64_t len);

    /**
     * Fault-injection hook (src/faultsim, aex_every): an asynchronous
     * enclave exit at the current instruction boundary. Personalities
     * that model enclaves save/restore the SSA and charge the
     * AEX+ERESUME transitions; the base kernel has no enclave, so the
     * default is a no-op.
     */
    virtual void on_injected_aex(Process &proc) { (void)proc; }

    // ---- helpers available to personalities -----------------------------
  public:
    void charge(uint64_t cycles) { clock_->advance(cycles); }

    /**
     * Resolve a syscall buffer once into io_pages_: validate_user_range
     * plus AddressSpace::resolve_raw. False means EFAULT, and nothing
     * was touched.
     */
    bool resolve_user(Process &proc, uint64_t addr, uint64_t len);

    /** Copy data out of / into a process's memory (EFAULT checked). */
    Status copy_from_user(Process &proc, uint64_t addr, void *out,
                          uint64_t len);
    Status copy_to_user(Process &proc, uint64_t addr, const void *in,
                        uint64_t len);
    /** Read a NUL-terminated or length-prefixed string. */
    Result<std::string> read_user_string(Process &proc, uint64_t addr,
                                         uint64_t len);
    Result<std::string> read_user_cstring(Process &proc, uint64_t addr,
                                          uint64_t max_len = 4096);

    /** Kill a process (fault/violation path). */
    void kill_process(Process &proc, DeathCause cause, int64_t code);

  protected:
    /** Handle one ltrap syscall; true if it completed (not blocked). */
    bool handle_syscall(Process &proc);

    /**
     * Block the calling process on `queues` until an explicit wakeup,
     * with an optional timed wake at `wake` (cycles, ~0 = none). The
     * return value is the std::nullopt a dispatch case returns.
     */
    std::optional<int64_t>
    block_on(Process &proc, uint64_t wake,
             std::span<WaitQueue *const> queues);

    /** block_on() for the common case of a single queue. */
    std::optional<int64_t>
    block_on(Process &proc, uint64_t wake, WaitQueue &queue)
    {
        WaitQueue *one = &queue;
        return block_on(proc, wake, std::span<WaitQueue *const>(&one, 1));
    }

    /** Detach a process from every wait queue it joined. */
    void detach_waits(Process &proc);

    /** Schedule one retry dispatch for a blocked process. */
    void mark_wake_pending(Process &proc);

    /** Arm the process's timer for `when`, unless an earlier one is. */
    void arm_timer(Process &proc, uint64_t when);

    /** Disarm the process's timer (if any) and reset its wake_time. */
    void cancel_timer(Process &proc);

    /** Pop every due timer, waking the processes they refer to. The
     *  walk calls this after every visit, and nearly always none is. */
    void
    fire_due_timers()
    {
        if (!timers_.empty() && timers_.back().first <= clock_->cycles()) {
            fire_timers();
        }
    }
    void fire_timers();

    /** One ascending walk of `core`'s home queue (pids <= cap):
     *  retries and quanta in pid order. Returns the quanta run. */
    int walk_core(int core, int cap);
    /** The pid `core` steals next after running `ran` quanta this
     *  round; nullptr when none is worth it. */
    Process *pick_steal(int core, int cap, int ran);
    /** One quantum + exit handling for a runnable process. */
    void run_one_quantum(Process &proc);

    /**
     * Round start: decide whether this round posts (the trigger: at
     * least two quanta ended on their budget in each of the last two
     * rounds, a pool exists and no AEX plan is armed) and post what
     * waited for this round (see next_posts_). While a round posts,
     * each quantum that ends on its budget posts its process's next
     * one at once (budget_exit), to run speculatively while the walk
     * finishes this round and starts the next, and be settled at its
     * walk slot. A lone CPU-bound quantum gains nothing, and a lone
     * round of them (a server's start-up) is not worth the first
     * batch's threads.
     */
    void start_preruns();
    /** `proc`'s quantum ended on its budget: post or queue its next. */
    void budget_exit(Process &proc);
    /** Fill in `proc`'s task and add it to the next post (to_post_). */
    void post_prerun(Process &proc);
    /** Unpost `proc`'s pre-run, settle it and count it. */
    void settle_prerun(Process &proc);
    /**
     * `proc`'s quantum at its walk slot: the pre-run's, or an inline
     * one if the pre-run was taken back, refused, or posted under a
     * code generation of its Cpu that an earlier slot has since moved.
     */
    vm::CpuExit take_prerun(Process &proc);
    /** Undo `proc`'s outstanding pre-run, if any. */
    void drop_prerun(Process &proc);
    /**
     * Undo every outstanding pre-run. A personality whose memory or
     * Cpus outlive its process records only in its own members (an
     * enclave) calls this first thing in its destructor: a pool thread
     * may still be running a pre-run there.
     */
    void drop_preruns();

    /** Point the NetSim's event observers at this kernel. */
    void install_net_events();

    /**
     * Run one scheduling quantum of user code. When an AEX storm is
     * armed the quantum is sliced at injected-AEX boundaries (the
     * interpreter charges per instruction, so slicing itself is
     * invisible — only on_injected_aex() adds cost); when idle this
     * is exactly cpu->run(quantum_).
     */
    vm::CpuExit run_user_quantum(Process &proc);

    /** Dispatch by number; nullopt = would block (retry later). */
    std::optional<int64_t> dispatch(Process &proc, uint64_t num,
                                    const uint64_t args[abi::kSyscallArgs]);

    /** The process whose syscall is being dispatched, else null. */
    Process *syscall_process() const { return syscall_proc_; }

    /** The record of `pid` (dead ones too), or null if none. */
    Process *
    process(int pid) const
    {
        return pid > 0 && static_cast<size_t>(pid) < procs_.size()
                   ? procs_[static_cast<size_t>(pid)].get()
                   : nullptr;
    }

    SimClock *clock_;
    host::HostFileStore *binaries_;
    host::NetSim *net_;
    /** Every process ever spawned, indexed by pid (slot 0 unused). */
    std::vector<std::unique_ptr<Process>> procs_;
    std::map<int, DeathRecord> reaped_;
    int next_pid_ = 1;
    uint64_t quantum_ = 20000;
    /** Instructions until the next injected AEX, per core (storms). */
    std::vector<uint64_t> aex_countdown_ = {0};
    std::string console_;
    KernelStats stats_;
    /** Registry-backed metrics (registered in the constructor). */
    trace::Counter *ctr_syscalls_;
    trace::Counter *ctr_spawns_;
    trace::Counter *ctr_faults_;
    trace::Histogram *hist_syscall_cycles_;
    trace::Counter *ctr_wakeups_;
    trace::Counter *ctr_wasted_retries_;
    /** Wake-pending retries pushed to the next round because the SIP
     *  already ran a stolen quantum this round. */
    trace::Counter *ctr_deferred_retries_;
    trace::Counter *ctr_poll_calls_;
    trace::Counter *ctr_sched_visits_;
    trace::Counter *ctr_epoll_waits_;
    /** Processes whose blocked syscall should be retried. */
    bool any_progress_ = false;
    /** staging()'s buffer: poll()'s records and the bytes of files
     *  that take one contiguous buffer; grows to the largest such I/O. */
    Bytes io_scratch_;
    /** The pages of the syscall buffer being dispatched (resolve_raw). */
    std::vector<vm::Page *> io_pages_;
    /** wake_queue's list of the waiters it is waking. */
    std::vector<Process *> woken_;

    /**
     * Per-core scheduling walks: runnable pids plus wake-pending
     * blocked pids, visited in ascending order, one set per core.
     * Membership is always by home core; blocked processes leave the
     * set, so idle connections cost zero dispatches per round.
     */
    std::vector<PidSet> run_queues_{1};

    /** The home-core queue a pid is (or would be) enqueued on. */
    PidSet &home_queue(const Process &proc)
    {
        return run_queues_[proc.home_core];
    }

    int num_cores_ = 1;
    int current_core_ = 0;
    /** Set by handle_syscall for the duration of one dispatch. */
    Process *syscall_proc_ = nullptr;
    /** Monotonic round counter stamping Process::ran_round. */
    uint64_t round_seq_ = 0;
    /** Per-core metrics, registered by set_cores when cores > 1. */
    struct CoreCounters {
        trace::Counter *quanta = nullptr;
        trace::Counter *steals = nullptr;
        trace::Counter *wakeups = nullptr;
    };
    std::vector<CoreCounters> core_ctrs_;

    /** Pids in the order they died (determinism fingerprint). */
    std::vector<int> death_order_;

    QuantumPool *pool_ = QuantumPool::shared();
    /** Processes whose pre-run is posted and not yet settled. */
    std::vector<Process *> preruns_;
    /** Scratch list of tasks handed to QuantumPool::post(). */
    std::vector<QuantumPool::Task *> to_post_;
    /** The trigger, as start_preruns found it at this round's start. */
    bool posting_ = false;
    /**
     * Processes start_preruns considers at the next round's start. In
     * a round that does not post: those whose quantum ended on its
     * budget, posted if the trigger then holds. In one that does: the
     * ones spawned, whose first quantum is next round's (every budget
     * exit posted at once), posted unless no pool or an AEX plan.
     */
    std::vector<Process *> next_posts_;
    /** Quanta that ended on their budget this round, the round before. */
    size_t budget_exits_ = 0;
    size_t prev_budget_exits_ = 0;
    PreRunStats prerun_stats_;

    /**
     * Timed waits, sorted by (wake_time, pid) descending, so the next
     * to fire is at the back: exactly one entry per process whose
     * wake_time is armed. Every path that resets wake_time (wakeup,
     * completion, death, an earlier re-arm) erases the entry through
     * cancel_timer, so due timers fire in (when, pid) order and nothing
     * stale is ever left behind. A few processes wait at a time, so a
     * sorted array beats a tree and arming never allocates.
     */
    std::vector<std::pair<uint64_t, int>> timers_;

    /** waitpid(pid) wait queues, keyed by the awaited pid. */
    std::map<int, WaitQueue> pid_waiters_;

    /** Live sockets by (connection, at_server), for NetSim events: the
     *  slot 2 * Connection::slot + at_server, null when none. NetSim
     *  recycles connection slots, so this follows the peak number of
     *  live connections, not every connection ever opened. */
    std::vector<FileObject *> socket_registry_;
    FileObject *socket_at(const host::NetSim::Connection *conn,
                          bool at_server) const;
    /** Live listeners by port, for NetSim connect events. */
    std::map<uint16_t, FileObject *> listener_registry_;

  public:
    /** Registry maintenance, called from file-object close paths. */
    void register_socket(host::NetSim::Connection *conn, bool at_server,
                         FileObject *file);
    void socket_closed(host::NetSim::Connection *conn, bool at_server);
    void listener_closed(uint16_t port);
    /** Entries the socket registry holds (two per connection slot). */
    size_t socket_registry_size() const { return socket_registry_.size(); }
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_KERNEL_H
