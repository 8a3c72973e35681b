#include "oskit/kernel.h"

#include <algorithm>
#include <charconv>

#include "base/log.h"
#include "oskit/epoll.h"
#include "faultsim/faultsim.h"
#include "trace/trace.h"

namespace occlum::oskit {

using abi::Sys;

namespace {

int64_t
neg_errno(ErrorCode code)
{
    return -static_cast<int64_t>(code);
}

/**
 * Absolute deadline, in cycles, of a poll/epoll_wait timeout of
 * `timeout_ns` >= 0 starting at `now`. A deadline that does not fit
 * in 64 bits saturates to ~0 (wait forever) instead of hitting an
 * out-of-range float->integer conversion or wrapping round to a past
 * cycle, which would time out at once.
 */
uint64_t
timeout_deadline(uint64_t now, int64_t timeout_ns)
{
    double cycles = static_cast<double>(timeout_ns) *
                    (SimClock::kFrequencyHz / 1e9);
    uint64_t deadline = 0;
    if (cycles >= 0x1p64 ||
        __builtin_add_overflow(now, static_cast<uint64_t>(cycles),
                               &deadline)) {
        return ~0ull;
    }
    return deadline;
}

/**
 * A descriptor leaving the fd table must also leave the epoll world:
 * a non-epoll fd is auto-removed from every interest list (Linux
 * semantics — a dead descriptor must not keep producing events), and
 * dropping the last descriptor of an epoll object removes it from
 * the process's epoll roster (a stale roster entry dangles once the
 * shared_ptr destroys the object). Shared by kClose and kDup2 —
 * dup2's implicit close used to skip both steps, so a watched fd
 * replaced by dup2 kept reporting events for the old file, and
 * dup2 over the last fd of an epoll left a freed pointer behind.
 */
void
epoll_fd_dropped(Process &proc, int fd, const FilePtr &file)
{
    if (file->kind() == FileKind::kEpoll) {
        auto *ep = static_cast<EpollObject *>(file.get());
        bool still_open = false;
        proc.fds.for_each([&](int, const FilePtr &f) {
            still_open = still_open || f.get() == ep;
        });
        if (!still_open) {
            auto &eps = proc.epolls;
            eps.erase(std::remove(eps.begin(), eps.end(), ep),
                      eps.end());
        }
    } else {
        for (EpollObject *ep : proc.epolls) {
            ep->forget_fd(fd);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// user-memory helpers
// ---------------------------------------------------------------------

Status
Kernel::validate_user_range(Process &proc, uint64_t addr, uint64_t len)
{
    // Any address the process maps is its own; whether the range is
    // mapped is the probe of the copy that follows.
    (void)proc;
    if (len != 0 && addr + len < addr) {
        return Status(ErrorCode::kFault, "bad user pointer");
    }
    return Status();
}

bool
Kernel::resolve_user(Process &proc, uint64_t addr, uint64_t len)
{
    return validate_user_range(proc, addr, len).ok() &&
           proc.space->resolve_raw(addr, len, io_pages_);
}

Status
Kernel::copy_from_user(Process &proc, uint64_t addr, void *out,
                       uint64_t len)
{
    if (len == 0) {
        return Status();
    }
    OCC_RETURN_IF_ERROR(validate_user_range(proc, addr, len));
    // All-or-nothing: probe the whole range before touching a byte.
    // A personality's validate override may only check region bounds
    // (Occlum checks [d_begin, d_end)), and the raw accessors fault
    // mid-copy at the first unmapped page — which for copies *out*
    // would leave a half-filled kernel buffer treated as valid.
    if (addr + len < addr || !proc.space->is_mapped(addr, len)) {
        return Status(ErrorCode::kFault, "copy_from_user: unmapped");
    }
    if (proc.space->read_raw(addr, out, len) != vm::AccessFault::kNone) {
        return Status(ErrorCode::kFault, "copy_from_user fault");
    }
    return Status();
}

Status
Kernel::copy_to_user(Process &proc, uint64_t addr, const void *in,
                     uint64_t len)
{
    if (len == 0) {
        return Status();
    }
    OCC_RETURN_IF_ERROR(validate_user_range(proc, addr, len));
    // All-or-nothing: a multi-page write_raw modifies every page up
    // to the first unmapped one before faulting, so without this
    // probe a syscall that returns EFAULT would still have partially
    // scribbled over user memory (observable page-boundary partial
    // copies — found by the faultsim crash-monkey).
    if (addr + len < addr || !proc.space->is_mapped(addr, len)) {
        return Status(ErrorCode::kFault, "copy_to_user: unmapped");
    }
    if (proc.space->write_raw(addr, in, len) != vm::AccessFault::kNone) {
        return Status(ErrorCode::kFault, "copy_to_user fault");
    }
    return Status();
}

Result<std::string>
Kernel::read_user_string(Process &proc, uint64_t addr, uint64_t len)
{
    if (len > 65536) {
        return Error(ErrorCode::kNameTooLong, "string too long");
    }
    std::string out(len, '\0');
    OCC_RETURN_IF_ERROR(copy_from_user(proc, addr, out.data(), len));
    return out;
}

Result<std::string>
Kernel::read_user_cstring(Process &proc, uint64_t addr, uint64_t max_len)
{
    // Clamp: a hostile max_len must not become an unbounded kernel
    // loop or allocation (same ceiling as read_user_string; the old
    // code trusted the caller's bound unchecked).
    max_len = std::min<uint64_t>(max_len, 65536);
    std::string out;
    char buf[256];
    uint64_t pos = addr;
    while (out.size() < max_len) {
        // Chunked, never crossing a page boundary in one probe.
        uint64_t chunk = std::min<uint64_t>(
            std::min<uint64_t>(max_len - out.size(), sizeof(buf)),
            vm::kPageSize - (pos & vm::kPageMask));
        if (copy_from_user(proc, pos, buf, chunk).ok()) {
            for (uint64_t i = 0; i < chunk; ++i) {
                if (buf[i] == '\0') {
                    out.append(buf, i);
                    return out;
                }
            }
            out.append(buf, chunk);
            pos += chunk;
            continue;
        }
        // The full chunk is not accessible (region edge, unmapped
        // tail): fall back to byte-at-a-time, which preserves the
        // semantics that bytes past the terminator need not exist.
        for (uint64_t i = 0; i < chunk && out.size() < max_len; ++i) {
            char c = 0;
            OCC_RETURN_IF_ERROR(copy_from_user(proc, pos + i, &c, 1));
            if (c == '\0') {
                return out;
            }
            out.push_back(c);
        }
        pos += chunk;
    }
    return Error(ErrorCode::kNameTooLong, "unterminated string");
}

// ---------------------------------------------------------------------
// process lifecycle
// ---------------------------------------------------------------------

Result<int>
Kernel::spawn(const std::string &path, const std::vector<std::string> &argv,
              int parent_pid, const std::array<int64_t, 3> *stdio_fds)
{
    auto created = create_process(path, argv);
    if (!created.ok()) {
        return created.error();
    }
    std::unique_ptr<Process> proc = created.take();
    proc->pid = next_pid_++;
    proc->argv = argv;

    // stdio: inherit from the parent per the fd map, else console.
    Process *parent = nullptr;
    if (parent_pid >= 0) {
        parent = process(parent_pid);
    }
    auto console = std::make_shared<Console>(&console_);
    for (int i = 0; i < 3; ++i) {
        FilePtr file;
        int64_t mapped = stdio_fds ? (*stdio_fds)[i] : -1;
        if (parent && mapped >= 0) {
            file = parent->fds.ref(static_cast<int>(mapped));
            if (!file) {
                return Error(ErrorCode::kBadF, "spawn: bad stdio fd");
            }
        } else if (parent && parent->fds.contains(i)) {
            file = parent->fds.ref(i);
        } else {
            file = console;
        }
        file->on_fd_acquire();
        proc->fds.set(i, std::move(file));
    }

    int pid = proc->pid;
    // Fixed home-core rule: pid % cores, for the process's lifetime.
    proc->home_core = pid % num_cores_;
    // Expose the pid through the PCB if the personality mapped one.
    if (proc->d_begin != 0) {
        uint64_t pid64 = static_cast<uint64_t>(pid);
        proc->space->write_raw(proc->d_begin + abi::kPcbPid, &pid64, 8);
    }
    // An inline quantum reaching into another SIP's memory (only an
    // unsigned binary can) must see it as of its own walk slot.
    proc->space->set_foreign_access_hook([this] { drop_preruns(); });
    run_queues_[proc->home_core].insert(pid);
    if (posting_) {
        next_posts_.push_back(proc.get()); // first runs next round
    }
    procs_.resize(static_cast<size_t>(pid) + 1);
    procs_[static_cast<size_t>(pid)] = std::move(proc);
    ++stats_.spawns;
    ctr_spawns_->add();
    OCC_TRACE_INSTANT(kSched, "proc.spawn",
                      static_cast<uint64_t>(pid));
    any_progress_ = true;
    return pid;
}

void
Kernel::kill_process(Process &proc, DeathCause cause, int64_t code)
{
    if (proc.state == ProcState::kDead) {
        return;
    }
    // A killed sibling's pre-run never happened.
    drop_prerun(proc);
    proc.state = ProcState::kDead;
    proc.death = cause;
    proc.exit_code = code;
    detach_waits(proc);
    cancel_timer(proc);
    proc.wake_pending = false;
    home_queue(proc).erase(proc.pid);
    // Release fds so pipe peers see EOF / EPIPE (the release hooks
    // wake any peers blocked on the other end).
    proc.fds.for_each(
        [this](int, const FilePtr &file) { file->on_fd_release(*this); });
    proc.fds.clear();
    proc.epolls.clear();
    proc.fd_scan_hint = 0;
    // Wake waitpid() callers parked on this pid.
    auto wit = pid_waiters_.find(proc.pid);
    if (wit != pid_waiters_.end()) {
        wake_queue(wit->second, clock_->cycles());
        pid_waiters_.erase(wit);
    }

    DeathRecord record;
    record.cause = cause;
    record.code = code;
    record.fault = proc.last_fault;
    record.fault_addr = proc.last_fault_addr;
    reaped_[proc.pid] = record;
    if (cause == DeathCause::kFault || cause == DeathCause::kPrivileged) {
        ++stats_.faults;
        ctr_faults_->add();
    }
    OCC_TRACE_INSTANT(kSched, "proc.death",
                      static_cast<uint64_t>(proc.pid));
    death_order_.push_back(proc.pid);
    destroy_process(proc);
    proc.cpu->release_caches();
    any_progress_ = true;
}

Result<int64_t>
Kernel::exit_code(int pid) const
{
    auto it = reaped_.find(pid);
    if (it == reaped_.end()) {
        return Error(ErrorCode::kSrch, "pid not dead/known");
    }
    return it->second.code;
}

Result<DeathRecord>
Kernel::death_record(int pid) const
{
    auto it = reaped_.find(pid);
    if (it == reaped_.end()) {
        return Error(ErrorCode::kSrch, "pid not dead/known");
    }
    return it->second;
}

const Process *
Kernel::find_process(int pid)
{
    Process *proc = process(pid);
    if (!proc || proc->state == ProcState::kDead) {
        return nullptr;
    }
    drop_prerun(*proc);
    return proc;
}

bool
Kernel::all_exited() const
{
    for (const auto &proc : procs_) {
        if (proc && proc->state != ProcState::kDead) {
            return false;
        }
    }
    return true;
}

uint64_t
Kernel::next_wake_time() const
{
    return timers_.empty() ? ~0ull : timers_.back().first;
}

// ---------------------------------------------------------------------
// wait queues and wakeups
// ---------------------------------------------------------------------

Kernel::~Kernel()
{
    // Personalities whose processes own their memory and Cpus (Linux)
    // get here with it intact; the others settled already.
    drop_preruns();
    // Detach every process from every wait queue while both sides are
    // still alive; plain member destruction would otherwise have
    // queue destructors chasing back-pointers into freed processes.
    for (auto &proc : procs_) {
        if (proc) {
            detach_waits(*proc);
        }
    }
    if (net_) {
        net_->set_events({});
    }
}

void
Kernel::install_net_events()
{
    if (!net_) {
        return;
    }
    host::NetSim::Events events;
    events.on_data = [this](host::NetSim::Connection *conn,
                            bool to_server, uint64_t when) {
        if (FileObject *sock = socket_at(conn, to_server)) {
            wake_queue(sock->read_waiters(), when);
        }
    };
    events.on_connect = [this](uint16_t port, uint64_t when) {
        auto it = listener_registry_.find(port);
        if (it != listener_registry_.end()) {
            wake_queue(it->second->read_waiters(), when);
        }
    };
    events.on_close = [this](host::NetSim::Connection *conn,
                             bool closed_by_server) {
        // The side still open sees EOF (and EPIPE on write) now.
        if (FileObject *sock = socket_at(conn, !closed_by_server)) {
            uint64_t now = clock_->cycles();
            wake_queue(sock->read_waiters(), now);
            wake_queue(sock->write_waiters(), now);
        }
    };
    net_->set_events(std::move(events));
}

namespace {

/** A socket's slot in Kernel::socket_registry_. */
size_t
socket_slot(const host::NetSim::Connection *conn, bool at_server)
{
    return 2 * static_cast<size_t>(conn->slot) + at_server;
}

} // namespace

FileObject *
Kernel::socket_at(const host::NetSim::Connection *conn, bool at_server) const
{
    const size_t slot = socket_slot(conn, at_server);
    return slot < socket_registry_.size() ? socket_registry_[slot] : nullptr;
}

void
Kernel::register_socket(host::NetSim::Connection *conn, bool at_server,
                        FileObject *file)
{
    const size_t slot = socket_slot(conn, at_server);
    if (slot >= socket_registry_.size()) {
        socket_registry_.resize(slot + 1);
    }
    socket_registry_[slot] = file;
}

void
Kernel::socket_closed(host::NetSim::Connection *conn, bool at_server)
{
    const size_t slot = socket_slot(conn, at_server);
    if (slot < socket_registry_.size()) {
        socket_registry_[slot] = nullptr;
    }
}

void
Kernel::listener_closed(uint16_t port)
{
    listener_registry_.erase(port);
    net_->unlisten(port);
}

void
Kernel::detach_waits(Process &proc)
{
    for (WaitQueue *queue : proc.waiting_on) {
        queue->remove(&proc);
    }
    proc.waiting_on.clear();
}

void
Kernel::mark_wake_pending(Process &proc)
{
    if (proc.state != ProcState::kBlocked || proc.wake_pending) {
        return;
    }
    detach_waits(proc);
    proc.wake_pending = true;
    cancel_timer(proc);
    // The woken pid lands on its home core's queue — wakeups cross
    // cores with no routing decision because membership is by home.
    home_queue(proc).insert(proc.pid);
    ctr_wakeups_->add();
    if (num_cores_ > 1) {
        core_ctrs_[proc.home_core].wakeups->add();
    }
    OCC_TRACE_INSTANT(kSched, "sched.wake",
                      static_cast<uint64_t>(proc.pid));
}

void
Kernel::arm_timer(Process &proc, uint64_t when)
{
    if (when >= proc.wake_time) {
        return; // no timer, or an earlier one is already armed
    }
    cancel_timer(proc);
    proc.wake_time = when;
    const std::pair<uint64_t, int> key(when, proc.pid);
    timers_.insert(std::lower_bound(timers_.begin(), timers_.end(), key,
                                    std::greater<>()),
                   key);
}

void
Kernel::cancel_timer(Process &proc)
{
    if (proc.wake_time != ~0ull) {
        const std::pair<uint64_t, int> key(proc.wake_time, proc.pid);
        auto it = std::lower_bound(timers_.begin(), timers_.end(), key,
                                   std::greater<>());
        if (it != timers_.end() && *it == key) {
            timers_.erase(it);
        }
        proc.wake_time = ~0ull;
    }
}

void
Kernel::notify_watches(WaitQueue &queue, uint64_t when)
{
    // By index, re-reading the list each step: on_source_event
    // recursively wake_queue()s the epoll's own read waiters and,
    // through their watches, parent epolls. None of that adds or
    // removes a watch (only epoll_ctl, close and teardown do), but a
    // pointer into the list would not survive it if it did.
    const std::vector<EpollWatch *> &watches = queue.watches();
    for (size_t i = 0; i < watches.size(); ++i) {
        EpollWatch *watch = watches[i];
        watch->epoll->on_source_event(*this, watch->fd, when);
    }
}

void
Kernel::wake_queue(WaitQueue &queue, uint64_t when)
{
    // Epoll subscriptions ride every notification a queue would
    // deliver to waiters: the event moves the fd onto the watching
    // epoll's ready list whether or not anyone is blocked right now.
    if (!queue.watches().empty()) {
        notify_watches(queue, when);
    }
    if (queue.empty()) {
        return;
    }
    if (when <= clock_->cycles()) {
        // mark_wake_pending never wakes a queue, so woken_ is not in
        // use by an outer call here.
        queue.take(woken_);
        for (Process *proc : woken_) {
            mark_wake_pending(*proc);
        }
        woken_.clear();
        return;
    }
    // Future event (in-flight network data): arm timers but leave the
    // waiters queued, so an earlier event can still wake them.
    for (Process *proc : queue.peek()) {
        arm_timer(*proc, when);
    }
}

void
Kernel::fire_timers()
{
    uint64_t now = clock_->cycles();
    while (!timers_.empty() && timers_.back().first <= now) {
        Process &proc = *process(timers_.back().second);
        cancel_timer(proc);
        mark_wake_pending(proc);
    }
}

std::optional<int64_t>
Kernel::block_on(Process &proc, uint64_t wake,
                 std::span<WaitQueue *const> queues)
{
    for (WaitQueue *queue : queues) {
        if (std::find(proc.waiting_on.begin(), proc.waiting_on.end(),
                      queue) == proc.waiting_on.end()) {
            queue->add(&proc);
            proc.waiting_on.push_back(queue);
        }
    }
    arm_timer(proc, wake);
    // Off the scheduling walk until an explicit wakeup: this is the
    // whole point — an idle connection costs zero dispatches.
    home_queue(proc).erase(proc.pid);
    return std::nullopt;
}

// ---------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------

void
PreRunTask::run()
{
    exit = cpu->speculate(quantum);
    yielded = cpu->speculation_aborted();
    if (yielded) {
        cpu->rollback_speculation();
    }
    speculated = !yielded;
}

void
Kernel::start_preruns()
{
    const bool armed = pool_ != nullptr &&
                       faultsim::FaultSim::instance().aex_period() == 0;
    // next_posts_ holds spawns if the last round posted, else budget
    // exits (see there).
    const bool spawns = posting_;
    posting_ = armed && budget_exits_ >= 2 && prev_budget_exits_ >= 2;
    prev_budget_exits_ = std::exchange(budget_exits_, 0);
    if (armed && (spawns || posting_)) {
        to_post_.clear();
        for (Process *proc : next_posts_) {
            // Killed since (a later slot of the last round).
            if (proc->state == ProcState::kRunnable &&
                !proc->prerun.posted) {
                post_prerun(*proc);
            }
        }
        pool_->post(to_post_);
    }
    next_posts_.clear();
}

void
Kernel::budget_exit(Process &proc)
{
    ++budget_exits_;
    if (!posting_) {
        next_posts_.push_back(&proc);
        return;
    }
    // The trigger held at the round's start; the pool may have been
    // swapped for none, or an AEX plan armed, since.
    if (pool_ == nullptr ||
        faultsim::FaultSim::instance().aex_period() != 0) {
        return;
    }
    to_post_.clear();
    post_prerun(proc);
    pool_->post(to_post_);
}

void
Kernel::post_prerun(Process &proc)
{
    PreRunTask &task = proc.prerun;
    task.posted = true;
    task.base_cycles = proc.cpu->cycles();
    task.base_instructions = proc.cpu->instructions();
    task.generation = proc.cpu->code_generation();
    task.cpu = proc.cpu;
    task.quantum = quantum_;
    preruns_.push_back(&proc);
    to_post_.push_back(&task);
    ++prerun_stats_.posted;
}

void
Kernel::settle_prerun(Process &proc)
{
    PreRunTask &task = proc.prerun;
    task.posted = false;
    preruns_.erase(std::find(preruns_.begin(), preruns_.end(), &proc));
    const bool ran = pool_->settle(task);
    prerun_stats_.preruns += ran;
    if (!ran) {
        ++prerun_stats_.taken_back;
    } else if (task.yielded) {
        ++prerun_stats_.yields;
    }
}

vm::CpuExit
Kernel::take_prerun(Process &proc)
{
    PreRunTask &task = proc.prerun;
    if (proc.cpu->code_generation() != task.generation) {
        // An earlier slot moved code this Cpu's blocks depend on: the
        // pre-run may have run the old bytes.
        ++prerun_stats_.stale;
        drop_prerun(proc);
        return proc.cpu->run(quantum_);
    }
    settle_prerun(proc);
    if (!task.speculated) {
        return proc.cpu->run(quantum_);
    }
    task.speculated = false;
    ++prerun_stats_.commits;
    proc.cpu->commit_speculation(task.exit);
    return task.exit;
}

void
Kernel::drop_prerun(Process &proc)
{
    PreRunTask &task = proc.prerun;
    if (!task.posted) {
        return;
    }
    settle_prerun(proc);
    if (task.speculated) {
        task.speculated = false;
        proc.cpu->rollback_speculation();
    }
    ++prerun_stats_.discards;
}

void
Kernel::drop_preruns()
{
    while (!preruns_.empty()) {
        drop_prerun(*preruns_.back());
    }
}

vm::CpuExit
Kernel::run_user_quantum(Process &proc)
{
    uint64_t period = faultsim::FaultSim::instance().aex_period();
    if (proc.prerun.posted) {
        if (period == 0) {
            return take_prerun(proc);
        }
        drop_prerun(proc); // an AEX plan armed since the post
    }
    if (period == 0) {
        // Idle path: must stay literally the pre-faultsim code so the
        // simulated cycle stream is bit-identical when no plan is set.
        return proc.cpu->run(quantum_);
    }
    // AEX storm armed: slice the quantum at injected-AEX boundaries.
    // The interpreter charges per instruction, so the slicing itself
    // is invisible in the cycle stream — only on_injected_aex() (SSA
    // save/restore + AEX/ERESUME transition costs) adds cycles. Each
    // core keeps its own countdown: an AEX interrupts one hardware
    // thread, not the whole package.
    uint64_t &countdown = aex_countdown_[current_core_];
    if (countdown == 0) {
        countdown = period;
    }
    uint64_t budget = quantum_;
    vm::CpuExit exit;
    for (;;) {
        uint64_t slice = std::min(budget, countdown);
        uint64_t before = proc.cpu->instructions();
        exit = proc.cpu->run(slice);
        uint64_t ran = proc.cpu->instructions() - before;
        budget -= std::min(budget, ran);
        countdown -= std::min(countdown, ran);
        if (countdown == 0) {
            on_injected_aex(proc);
            // Consume a pending aex_at one-shot (the ordinal has
            // passed even when on_injected_aex is a no-op, as in the
            // Linux baseline) and re-read the period: after the
            // one-shot the periodic storm (if any) takes over.
            faultsim::FaultSim::instance().mark_injected_aex();
            period = faultsim::FaultSim::instance().aex_period();
            if (proc.state == ProcState::kDead) {
                return exit;
            }
            if (period == 0) {
                // One-shot consumed, no storm behind it: finish the
                // quantum unsliced.
                if (exit.kind != vm::ExitKind::kInstrBudget ||
                    budget == 0) {
                    return exit;
                }
                return proc.cpu->run(budget);
            }
            countdown = period;
        }
        if (exit.kind != vm::ExitKind::kInstrBudget || budget == 0) {
            return exit;
        }
    }
}

void
Kernel::run_one_quantum(Process &proc)
{
    ctr_sched_visits_->add();
    if (num_cores_ > 1) {
        core_ctrs_[current_core_].quanta->add();
    }
    // Runnable: execute a quantum. The span covers the charge so
    // its duration equals the cycles the SIP's code consumed. (A
    // pre-run already advanced the CPU; its base is kept.)
    const bool pre = proc.prerun.posted;
    uint64_t before_cycles =
        pre ? proc.prerun.base_cycles : proc.cpu->cycles();
    uint64_t before_instrs =
        pre ? proc.prerun.base_instructions : proc.cpu->instructions();
    vm::CpuExit exit;
    {
        OCC_TRACE_SPAN(kVm, "cpu.quantum",
                       static_cast<uint64_t>(proc.pid));
        exit = run_user_quantum(proc);
        charge(proc.cpu->cycles() - before_cycles);
    }
    stats_.user_instructions +=
        proc.cpu->instructions() - before_instrs;
    if (proc.cpu->instructions() != before_instrs) {
        any_progress_ = true;
    }

    switch (exit.kind) {
      case vm::ExitKind::kInstrBudget:
        budget_exit(proc);
        break;
      case vm::ExitKind::kLtrap: {
        // Pop the return address pushed by the user's call into
        // the trampoline and validate it (paper §6).
        uint64_t ret = 0;
        uint64_t sp = proc.cpu->sp();
        if (proc.space->read_raw(sp, &ret, 8) !=
            vm::AccessFault::kNone) {
            proc.last_fault = vm::FaultKind::kPageFault;
            proc.last_fault_addr = sp;
            kill_process(proc, DeathCause::kFault, -1);
            break;
        }
        proc.cpu->set_sp(sp + 8);
        Status valid = validate_syscall_return(proc, ret);
        if (!valid.ok()) {
            proc.last_fault = vm::FaultKind::kBoundRange;
            proc.last_fault_addr = ret;
            kill_process(proc, DeathCause::kFault, -1);
            break;
        }
        proc.in_syscall = true;
        proc.sys_num = proc.cpu->reg(0);
        for (int i = 0; i < abi::kSyscallArgs; ++i) {
            proc.sys_args[i] = proc.cpu->reg(1 + i);
        }
        proc.sys_ret_addr = ret;
        proc.sys_deadline = ~0ull; // computed by timed syscalls
        ++stats_.syscalls;
        ctr_syscalls_->add();
        uint64_t sys_begin = clock_->cycles();
        {
            OCC_TRACE_SPAN(kLibos, abi::sys_name(proc.sys_num),
                           static_cast<uint64_t>(proc.pid));
            charge(syscall_cost());
            handle_syscall(proc);
        }
        // Cycles of the initial dispatch round (blocked retries
        // are traced but not re-recorded here).
        hist_syscall_cycles_->record(clock_->cycles() - sys_begin);
        break;
      }
      case vm::ExitKind::kPrivileged:
        proc.last_fault = vm::FaultKind::kInvalidInstr;
        proc.last_fault_addr = exit.rip;
        kill_process(proc, DeathCause::kPrivileged, -2);
        break;
      case vm::ExitKind::kFault:
        proc.last_fault = exit.fault;
        proc.last_fault_addr = exit.fault_addr;
        kill_process(proc, DeathCause::kFault, -1);
        break;
    }
}

Result<int>
parse_core_count(const std::string &text)
{
    int cores = 0;
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, cores);
    if (ec != std::errc() || stop != end || cores < 1 ||
        cores > kMaxCores) {
        return Error(ErrorCode::kInval,
                     "expected a core count in [1, " +
                         std::to_string(kMaxCores) + "], got '" + text +
                         "'");
    }
    return cores;
}

void
Kernel::set_cores(int cores)
{
    OCC_CHECK_MSG(cores >= 1 && cores <= kMaxCores,
                  "core count " << cores << " outside [1, " << kMaxCores
                                << "]");
    if (cores == num_cores_) {
        return;
    }
    // Home cores are fixed at spawn; changing the modulus after any
    // spawn would strand pids on queues that no longer exist (or
    // violate the home-core invariant), so the topology is only
    // configurable on an empty process table.
    OCC_CHECK_MSG(procs_.empty() && next_pid_ == 1,
                  "set_cores must run before the first spawn");
    num_cores_ = cores;
    run_queues_.assign(static_cast<size_t>(cores), {});
    aex_countdown_.assign(static_cast<size_t>(cores), 0);
    core_ctrs_.clear();
    if (cores > 1) {
        // Per-core metrics exist only in SMP mode, so a cores=1 run
        // registers exactly the counters it always has (benches that
        // dump the registry stay bit-identical).
        for (int c = 0; c < cores; ++c) {
            std::string prefix = "kernel.core" + std::to_string(c);
            CoreCounters ctrs;
            ctrs.quanta = &trace::Registry::instance().counter(
                prefix + ".quanta");
            ctrs.steals = &trace::Registry::instance().counter(
                prefix + ".steals");
            ctrs.wakeups = &trace::Registry::instance().counter(
                prefix + ".wakeups");
            core_ctrs_.push_back(ctrs);
        }
    }
}

bool
Kernel::step_round()
{
    OCC_TRACE_SPAN(kSched, "sched.round");
    any_progress_ = false;
    fire_due_timers();
    ++round_seq_;
    // Round barrier: every core walks its share of the round from the
    // same start time; the clock then advances to the slowest core's
    // end time. Cores therefore run in parallel in simulated time
    // while the host executes them sequentially in core order —
    // completion order is a pure function of (seed, plan, cores). At
    // cores == 1 the rewind and the barrier are no-ops and nothing can
    // be stolen: this is exactly the classic single-queue walk.
    // Processes spawned during the round first run next round (pids
    // are strictly monotonic, so every new pid is above the cap).
    const int cap = next_pid_ - 1;
    start_preruns();
    const uint64_t round_start = clock_->cycles();
    uint64_t round_end = round_start;
    for (int core = 0; core < num_cores_; ++core) {
        current_core_ = core;
        clock_->set_cycles(round_start);
        int ran = walk_core(core, cap);
        while (Process *proc = pick_steal(core, cap, ran)) {
            proc->ran_round = round_seq_;
            core_ctrs_[core].steals->add();
            OCC_TRACE_INSTANT(kSched, "sched.steal",
                              static_cast<uint64_t>(proc->pid));
            run_one_quantum(*proc);
            fire_due_timers();
            ++ran;
        }
        round_end = std::max(round_end, clock_->cycles());
    }
    // Pre-runs posted at budget exits above stay outstanding: they
    // are next round's quanta.
    current_core_ = 0;
    clock_->set_cycles(round_end);
    fire_due_timers();
    return any_progress_;
}

int
Kernel::walk_core(int core, int cap)
{
    // The walk visits runnable and wake-pending pids in ascending
    // order. A woken process is dispatched at exactly the walk slot
    // where the old retry-polling scheduler's retry would have
    // succeeded (failed retries charged zero cycles), so the
    // simulated cycle stream is unchanged.
    PidSet &queue = run_queues_[core];
    int ran = 0;
    int last = 0; // pids start at 1
    for (;;) {
        int pid = queue.next_after(last);
        if (pid < 0 || pid > cap) {
            break;
        }
        last = pid;
        Process *found = process(pid);
        if (!found || found->state == ProcState::kDead ||
            (found->state == ProcState::kBlocked && !found->wake_pending)) {
            // Dead, or a stale entry (the process blocked after
            // joining the walk); it leaves until an explicit wakeup.
            queue.erase(pid);
            continue;
        }
        Process &proc = *found;
        if (proc.ran_round == round_seq_) {
            // An earlier core stole this pid this round. If its stolen
            // quantum blocked and a later walk woke it, retrying now
            // would complete the syscall on this core's timeline —
            // rewound to the round start — so the SIP would run twice
            // in one round, overlapping its own quantum in simulated
            // time. Keep wake_pending set and retry next round.
            if (proc.state == ProcState::kBlocked) {
                ctr_deferred_retries_->add();
            }
            continue;
        }
        proc.ran_round = round_seq_;
        if (proc.state == ProcState::kBlocked) {
            proc.wake_pending = false;
            ctr_sched_visits_->add();
            // Retry the in-flight syscall.
            OCC_TRACE_SPAN(kLibos, abi::sys_name(proc.sys_num),
                           static_cast<uint64_t>(pid));
            if (handle_syscall(proc)) {
                any_progress_ = true;
            } else {
                ctr_wasted_retries_->add();
            }
        } else {
            run_one_quantum(proc);
            ++ran;
        }
        // Quanta advance the clock; timers that came due mid-walk
        // wake their processes before the walk reaches their pid, the
        // same slot the old per-round retry would have succeeded at.
        fire_due_timers();
    }
    return ran;
}

Process *
Kernel::pick_steal(int core, int cap, int ran)
{
    // Victim = the most-loaded other queue by eligible pids (runnable,
    // not yet visited this round; ties to the lowest core index), and
    // only while it holds more of them than this core has run this
    // round plus one — below that a steal would migrate work without
    // shortening the round. The stolen pid is the victim's lowest
    // eligible one (it waited longest at the bottom of the queue).
    Process *stolen = nullptr;
    int victim_count = ran + 1;
    for (int other = 0; other < num_cores_; ++other) {
        if (other == core) {
            continue;
        }
        int count = 0;
        Process *lowest = nullptr;
        const PidSet &queue = run_queues_[other];
        for (int pid = queue.next_after(0); pid >= 0 && pid <= cap;
             pid = queue.next_after(pid)) {
            Process *proc = process(pid);
            if (!proc || proc->state != ProcState::kRunnable ||
                proc->ran_round == round_seq_) {
                continue;
            }
            if (lowest == nullptr) {
                lowest = proc;
            }
            ++count;
        }
        if (count > victim_count) {
            victim_count = count;
            stolen = lowest;
        }
    }
    return stolen;
}

void
Kernel::run(bool allow_idle)
{
    while (!all_exited()) {
        if (step_round()) {
            continue;
        }
        uint64_t wake = next_wake_time();
        if (wake != ~0ull && wake > clock_->cycles()) {
            OCC_TRACE_SPAN(kSched, "sched.idle");
            clock_->advance(wake - clock_->cycles());
            continue;
        }
        if (wake == ~0ull) {
            if (allow_idle) {
                return;
            }
            OCC_PANIC("kernel deadlock: all processes blocked forever");
        }
        // wake <= now but no progress: one more round handles it; if
        // this persists the predicates are wrong.
        if (!step_round()) {
            if (allow_idle) {
                return;
            }
            OCC_PANIC("kernel livelock: blocked with stale wake times");
        }
    }
}

// ---------------------------------------------------------------------
// syscalls
// ---------------------------------------------------------------------

bool
Kernel::handle_syscall(Process &proc)
{
    OCC_CHECK(proc.in_syscall);
    syscall_proc_ = &proc;
    std::optional<int64_t> result =
        dispatch(proc, proc.sys_num, proc.sys_args);
    syscall_proc_ = nullptr;
    if (proc.state == ProcState::kDead) {
        return true; // exit() or killed during dispatch
    }
    if (!result) {
        proc.state = ProcState::kBlocked;
        return false;
    }
    proc.in_syscall = false;
    proc.state = ProcState::kRunnable;
    cancel_timer(proc);
    proc.sys_deadline = ~0ull;
    home_queue(proc).insert(proc.pid);
    proc.cpu->set_reg(0, static_cast<uint64_t>(*result));
    proc.cpu->set_rip(proc.sys_ret_addr);
    return true;
}

std::optional<int64_t>
Kernel::dispatch(Process &proc, uint64_t num,
                 const uint64_t args[abi::kSyscallArgs])
{
    auto file_of = [&](uint64_t fd) -> FilePtr {
        return proc.fds.ref(static_cast<int>(fd));
    };

    switch (static_cast<Sys>(num)) {
      case Sys::kExit:
        kill_process(proc, DeathCause::kExited,
                     static_cast<int64_t>(args[0]));
        return 0;

      case Sys::kWrite:
      case Sys::kRead:
      case Sys::kSockSend:
      case Sys::kSockRecv: {
        // Hot path: no FilePtr refcount traffic (the fd table entry
        // outlives the call), and the user buffer is resolved once and
        // handed to the file object, which copies straight between the
        // guest's pages and its own storage.
        FileObject *file = proc.fds.get(static_cast<int>(args[0]));
        if (!file) return neg_errno(ErrorCode::kBadF);
        uint64_t buf = args[1];
        uint64_t len = std::min<uint64_t>(args[2], 1 << 20);
        Sys sys = static_cast<Sys>(num);
        bool is_write = sys == Sys::kWrite || sys == Sys::kSockSend;
        bool is_sock = sys == Sys::kSockSend || sys == Sys::kSockRecv;
        // read()/write() return 0 for len == 0 without touching the
        // file; the socket calls always reach the object (sock_send
        // pays the per-op network cost even for an empty payload).
        if (len == 0 && !is_sock) return 0;
        // All-or-nothing: the whole range must be mapped before a byte
        // moves. A write's source is read as the object takes it, and
        // pipe/socket reads are destructive, so a destination that
        // faults after the read would silently discard consumed bytes.
        // The stores ignore permission bits, so mapped == writable.
        if (!resolve_user(proc, buf, len)) {
            return neg_errno(ErrorCode::kFault);
        }
        IoBuffer io(*proc.space, buf, len, io_pages_);
        if (is_write) {
            IoResult r = file->write_user(*this, io);
            if (r.would_block) {
                return block_on(proc, r.wake_time,
                                file->write_waiters());
            }
            if (r.value == neg_errno(ErrorCode::kPipe) &&
                file->epipe_kills()) {
                // POSIX delivers SIGPIPE here; the default action
                // kills the writer. Returning -EPIPE to a program
                // that retries in a loop used to deadlock run()
                // against allow_idle (the writer never blocks, never
                // exits). Kill with a SIGPIPE-shaped death record.
                // Sockets share this path: a send to a peer-closed
                // connection is the same default-fatal SIGPIPE.
                proc.last_fault = vm::FaultKind::kNone;
                kill_process(proc, DeathCause::kPipe, r.value);
                return r.value;
            }
            return r.value;
        }
        IoResult r = file->read_user(*this, io);
        if (r.would_block) {
            return block_on(proc, r.wake_time, file->read_waiters());
        }
        return r.value;
      }

      case Sys::kOpen: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        auto file = fs_open(proc, path.value(), args[2]);
        if (!file.ok()) return neg_errno(file.error().code);
        int fd = proc.alloc_fd();
        file.value()->on_fd_acquire();
        proc.fds.set(fd, file.take());
        return fd;
      }

      case Sys::kClose: {
        int fd = static_cast<int>(args[0]);
        FileObject *open = proc.fds.get(fd);
        if (!open) return neg_errno(ErrorCode::kBadF);
        open->on_fd_release(*this);
        FilePtr file = proc.fds.take(fd); // alive through epoll cleanup
        proc.fd_closed(fd);
        epoll_fd_dropped(proc, fd, file);
        return 0;
      }

      case Sys::kSpawn: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        uint64_t argv_ptr = args[2];
        uint64_t argc = std::min<uint64_t>(args[3], 32);
        std::vector<std::string> argv;
        for (uint64_t i = 0; i < argc; ++i) {
            uint64_t str_ptr = 0;
            if (!copy_from_user(proc, argv_ptr + 8 * i, &str_ptr, 8)
                     .ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            auto arg = read_user_cstring(proc, str_ptr);
            if (!arg.ok()) return neg_errno(arg.error().code);
            argv.push_back(arg.take());
        }
        if (argv.empty()) {
            argv.push_back(path.value());
        }
        std::array<int64_t, 3> stdio = {-1, -1, -1};
        bool have_stdio = false;
        if (args[4] != 0) {
            int64_t raw[3];
            if (!copy_from_user(proc, args[4], raw, sizeof(raw)).ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            stdio = {raw[0], raw[1], raw[2]};
            have_stdio = true;
        }
        auto pid = this->spawn(path.value(), argv, proc.pid,
                               have_stdio ? &stdio : nullptr);
        if (!pid.ok()) return neg_errno(pid.error().code);
        return pid.value();
      }

      case Sys::kWaitPid: {
        int pid = static_cast<int>(args[0]);
        auto it = reaped_.find(pid);
        if (it != reaped_.end()) {
            return it->second.code;
        }
        if (pid == proc.pid || !process(pid)) {
            // Self-wait can never be satisfied (the caller would be
            // parked on its own death edge, forever); report "no
            // such child" like an unknown pid.
            return neg_errno(ErrorCode::kChild);
        }
        return block_on(proc, ~0ull, pid_waiters_[pid]);
      }

      case Sys::kGetPid:
        return proc.pid;

      case Sys::kPipe: {
        auto pipe = std::make_shared<Pipe>();
        auto read_end = std::make_shared<PipeEnd>(pipe, true);
        auto write_end = std::make_shared<PipeEnd>(pipe, false);
        // Install each end before allocating the next descriptor:
        // alloc_fd() hands out the lowest fd absent from the table,
        // so two back-to-back allocations would alias.
        int rfd = proc.alloc_fd();
        read_end->on_fd_acquire();
        proc.fds.set(rfd, read_end);
        int wfd = proc.alloc_fd();
        write_end->on_fd_acquire();
        proc.fds.set(wfd, write_end);
        int64_t fds[2] = {rfd, wfd};
        if (!copy_to_user(proc, args[0], fds, sizeof(fds)).ok()) {
            // Linux's do_pipe2 cleanup: a failed copy-out uninstalls
            // both descriptors. Leaving them installed would leak two
            // fds the program never learned the numbers of.
            write_end->on_fd_release(*this);
            proc.fds.take(wfd);
            read_end->on_fd_release(*this);
            proc.fds.take(rfd);
            proc.fd_closed(rfd);
            return neg_errno(ErrorCode::kFault);
        }
        return 0;
      }

      case Sys::kDup2: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        int newfd = static_cast<int>(args[1]);
        if (static_cast<int>(args[0]) == newfd) {
            // POSIX: dup2(fd, fd) is a no-op. The release-then-
            // acquire below would transiently drop the last pipe
            // reader/writer, delivering a spurious EOF/EPIPE wake to
            // a blocked peer.
            return newfd;
        }
        if (newfd < 0 || newfd >= FdTable::kLimit) {
            return neg_errno(ErrorCode::kBadF);
        }
        if (FileObject *old = proc.fds.get(newfd)) {
            // Implicit close: full kClose discipline minus the
            // fd_closed() hint rewind (the slot is reoccupied on the
            // next line, so everything below the hint stays taken).
            old->on_fd_release(*this);
            FilePtr doomed = proc.fds.take(newfd);
            epoll_fd_dropped(proc, newfd, doomed);
        }
        file->on_fd_acquire();
        proc.fds.set(newfd, std::move(file));
        return newfd;
      }

      case Sys::kLseek: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        auto pos = file->seek(static_cast<int64_t>(args[1]),
                              static_cast<int>(args[2]));
        if (!pos.ok()) return neg_errno(pos.error().code);
        return pos.value();
      }

      case Sys::kUnlink: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        Status status = fs_unlink(path.value());
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kMkdir: {
        auto path = read_user_string(proc, args[0], args[1]);
        if (!path.ok()) return neg_errno(path.error().code);
        Status status = fs_mkdir(path.value());
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kMmap: {
        // Linux-shaped: mmap(addr, len, prot, flags, fd, off). Only
        // anonymous private RW mappings exist in the model; the addr
        // hint is ignored (mappings come from the per-process bump
        // range). The full 6-register marshalling matters here: off
        // is argument six.
        constexpr uint64_t kMapAnonymous = 0x20;
        uint64_t prot = args[2];
        uint64_t flags = args[3];
        int64_t fd = static_cast<int64_t>(args[4]);
        uint64_t off = args[5];
        if (off & vm::kPageMask) return neg_errno(ErrorCode::kInval);
        if (!(flags & kMapAnonymous) || fd != -1 || off != 0) {
            // File-backed mappings are not part of the model.
            return neg_errno(ErrorCode::kNoSys);
        }
        if (prot & ~static_cast<uint64_t>(vm::kPermRW)) {
            // W^X inside the enclave: PROT_EXEC via mmap would let a
            // SIP forge unverified code pages.
            return neg_errno(ErrorCode::kPerm);
        }
        uint64_t len = (args[1] + vm::kPageMask) & ~vm::kPageMask;
        if (len == 0) return neg_errno(ErrorCode::kInval);
        uint64_t addr = (proc.mmap_cursor + vm::kPageMask) &
                        ~vm::kPageMask;
        // No addition here: a length near 2^64 would wrap addr + len
        // below mmap_end and move the cursor onto any page it likes.
        if (addr > proc.mmap_end || len > proc.mmap_end - addr) {
            return neg_errno(ErrorCode::kNoMem);
        }
        // Domain/process memory is mapped eagerly at load time (the
        // SGX 1.0 preallocation, paper §6); mmap hands out ranges and
        // zero-fills them.
        if (!proc.space->is_mapped(addr, len)) {
            Status status = proc.space->map(addr, len, vm::kPermRW);
            if (!status.ok()) return neg_errno(status.code());
        } else {
            proc.space->zero_raw(addr, len);
        }
        charge(mmap_zero_cost(len));
        proc.mmap_cursor = addr + len;
        return static_cast<int64_t>(addr);
      }

      case Sys::kMunmap:
        // Bump allocation: a real free list is unnecessary for the
        // workloads; munmap succeeds without reclaiming.
        return 0;

      case Sys::kTime:
        return static_cast<int64_t>(clock_->nanos());

      case Sys::kKill: {
        Process *target = process(static_cast<int>(args[0]));
        if (!target || target->state == ProcState::kDead) {
            return neg_errno(ErrorCode::kSrch);
        }
        // Negate in uint64_t: -INT64_MIN does not exist in int64_t.
        kill_process(*target, DeathCause::kKilled,
                     static_cast<int64_t>(0 - args[1]));
        return 0;
      }

      case Sys::kYield:
        return 0;

      case Sys::kFstatSize: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        int64_t size = file->size();
        if (size < 0) return neg_errno(ErrorCode::kInval);
        return size;
      }

      case Sys::kFsync: {
        FilePtr file = file_of(args[0]);
        if (!file) return neg_errno(ErrorCode::kBadF);
        Status status = file->fsync(*this);
        return status.ok() ? 0 : neg_errno(status.code());
      }

      case Sys::kSockListen: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        uint16_t port = static_cast<uint16_t>(args[0]);
        if (!net_->listen(port, static_cast<int>(args[1]))) {
            return neg_errno(ErrorCode::kBusy);
        }
        int fd = proc.alloc_fd();
        auto listener = std::make_shared<ListenerFile>(net_, port);
        listener->on_fd_acquire();
        proc.fds.set(fd, listener);
        listener_registry_[port] = listener.get();
        return fd;
      }

      case Sys::kSockAccept: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        FileObject *file = proc.fds.get(static_cast<int>(args[0]));
        if (!file || file->kind() != FileKind::kListener) {
            return neg_errno(ErrorCode::kBadF);
        }
        auto *listener = static_cast<ListenerFile *>(file);
        host::NetSim::Connection *conn =
            net_->try_accept(listener->port(), clock_->cycles());
        if (!conn) {
            return block_on(proc,
                            net_->next_accept_time(listener->port()),
                            file->read_waiters());
        }
        charge(CostModel::kNetAcceptCycles);
        int fd = proc.alloc_fd();
        auto sock = std::make_shared<SocketFile>(net_, conn, true);
        sock->on_fd_acquire();
        register_socket(conn, true, sock.get());
        proc.fds.set(fd, std::move(sock));
        return fd;
      }

      case Sys::kSockConnect: {
        if (!net_) return neg_errno(ErrorCode::kNoSys);
        auto conn = net_->connect(static_cast<uint16_t>(args[0]));
        if (!conn.ok()) return neg_errno(conn.error().code);
        int fd = proc.alloc_fd();
        auto sock = std::make_shared<SocketFile>(net_, conn.value(),
                                                 false);
        sock->on_fd_acquire();
        register_socket(conn.value(), false, sock.get());
        proc.fds.set(fd, std::move(sock));
        return fd;
      }

      case Sys::kPoll: {
        // poll(fds, nfds, timeout_ns): fds is an array of records of
        // three int64s {fd, events, revents}. timeout_ns < 0 waits
        // forever, 0 never blocks. The deadline is computed once, at
        // the first dispatch, so blocked retries do not slide it.
        constexpr uint64_t kMaxPollFds = 4096;
        uint64_t fds_ptr = args[0];
        uint64_t nfds = args[1];
        int64_t timeout_ns = static_cast<int64_t>(args[2]);
        if (nfds > kMaxPollFds) return neg_errno(ErrorCode::kInval);
        if (proc.sys_deadline == ~0ull && timeout_ns >= 0) {
            proc.sys_deadline =
                timeout_deadline(clock_->cycles(), timeout_ns);
        }
        uint64_t bytes = nfds * abi::kPollRecordBytes;
        int64_t *rec = reinterpret_cast<int64_t *>(staging(bytes));
        if (bytes > 0 && !copy_from_user(proc, fds_ptr, rec, bytes).ok()) {
            return neg_errno(ErrorCode::kFault);
        }
        int64_t ready = 0;
        uint64_t min_event = ~0ull;
        std::vector<WaitQueue *> queues;
        for (uint64_t i = 0; i < nfds; ++i) {
            int64_t fd = rec[3 * i];
            int64_t events = rec[3 * i + 1];
            int64_t revents = 0;
            if (fd >= 0) { // POSIX: negative fds are skipped
                FileObject *pf = proc.fds.get(static_cast<int>(fd));
                if (!pf) {
                    revents = abi::kPollNval;
                } else {
                    uint64_t bits = pf->poll_ready(*this);
                    // POLLERR/POLLHUP are always reported; POLLIN/
                    // POLLOUT only when requested.
                    revents =
                        static_cast<int64_t>(bits) &
                        (events | abi::kPollErr | abi::kPollHup);
                    if (revents == 0) {
                        if (events & abi::kPollIn) {
                            queues.push_back(&pf->read_waiters());
                        }
                        if (events & abi::kPollOut) {
                            queues.push_back(&pf->write_waiters());
                        }
                        min_event = std::min(min_event,
                                             pf->next_event_time(*this));
                    }
                }
            }
            rec[3 * i + 2] = revents;
            if (revents != 0) ++ready;
        }
        uint64_t now = clock_->cycles();
        bool timed_out =
            proc.sys_deadline != ~0ull && now >= proc.sys_deadline;
        if (ready > 0 || timed_out) {
            if (bytes > 0 &&
                !copy_to_user(proc, fds_ptr, rec, bytes).ok()) {
                return neg_errno(ErrorCode::kFault);
            }
            ctr_poll_calls_->add();
            return ready;
        }
        return block_on(proc, std::min(proc.sys_deadline, min_event),
                        queues);
      }

      case Sys::kEpollCreate: {
        int fd = proc.alloc_fd();
        auto ep = std::make_shared<EpollObject>();
        ep->on_fd_acquire();
        proc.epolls.push_back(ep.get());
        proc.fds.set(fd, std::move(ep));
        return fd;
      }

      case Sys::kEpollCtl: {
        // epoll_ctl(epfd, op, fd, events). Errors follow Linux: EBADF
        // for dead descriptors, EINVAL for a non-epoll epfd, EEXIST /
        // ENOENT / ELOOP from the interest-list operation itself.
        FileObject *epfile = proc.fds.get(static_cast<int>(args[0]));
        if (!epfile) return neg_errno(ErrorCode::kBadF);
        if (epfile->kind() != FileKind::kEpoll) {
            return neg_errno(ErrorCode::kInval);
        }
        auto *ep = static_cast<EpollObject *>(epfile);
        int fd = static_cast<int>(args[2]);
        FilePtr target = file_of(args[2]);
        if (!target) return neg_errno(ErrorCode::kBadF);
        uint64_t op = args[1];
        Result<int64_t> r = neg_errno(ErrorCode::kInval);
        if (op == abi::kEpollCtlAdd) {
            r = ep->add(*this, fd, target, args[3]);
        } else if (op == abi::kEpollCtlDel) {
            r = ep->remove(fd);
        } else if (op == abi::kEpollCtlMod) {
            r = ep->modify(*this, fd, args[3]);
        } else {
            return neg_errno(ErrorCode::kInval);
        }
        if (!r.ok()) return neg_errno(r.error().code);
        return r.value();
      }

      case Sys::kEpollWait: {
        // epoll_wait(epfd, events, maxevents, timeout_ns): events is
        // an array of {fd, revents} int64 pairs. Timeout semantics
        // match kPoll (deadline pinned at the first dispatch).
        constexpr uint64_t kMaxEpollEvents = 4096;
        FileObject *epfile = proc.fds.get(static_cast<int>(args[0]));
        if (!epfile) return neg_errno(ErrorCode::kBadF);
        if (epfile->kind() != FileKind::kEpoll) {
            return neg_errno(ErrorCode::kInval);
        }
        auto *ep = static_cast<EpollObject *>(epfile);
        uint64_t evs_ptr = args[1];
        uint64_t max_events = args[2];
        int64_t timeout_ns = static_cast<int64_t>(args[3]);
        if (max_events == 0 || max_events > kMaxEpollEvents) {
            return neg_errno(ErrorCode::kInval);
        }
        if (proc.sys_deadline == ~0ull && timeout_ns >= 0) {
            proc.sys_deadline =
                timeout_deadline(clock_->cycles(), timeout_ns);
        }
        uint64_t bytes = max_events * abi::kEpollRecordBytes;
        // All-or-nothing EFAULT *before* collect(): collecting is
        // destructive for edge-triggered entries, so the whole output
        // buffer must be resolved before any candidate is consumed
        // (same discipline as the kRead/kSockRecv destination). The
        // events then go straight into the resolved pages.
        if (!resolve_user(proc, evs_ptr, bytes)) {
            return neg_errno(ErrorCode::kFault);
        }
        IoBuffer evs(*proc.space, evs_ptr, bytes, io_pages_);
        uint64_t min_due = ~0ull;
        int64_t n = ep->collect(*this, evs, max_events, min_due);
        uint64_t now = clock_->cycles();
        bool timed_out =
            proc.sys_deadline != ~0ull && now >= proc.sys_deadline;
        if (n > 0 || timed_out) {
            ctr_epoll_waits_->add();
            return n;
        }
        return block_on(proc, std::min(proc.sys_deadline, min_due),
                        ep->read_waiters());
      }

      case Sys::kGetArg: {
        uint64_t index = args[0];
        if (index >= proc.argv.size()) {
            return neg_errno(ErrorCode::kInval);
        }
        const std::string &arg = proc.argv[index];
        uint64_t cap = args[2];
        uint64_t n = std::min<uint64_t>(arg.size() + 1, cap);
        if (n > 0 &&
            !copy_to_user(proc, args[1], arg.c_str(), n).ok()) {
            return neg_errno(ErrorCode::kFault);
        }
        return static_cast<int64_t>(arg.size());
      }

      case Sys::kCount:
        break;
    }
    return neg_errno(ErrorCode::kNoSys);
}

} // namespace occlum::oskit
