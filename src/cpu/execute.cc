/**
 * @file
 * Scheduling, execution and writeback.
 *
 * Issue selects up to issueWidth ready reservation-station instructions
 * per cycle under the port mix (2 simple-int, 2 FP/complex, 1 load, 1
 * store), with loads/branches/FP prioritized and age as tie-break
 * (section 3.1). Loads issue speculatively past unresolved older store
 * addresses unless the collision history table predicts a conflict;
 * store-address resolution checks younger executed loads and triggers a
 * full squash on a memory-order violation.
 *
 * The scheduler keeps no list to scan. An RS instruction is admitted
 * from the rename-ordered admission FIFO when it reaches earliestIssue;
 * admission and each wakeup park it on its first not-ready source
 * register or set its ROB slot's readyMask bit. Each cycle the issue
 * stage first decides, for every ready load, whether it is held (LSQ
 * retry backoff, or a CHT-predicted collision with an older unresolved
 * store) — all before anything issues, so a violation squash's CHT
 * training cannot hold a load already chosen this cycle. Select then
 * walks the ready-and-not-held bits, priority class first, each class
 * oldest-first via find-first-set from the ROB head. Writeback drains
 * the current cycle's completion-calendar bucket in seq order, and the
 * instructions it wakes are candidates in the same cycle's issue.
 */

#include <algorithm>
#include <functional>

#include "base/log.hh"
#include "cpu/core.hh"

namespace rix
{

namespace
{

bool
rangesOverlap(Addr a, unsigned asize, Addr b, unsigned bsize)
{
    return a < b + bsize && b < a + asize;
}

} // namespace

void
Core::parkOrReady(DynInst &di)
{
    if (di.hasSrc1 && !regState.ready(di.psrc1)) {
        di.rsState = RsState::Parked;
        operandWaiters[di.psrc1].push_back({di.selfHandle, di.seq});
        return;
    }
    if (di.hasSrc2 && !regState.ready(di.psrc2)) {
        di.rsState = RsState::Parked;
        operandWaiters[di.psrc2].push_back({di.selfHandle, di.seq});
        return;
    }
    di.rsState = RsState::Ready;
    setSlotBit(readyMask, di.robSlot, true);
}

bool
Core::loadHeld(const DynInst &di) const
{
    if (di.retryCycle > cycle)
        return true;
    return oldestUnresolvedStore < di.seq &&
           cht[di.pc & (cht.size() - 1)].predictTaken();
}

void
Core::wakeOperandWaiters(PhysReg preg)
{
    std::vector<InstRef> &waiters = operandWaiters[preg];
    // A woken instruction may re-park on its other operand, never on
    // this list: preg is ready now.
    for (const InstRef &r : waiters) {
        DynInst &w = pool.get(r.h);
        if (w.seq == r.seq && w.rsState == RsState::Parked)
            parkOrReady(w);
    }
    waiters.clear(); // keeps capacity for reuse
}

void
Core::scheduleCompletion(DynInst &di, Cycle when)
{
    if (when <= cycle)
        when = cycle + 1;
    const CompletionEvent ev{di.seq, di.selfHandle};
    if (when - cycle < completionWheelSlots)
        completionWheel[when & (completionWheelSlots - 1)].push_back(ev);
    else {
        lateCompletions.push_back({when, ev});
        std::push_heap(lateCompletions.begin(), lateCompletions.end(),
                       std::greater<LateCompletion>());
    }
}

void
Core::completeNow(DynInst &di, Cycle when)
{
    di.completed = true;
    di.completeCycle = when;
}

void
Core::executeAlu(DynInst &di)
{
    const Instruction &inst = di.inst;
    const u64 a = di.hasSrc1 ? pregValue[di.psrc1] : 0;
    const u64 b = di.hasSrc2 ? pregValue[di.psrc2] : 0;

    switch (inst.cls()) {
      case InstClass::Branch:
        di.actualTaken = branchTaken(inst, a);
        di.actualTarget = InstAddr(u32(inst.imm));
        di.resolved = true;
        break;
      case InstClass::IndirectJump:
      case InstClass::Return:
        di.actualTaken = true;
        di.actualTarget = InstAddr(a);
        di.resolved = true;
        break;
      default:
        if (di.hasDest) {
            u64 v = aluCompute(inst, a, b);
#ifdef RIX_FAULT_INJECT_ADDQ
            // Deliberate, build-time-gated execute-stage bug (cmake
            // -DRIX_FAULT_INJECT=ON): flip one bit of every ADDQ
            // result. Exists solely so the differential-verification
            // subsystem can prove it actually detects and minimizes a
            // real pipeline fault; never enabled in normal builds.
            if (inst.op == Opcode::ADDQ)
                v ^= u64(1) << 17;
#endif
            pregValue[di.pdest] = v;
        }
        break;
    }
    scheduleCompletion(di, cycle + di.dec->latency);
}

bool
Core::executeLoad(DynInst &di)
{
    const Instruction &inst = di.inst;
    const Addr addr = pregValue[di.psrc1] + u64(s64(inst.imm));
    const unsigned size = di.dec->size;

    // Scan older stores, youngest first.
    bool unresolved_older = false;
    bool forwarded = false;
    bool partial_conflict = false;
    InstSeqNum forwarded_from = 0;
    bool overlap_found = false;
    for (auto it = sq.rbegin(); it != sq.rend(); ++it) {
        const SqEntry &e = *it;
        if (e.seq >= di.seq)
            continue;
        if (!e.resolved) {
            unresolved_older = true;
            continue;
        }
        if (!overlap_found && rangesOverlap(addr, size, e.addr, e.size)) {
            overlap_found = true;
            if (e.addr == addr && e.size == size) {
                forwarded = true;
                forwarded_from = e.seq;
            } else {
                partial_conflict = true;
            }
        }
    }

    if (partial_conflict) {
        // Conservative: a partially overlapping resolved store cannot
        // forward; retry until the store drains at retirement.
        di.retryCycle = cycle + 1;
        return false;
    }

    di.effAddr = addr;
    di.addrValid = true;
    di.speculativePastStore = unresolved_older;

    const u64 value = loadValue(inst.op, memReadOverlay(addr, size, di.seq));
    if (di.hasDest)
        pregValue[di.pdest] = value;

    for (auto &e : lq) {
        if (e.seq == di.seq) {
            e.addr = addr;
            e.size = size;
            e.resolved = true;
            e.forwardedFrom = forwarded_from;
            break;
        }
    }

    const Cycle agen_done = cycle + p.agenLatency;
    const Cycle done = forwarded
                           ? agen_done + p.storeForwardLatency
                           : mem.read(addr, agen_done);
    scheduleCompletion(di, done);
    return true;
}

void
Core::checkStoreViolation(DynInst &store_inst)
{
    // Oldest violating load wins; everything from it onward re-executes.
    for (const LqEntry &e : lq) {
        if (e.seq <= store_inst.seq || !e.resolved)
            continue;
        if (!rangesOverlap(store_inst.effAddr, store_inst.dec->size,
                           e.addr, e.size))
            continue;
        if (e.forwardedFrom >= store_inst.seq)
            continue; // load already saw this store (or a younger one)

        DynInst *ld = &pool.get(e.owner);
        if (ld->seq != e.seq)
            rix_panic("LQ entry without ROB entry (seq %llu)",
                      (unsigned long long)e.seq);
        ++stats_.memOrderViolations;
        ++stats_.squashesMemOrder;
        // Train the collision predictor strongly.
        SatCounter &c = cht[ld->pc & (cht.size() - 1)];
        c.increment();
        c.increment();
        squashFrom(*ld, /*include_boundary=*/true, ld->pc,
                   p.squashPenalty, SquashCause::MemOrder);
        return;
    }
}

void
Core::executeStore(DynInst &di)
{
    const Instruction &inst = di.inst;
    const Addr addr = pregValue[di.psrc1] + u64(s64(inst.imm));
    di.effAddr = addr;
    di.addrValid = true;
    di.storeData = pregValue[di.psrc2];

    for (auto &e : sq) {
        if (e.seq == di.seq) {
            e.addr = addr;
            e.size = di.dec->size;
            e.data = di.storeData;
            e.resolved = true;
            break;
        }
    }

    scheduleCompletion(di, cycle + p.agenLatency);
    checkStoreViolation(di);
}

void
Core::issueStage()
{
    // Admission: RS instructions whose schedule/regread delay is over.
    while (!admitQueue.empty()) {
        DynInst &di = pool.get(admitQueue.front());
        if (di.earliestIssue > cycle)
            break;
        admitQueue.pop_front();
        parkOrReady(di);
    }

    // Hold every ready load that must wait this cycle, before anything
    // issues (see the file comment). The store queue is searched for
    // its oldest unresolved store only in cycles with a ready load.
    const size_t words = readyMask.size();
    u64 any_ready = 0;
    bool store_scanned = false;
    for (size_t w = 0; w < words; ++w) {
        any_ready |= readyMask[w];
        u64 loads = readyMask[w] & loadMask[w];
        u64 held = 0;
        if (loads && !store_scanned) {
            store_scanned = true;
            oldestUnresolvedStore = ~InstSeqNum(0);
            for (const SqEntry &e : sq) {
                if (!e.resolved) {
                    oldestUnresolvedStore = e.seq; // sq is age-ordered
                    break;
                }
            }
        }
        while (loads) {
            const unsigned b = unsigned(__builtin_ctzll(loads));
            loads &= loads - 1;
            if (loadHeld(pool.get(rob.atSlot(u32(w * 64 + b)))))
                held |= u64(1) << b;
        }
        heldMask[w] = held;
    }
    if (!any_ready)
        return;

    unsigned slots_simple = p.simpleIntSlots;
    unsigned slots_complex = p.complexSlots;
    unsigned slots_load = p.loadSlots;
    unsigned slots_store = p.storeSlots;
    unsigned total = p.issueWidth;

    auto try_issue = [&](DynInst &di) {
        unsigned *slot = nullptr;
        switch (di.dec->issuePort()) {
          case IssuePort::Simple: slot = &slots_simple; break;
          case IssuePort::Complex: slot = &slots_complex; break;
          case IssuePort::LoadP: slot = &slots_load; break;
          case IssuePort::StoreP:
            slot = p.sharedLoadStorePort ? &slots_load : &slots_store;
            break;
        }
        if (*slot == 0)
            return; // port busy; keep scanning other classes

        bool issued = true;
        if (di.isLoad())
            issued = executeLoad(di);
        else if (di.isStore())
            executeStore(di);
        else
            executeAlu(di);

        if (issued) {
            di.issued = true;
            di.issueCycle = cycle;
            di.rsState = RsState::None;
            setSlotBit(readyMask, di.robSlot, false);
            --rsBusy;
            --*slot;
            --total;
            ++stats_.issued;
            if (di.isLoad())
                ++stats_.issuedLoads;
        }
    };

    // Select: the priority class, then the rest, each oldest-first from
    // the ROB head. The head word is visited twice: its bits at and
    // above the head first, those below it (the youngest, wrapped)
    // last. A store-violation squash during issue clears the squashed
    // instructions' ready bits, so each candidate's bit is re-tested.
    // words is a power of two: the ring's slot count is one, and a
    // ring of fewer than 64 slots fills part of a single word.
    const u32 head = rob.headSlot();
    const size_t hw = head >> 6;
    const u64 at_or_above_head = ~u64(0) << (head & 63);
    for (const u64 flip : {u64(0), ~u64(0)}) {
        for (size_t i = 0; i <= words && total; ++i) {
            const size_t w = (hw + i) & (words - 1);
            const u64 part = i == 0       ? at_or_above_head
                             : i == words ? ~at_or_above_head
                                          : ~u64(0);
            u64 bits = readyMask[w] & ~heldMask[w] & (prioMask[w] ^ flip) &
                       part;
            while (bits && total) {
                const unsigned b = unsigned(__builtin_ctzll(bits));
                bits &= bits - 1;
                if (readyMask[w] & (u64(1) << b))
                    try_issue(pool.get(rob.atSlot(u32(w * 64 + b))));
            }
        }
    }
}

void
Core::resolveControl(DynInst &di)
{
    if (di.inst.isCondBranch())
        integ.fillBranchOutcome(di.createdEntry, di.actualTaken);

    if (di.actualNextPc() != di.predictedNextPc()) {
        di.mispredicted = true;
        ++stats_.branchMispredicts;
        ++stats_.squashesBranch;
        squashFrom(di, /*include_boundary=*/false, di.actualNextPc(),
                   p.squashPenalty, SquashCause::Branch);
    }
}

void
Core::writebackStage()
{
    std::vector<CompletionEvent> &due =
        completionWheel[cycle & (completionWheelSlots - 1)];
    while (!lateCompletions.empty() &&
           lateCompletions.front().when <= cycle) {
        due.push_back(lateCompletions.front().ev);
        std::pop_heap(lateCompletions.begin(), lateCompletions.end(),
                      std::greater<LateCompletion>());
        lateCompletions.pop_back();
    }
    if (due.empty())
        return;
    if (due.size() > 1)
        std::sort(due.begin(), due.end(),
                  [](const CompletionEvent &a, const CompletionEvent &b) {
                      return a.seq < b.seq;
                  });

    // Nothing below schedules a completion, so `due` is stable.
    for (const CompletionEvent &ev : due) {
        DynInst *di = &pool.get(ev.h);
        if (di->seq != ev.seq)
            continue; // squashed in flight (slot recycled)

        completeNow(*di, cycle);

        if (di->hasDest && !di->integrated) {
            regState.markReady(di->pdest);
            wakeOperandWaiters(di->pdest);
            std::vector<InstRef> &waiters = integWaiters[di->pdest];
            if (!waiters.empty()) {
                for (const InstRef &r : waiters) {
                    DynInst &waiter = pool.get(r.h);
                    if (waiter.seq == r.seq && waiter.integrated &&
                        !waiter.completed)
                        completeNow(waiter, cycle);
                }
                waiters.clear(); // keeps capacity for reuse
            }
        }

        if (di->isCtrl && di->resolved)
            resolveControl(*di);
    }
    due.clear();
}

} // namespace rix
