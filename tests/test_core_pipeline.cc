/**
 * @file
 * Cycle-level core tests: basic execution correctness against the
 * emulator on directed programs, branch misprediction recovery, memory
 * disambiguation (forwarding, violations, collision prediction),
 * resource limits, and pipeline timing sanity.
 */

#include <gtest/gtest.h>

#include <cinttypes>

#include "assembler/parser.hh"
#include "base/log.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"

using namespace rix;

namespace
{

Program &
keep(Program p)
{
    static std::vector<std::unique_ptr<Program>> pool;
    pool.push_back(std::make_unique<Program>(std::move(p)));
    return *pool.back();
}

/** Run a text program on the core and check against the emulator. */
void
expectMatchesEmulator(const std::string &src, const CoreParams &cp)
{
    Program &p = keep(assembleTextOrDie(src, "t"));
    std::string err = verifyAgainstEmulator(p, cp, 2'000'000, 20'000'000);
    EXPECT_EQ(err, "");
}

} // namespace

TEST(CorePipeline, StraightLine)
{
    expectMatchesEmulator(R"(
        addqi t0, zero, 3
        addqi t1, zero, 4
        mulq t2, t0, t1
        subq t3, t2, t0
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, TightLoop)
{
    expectMatchesEmulator(R"(
        addqi t0, zero, 100
        addqi t1, zero, 0
loop:   addq t1, t1, t0
        subqi t0, t0, 1
        bne t0, loop
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, CallsAndStack)
{
    expectMatchesEmulator(R"(
f:      lda sp, -16(sp)
        stq ra, 0(sp)
        stq s0, 8(sp)
        addqi s0, a0, 7
        mulqi v0, s0, 3
        ldq s0, 8(sp)
        ldq ra, 0(sp)
        lda sp, 16(sp)
        ret
main:   addqi t3, zero, 20
        addqi s1, zero, 0
loop:   mv a0, t3
        jsr f
        addq s1, s1, v0
        subqi t3, t3, 1
        bne t3, loop
        syscall 1, s1
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, DataDependentBranches)
{
    // Alternating and data-driven branches exercise misprediction
    // recovery (map-table restore, RAS/history repair).
    expectMatchesEmulator(R"(
        addqi t0, zero, 0x55aa
        addqi t1, zero, 64
        addqi t2, zero, 0
loop:   andi t3, t0, 1
        beq t3, even
        addqi t2, t2, 3
        br join
even:   subqi t2, t2, 1
join:   srli t0, t0, 1
        bne t0, keepmask
        addqi t0, zero, 0x55aa
keepmask: subqi t1, t1, 1
        bne t1, loop
        syscall 1, t2
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, StoreLoadForwarding)
{
    expectMatchesEmulator(R"(
        .data
buf:    .space 128
        .text
        addqi t0, zero, 500
        addqi t1, zero, 0
loop:   stq t0, buf(zero)
        ldq t2, buf(zero)     # forwards from the store
        addq t1, t1, t2
        subqi t0, t0, 1
        bne t0, loop
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, MemoryOrderViolationRecovers)
{
    // A store whose address resolves late (behind a multiply chain)
    // conflicting with a younger speculative load: the violation squash
    // and the collision-history-table training must preserve
    // architectural correctness.
    expectMatchesEmulator(R"(
        .data
cell:   .quad 1
        .text
        addqi t5, zero, 40
        addqi s1, zero, 0
        addqi t4, zero, cell
loop:   mulqi t0, t5, 3       # slow address computation
        andi t0, t0, 0
        addq t0, t0, t4       # = &cell, but late
        stq t5, 0(t0)
        ldq t1, cell(zero)    # same address, issues speculatively
        addq s1, s1, t1
        subqi t5, t5, 1
        bne t5, loop
        syscall 1, s1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, PartialOverlapHandledConservatively)
{
    expectMatchesEmulator(R"(
        .data
cell:   .quad 0x1122334455667788
        .text
        addqi t0, zero, 0x99
        stl t0, cell(zero)     # 4-byte store
        ldq t1, cell(zero)     # 8-byte load overlaps partially
        syscall 1, t1
        halt
    )",
                          baselineParams());
}

TEST(CorePipeline, IndirectJumpTable)
{
    expectMatchesEmulator(R"(
main:   addqi t9, zero, 3
        addqi s1, zero, 0
outer:  andi t0, t9, 3
        addqi t1, zero, disp
        addq t1, t1, t0
        jmp t1
disp:   br h0
        br h1
        br h2
        br h3
h0:     addqi s1, s1, 1
        br join
h1:     addqi s1, s1, 10
        br join
h2:     addqi s1, s1, 100
        br join
h3:     addqi s1, s1, 1000
join:   subqi t9, t9, 1
        bge t9, outer
        syscall 1, s1
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, RecursionDepth)
{
    expectMatchesEmulator(R"(
fib:    lda sp, -24(sp)
        stq ra, 0(sp)
        stq s0, 8(sp)
        stq s1, 16(sp)
        mv s0, a0
        cmplti t0, s0, 2
        beq t0, rec
        mv v0, s0
        br out
rec:    subqi a0, s0, 1
        jsr fib
        mv s1, v0
        subqi a0, s0, 2
        jsr fib
        addq v0, v0, s1
out:    ldq s1, 16(sp)
        ldq s0, 8(sp)
        ldq ra, 0(sp)
        lda sp, 24(sp)
        ret
main:   addqi a0, zero, 12
        jsr fib
        syscall 1, v0
        halt
        .entry main
    )",
                          baselineParams());
}

TEST(CorePipeline, TimingSanity)
{
    // A trivially parallel block should get IPC well above 1 on the
    // 4-way machine, and a serial dependence chain close to 1.
    Program &par = keep(assembleTextOrDie(R"(
        addqi t9, zero, 2000
loop:   addqi t1, zero, 1
        addqi t2, zero, 2
        addqi t3, zero, 3
        addqi t4, zero, 4
        addqi t5, zero, 5
        addqi t6, zero, 6
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                          "par"));
    Core c1(par, baselineParams());
    c1.run();
    EXPECT_GT(c1.stats().ipc(), 1.8);

    Program &ser = keep(assembleTextOrDie(R"(
        addqi t9, zero, 2000
        addqi t1, zero, 1
loop:   addq t1, t1, t1
        srli t1, t1, 1
        addq t1, t1, t1
        srli t1, t1, 1
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                          "ser"));
    Core c2(ser, baselineParams());
    c2.run();
    EXPECT_LT(c2.stats().ipc(), 2.0);
    EXPECT_GT(c2.stats().ipc(), 0.5);
}

TEST(CorePipeline, MispredictPenaltyVisible)
{
    // An unpredictable branch stream should cost real cycles compared
    // with a perfectly biased one of the same instruction count.
    auto run_with = [&](const char *cond) {
        Program &p = keep(assembleTextOrDie(strfmt(R"(
        addqi t9, zero, 4000
        addqi t0, zero, 0x9e3779b9
        addqi s1, zero, 0
loop:   mulqi t0, t0, 25214903
        addqi t0, t0, 11
        srli t1, t0, 16
        andi t1, t1, %s
        beq t1, skip
        addqi s1, s1, 1
skip:   subqi t9, t9, 1
        bne t9, loop
        halt
        )",
                                                   cond),
                                            "b"));
        Core c(p, baselineParams());
        c.run();
        return c.stats();
    };
    const CoreStats biased = run_with("0");   // andi -> always 0: taken
    const CoreStats random = run_with("1");   // 50/50
    EXPECT_GT(random.branchMispredicts, biased.branchMispredicts + 500);
    EXPECT_GT(random.cycles, biased.cycles);
    EXPECT_GT(random.avgMispredResolveLat(), 5.0);
}

TEST(CorePipeline, RobAndRsLimitsRespected)
{
    Program &p = keep(assembleTextOrDie(R"(
        addqi t9, zero, 3000
loop:   mulq t1, t9, t9
        mulq t2, t1, t9
        subqi t9, t9, 1
        bne t9, loop
        halt
    )",
                                        "lim"));
    CoreParams cp = baselineParams();
    cp.robSize = 16;
    cp.rsSize = 4;
    Core c(p, cp);
    c.run();
    EXPECT_TRUE(c.halted());
    EXPECT_LE(c.stats().robOccupancySum / c.stats().cycles, 16u);
    EXPECT_LE(c.stats().rsOccupancySum / c.stats().cycles, 4u);
}

TEST(CorePipeline, ReducedConfigsStillCorrect)
{
    const char *src = R"(
        addqi t9, zero, 300
        addqi s1, zero, 0
loop:   mulqi t1, t9, 17
        stq t1, 0(gp)
        ldq t2, 0(gp)
        addq s1, s1, t2
        subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
    )";
    expectMatchesEmulator(src, reducedRsParams(baselineParams()));
    expectMatchesEmulator(src, reducedIssueParams(baselineParams()));
    expectMatchesEmulator(
        src, reducedRsParams(reducedIssueParams(baselineParams())));
}

TEST(CorePipeline, ChtLearnsCollisions)
{
    // Same directed violation program as above; after training, the
    // violation count must stop growing linearly (the CHT stalls the
    // load instead).
    Program &p = keep(assembleTextOrDie(R"(
        .data
cell:   .quad 1
        .text
        addqi t5, zero, 200
        addqi s1, zero, 0
        addqi t4, zero, cell
loop:   mulqi t0, t5, 3
        andi t0, t0, 0
        addq t0, t0, t4
        stq t5, 0(t0)
        ldq t1, cell(zero)
        addq s1, s1, t1
        subqi t5, t5, 1
        bne t5, loop
        halt
    )",
                                        "cht"));
    Core c(p, baselineParams());
    c.run();
    EXPECT_TRUE(c.halted());
    EXPECT_GT(c.stats().memOrderViolations, 0u);
    // 200 iterations but far fewer violations: the predictor kicked in.
    EXPECT_LT(c.stats().memOrderViolations, 50u);
}

TEST(CorePipeline, WatchdogFiresOnLivelock)
{
    // A program that never halts within the cycle limit simply stops at
    // the limit (the watchdog only fires on zero retirement progress,
    // which correct programs never exhibit).
    Program &p = keep(assembleTextOrDie(R"(
loop:   addqi t0, t0, 1
        br loop
    )",
                                        "inf"));
    Core c(p, baselineParams());
    c.run(~u64(0), 20000);
    EXPECT_FALSE(c.halted());
    EXPECT_GT(c.stats().retired, 1000u);
}

// ---- DynInst pool / handle machinery ----

TEST(DynInstPool, ExhaustionGrowsAndRecycles)
{
    DynInstPool pool(8); // one pre-sized slab's worth
    const size_t cap0 = pool.capacity();
    std::vector<InstHandle> held;
    // Exhaust the initial capacity and keep going: the pool must grow
    // by whole slabs rather than fail.
    for (size_t i = 0; i < cap0 + 3 * DynInstPool::slabInsts; ++i) {
        const InstHandle h = pool.alloc();
        pool.get(h).seq = InstSeqNum(i + 1);
        held.push_back(h);
    }
    EXPECT_GT(pool.capacity(), cap0);
    EXPECT_EQ(pool.inUse(), held.size());
    // All handles are distinct live records.
    for (size_t i = 0; i < held.size(); ++i)
        EXPECT_EQ(pool.get(held[i]).seq, InstSeqNum(i + 1));

    // Release everything; re-allocation recycles without growth.
    const size_t cap1 = pool.capacity();
    for (InstHandle h : held)
        pool.release(h);
    EXPECT_EQ(pool.inUse(), 0u);
    for (size_t i = 0; i < cap1; ++i) {
        const InstHandle h = pool.alloc();
        // Recycled records come back fully reset.
        EXPECT_EQ(pool.get(h).seq, 0u);
        EXPECT_FALSE(pool.get(h).renamed);
        EXPECT_EQ(pool.get(h).pdest, invalidPhysReg);
        EXPECT_EQ(pool.get(h).selfHandle, h);
    }
    EXPECT_EQ(pool.capacity(), cap1); // no growth needed
}

TEST(DynInstPool, ReleaseInvalidatesStaleRefs)
{
    DynInstPool pool(4);
    const InstHandle h = pool.alloc();
    pool.get(h).seq = 42;
    // A (handle, seq) pair held by an event queue validates while the
    // record is live...
    EXPECT_EQ(pool.get(h).seq, 42u);
    pool.release(h);
    // ...and must fail validation immediately after release, before
    // the slot is ever reused (squash correctness depends on this).
    EXPECT_NE(pool.get(h).seq, 42u);
}

TEST(DynInstPool, HandleStabilityAcrossGrowth)
{
    // Growing the pool appends slabs; records reachable through old
    // handles must not move (raw pointers stay valid).
    DynInstPool pool(1);
    const InstHandle h = pool.alloc();
    DynInst *before = &pool.get(h);
    before->pc = 1234;
    std::vector<InstHandle> more;
    for (unsigned i = 0; i < 5 * DynInstPool::slabInsts; ++i)
        more.push_back(pool.alloc());
    EXPECT_EQ(&pool.get(h), before);
    EXPECT_EQ(pool.get(h).pc, 1234u);
}

TEST(CorePipeline, PoolStableAcrossHeavySquashing)
{
    // A branchy, misprediction-heavy program at a tiny ROB: every
    // squash releases and recycles pool records; architectural results
    // must still match the emulator exactly (handle-validation bugs
    // show up as DIVA panics or wrong outputs here).
    CoreParams cp = baselineParams();
    cp.robSize = 12;
    cp.rsSize = 6;
    cp.fetchQueueSize = 4;
    expectMatchesEmulator(R"(
        addqi t9, zero, 1500
        addqi t0, zero, 0x9e3779b9
        addqi s1, zero, 0
loop:   mulqi t0, t0, 25214903
        addqi t0, t0, 11
        srli t1, t0, 13
        andi t1, t1, 1
        beq t1, skip
        addqi s1, s1, 3
        br join
skip:   subqi s1, s1, 1
join:   subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
    )",
                          cp);
}

// ---- issue scheduler: exact statistics ----
//
// Each case runs a directed program through the scheduler's corner
// geometry and pins the result, field for field, to the CoreStats the
// age-ordered RS-list scheduler produced for it: a handful of named
// counters plus an FNV-1a digest over every CoreStats field. The
// architectural result is checked against the emulator as well.

namespace
{

std::string
schedSummary(const CoreStats &s)
{
    u64 digest = 1469598103934665603ull;
    CoreStats copy = s;
    CoreStats::zip(copy, s, [&](u64 &field, const u64 &) {
        digest = (digest ^ field) * 1099511628211ull;
    });
    return strfmt("cycles=%" PRIu64 " retired=%" PRIu64 " issued=%" PRIu64
                  " squashed=%" PRIu64 " memorder=%" PRIu64
                  " rsocc=%" PRIu64 " digest=%016" PRIx64,
                  s.cycles, s.retired, s.issued, s.squashedInsts,
                  s.memOrderViolations, s.rsOccupancySum, digest);
}

CoreStats
runSched(const char *src, const CoreParams &cp)
{
    Program &p = keep(assembleTextOrDie(src, "sched"));
    EXPECT_EQ(verifyAgainstEmulator(p, cp, 2'000'000, 20'000'000), "");
    Core c(p, cp);
    c.run();
    EXPECT_TRUE(c.halted());
    return c.stats();
}

CoreParams
withRob(unsigned rob_size)
{
    CoreParams cp = baselineParams();
    cp.robSize = rob_size;
    return cp;
}

// Cold strided loads keep the ROB full behind a miss while independent
// work, a store and a forwarded load complete around it: ready bits
// are scattered over the whole ring, and the head crosses every
// 64-slot word boundary and wraps hundreds of times.
const char *windowProgram = R"(
        addqi t9, zero, 300
        addqi s1, zero, 0
        mv t4, gp
loop:   ldq t1, 0(t4)
        addq s1, s1, t1
        mulqi t2, t9, 7
        addqi t3, t2, 5
        stq t3, 8(t4)
        ldq t5, 8(t4)
        addq s1, s1, t5
        addqi t4, t4, 256
        subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
)";

// The add reads a multiply (src1, a few cycles) and a cold load (src2,
// a memory round trip): it parks on src1, is woken, and re-parks on
// src2 until the miss returns.
const char *secondOperandProgram = R"(
        addqi t9, zero, 100
        addqi s1, zero, 0
        mv t4, gp
loop:   mulqi t1, t9, 3
        ldq t2, 0(t4)
        addq t3, t1, t2
        addq s1, s1, t3
        addqi t4, t4, 512
        subqi t9, t9, 1
        bne t9, loop
        syscall 1, s1
        halt
)";

// The store's address arrives late and hits the load's cell only in
// the last iteration (so the CHT is still untrained and the i-cache
// warm); the younger load has already issued speculatively. The two
// adds after the load read the same late register as the store, so
// all three become ready in one writeback and are selected in one
// cycle: the store issues first (oldest), detects the violation and
// squashes from the load, and the adds' ready bits must be gone
// before select reaches them.
const char *violationProgram = R"(
        .data
cell:   .space 512
        .text
        addqi t5, zero, 40
        addqi s1, zero, 0
        addqi t4, zero, cell
loop:   mulqi t0, t5, 8
        subqi t0, t0, 8
        addq t0, t0, t4
        stq t5, 0(t0)
        ldq t1, cell(zero)
        addq t6, t0, t5
        addq t7, t0, t0
        addq s1, s1, t1
        addq s1, s1, t6
        subqi t5, t5, 1
        bne t5, loop
        syscall 1, s1
        halt
)";

} // namespace

TEST(Scheduler, RobSize32)
{
    EXPECT_EQ(schedSummary(runSched(windowProgram, withRob(32))),
              "cycles=8452 retired=3005 issued=3009 squashed=44"
              " memorder=1 rsocc=69051 digest=61ccc9c233bb28e5");
}

TEST(Scheduler, RobSize48)
{
    EXPECT_EQ(schedSummary(runSched(windowProgram, withRob(48))),
              "cycles=6644 retired=3005 issued=3010 squashed=50"
              " memorder=1 rsocc=74295 digest=2932c59f140a720c");
}

TEST(Scheduler, RobSize256WrapsAcrossWords)
{
    const CoreStats s = runSched(windowProgram, withRob(256));
    EXPECT_GT(s.retired, 8u * 256); // the ring wrapped many times
    EXPECT_EQ(schedSummary(s),
              "cycles=2780 retired=3005 issued=3010 squashed=50"
              " memorder=1 rsocc=95565 digest=21c1ce1850c0c7d4");
}

TEST(Scheduler, WakeOnSecondOperandAfterParkingOnFirst)
{
    EXPECT_EQ(schedSummary(runSched(secondOperandProgram, baselineParams())),
              "cycles=1128 retired=705 issued=704 squashed=19"
              " memorder=0 rsocc=31136 digest=db99a5a65eafd044");
}

TEST(Scheduler, StoreViolationSquashDuringIssueClearsYoungerReadyBits)
{
    const CoreStats s = runSched(violationProgram, baselineParams());
    EXPECT_GT(s.memOrderViolations, 0u);
    EXPECT_EQ(schedSummary(s),
              "cycles=471 retired=445 issued=450 squashed=63"
              " memorder=1 rsocc=4552 digest=c7e35255f1284a84");
}

TEST(Scheduler, ZeroScheduleAndRegReadStages)
{
    CoreParams cp = baselineParams();
    cp.schedStages = 0;
    cp.regReadStages = 0;
    EXPECT_EQ(schedSummary(runSched(windowProgram, cp)),
              "cycles=3014 retired=3005 issued=3010 squashed=40"
              " memorder=1 rsocc=72854 digest=db5b7eac8bd61a74");
    EXPECT_EQ(schedSummary(runSched(secondOperandProgram, cp)),
              "cycles=1125 retired=705 issued=705 squashed=19"
              " memorder=0 rsocc=29754 digest=cdf8d9b601b162f6");
    EXPECT_EQ(schedSummary(runSched(violationProgram, cp)),
              "cycles=462 retired=445 issued=450 squashed=47"
              " memorder=1 rsocc=3122 digest=f35c99460531a89c");
}

TEST(Scheduler, SmallRsAndSharedLoadStorePort)
{
    CoreParams cp = withRob(48);
    cp.rsSize = 8;
    EXPECT_EQ(schedSummary(runSched(windowProgram, cp)),
              "cycles=8597 retired=3005 issued=3007 squashed=42"
              " memorder=1 rsocc=66405 digest=8e0ba76c4c6b2a35");
    cp.sharedLoadStorePort = true;
    EXPECT_EQ(schedSummary(runSched(violationProgram, cp)),
              "cycles=617 retired=445 issued=446 squashed=47"
              " memorder=1 rsocc=2669 digest=7bf5f8cf18fe4c00");
}
