/**
 * @file
 * Fault-injection self-test of the differential-verification
 * subsystem: under cmake -DRIX_FAULT_INJECT=ON the execute stage
 * deliberately flips one bit of every ADDQ result, and this suite
 * proves the subsystem can actually fail — the lockstep checker
 * catches the bug at the exact architectural instruction, `rix fuzz`
 * finds it, and the minimizer shrinks the failing program to a
 * handful of instructions with a replayable reproducer.
 *
 * In a normal build the same suite asserts the *absence* of all of
 * that: the handcrafted program and a small fuzz campaign run clean.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "assembler/builder.hh"
#include "cpu/core.hh"
#include "sim/fuzz.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace rix;

namespace
{

/** li, li, addq (arch index 2), dependent addq, emit, halt. */
Program
addqProgram()
{
    Builder b("addq_probe");
    b.li(1, 5);
    b.li(2, 7);
    b.addq(3, 1, 2);
    b.addq(4, 3, 2);
    b.syscall(s32(SyscallCode::Emit), 4);
    b.halt();
    return b.finish();
}

CoreParams
lockstepParams()
{
    CoreParams p = integrationParams(IntegrationMode::Reverse);
    p.check.lockstep = true;
    return p;
}

} // namespace

TEST(FaultInjection, LockstepCatchesTheFaultAtTheExactInstruction)
{
    const Program p = addqProgram();
    Core core(p, lockstepParams());
    core.run(1000, 10'000);

    if (!buildHasInjectedFault()) {
        EXPECT_TRUE(core.halted());
        EXPECT_EQ(core.divergence(), nullptr);
        EXPECT_EQ(core.golden().reg(LogReg(3)), 12u);
        return;
    }

    // The first ADDQ is architectural instruction 2 (after the two
    // load-immediates); the checker must stop exactly there.
    EXPECT_FALSE(core.halted());
    const DivergenceReport *d = core.divergence();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->kind, "value");
    EXPECT_EQ(d->icount, 2u);
    EXPECT_EQ(d->pc, core.golden().pc());
    EXPECT_NE(d->disasm.find("addq"), std::string::npos) << d->disasm;
    EXPECT_NE(d->reason.find("destination value"), std::string::npos)
        << d->reason;
    // Both architectural states are part of the report.
    EXPECT_NE(d->goldenState.find("r3"), std::string::npos);
    EXPECT_NE(d->shadowState.find("r3"), std::string::npos);
}

TEST(FaultInjection, WithoutLockstepTheFaultStillPanics)
{
    if (!buildHasInjectedFault())
        GTEST_SKIP() << "normal build: nothing to panic about";
    const Program p = addqProgram();
    CoreParams params = integrationParams(IntegrationMode::Reverse);
    EXPECT_DEATH(
        {
            Core core(p, params);
            core.run(1000, 10'000);
        },
        "DIVA mismatch");
}

TEST(FaultInjection, StrictSweepDiesWithTheFullDivergenceReport)
{
    if (!buildHasInjectedFault())
        GTEST_SKIP() << "normal build: nothing diverges";
    SimJob job;
    job.workload = "gzip";
    job.params = lockstepParams();
    FaultPolicy strict;
    strict.strict = true;
    // Not just the one-line status: the lockstep report's disassembly
    // and architectural states survive into the fatal message.
    EXPECT_DEATH(SweepRunner(1).run({job}, strict),
                 "strict: job 0 \\(gzip\\) failed: divergence.*"
                 "inst: +addq.*golden \\(committed\\) architectural "
                 "state.*shadow emulator architectural state");
}

TEST(FaultInjection, FuzzFindsMinimizesAndWritesReproducer)
{
    FuzzOptions opts;
    opts.seeds = 5;
    // Small programs keep both the campaign and the shrink fast.
    opts.prog.itersMin = 20;
    opts.prog.itersMax = 40;
    opts.prog.bodyOpsMin = 8;
    opts.prog.bodyOpsMax = 16;
    opts.reproPath = ::testing::TempDir() + "fuzz_repro_fault.txt";
    remove(opts.reproPath.c_str());

    const FuzzResult res = runFuzz(opts);

    if (!buildHasInjectedFault()) {
        EXPECT_FALSE(res.failed);
        return;
    }

    ASSERT_TRUE(res.failed);
    const FuzzFailure &f = res.failure;
    EXPECT_TRUE(f.report.diverged);

    // The acceptance bar: the shrinker gets a random failing program
    // down to a trivially-readable core.
    EXPECT_LE(f.liveInsts, 25u);
    EXPECT_GT(f.liveInsts, 0u);
    EXPECT_GT(f.minimizeRuns, 0u);

    // The reproducer file exists and names the essentials.
    ASSERT_EQ(res.reproFile, opts.reproPath);
    FILE *file = fopen(res.reproFile.c_str(), "r");
    ASSERT_NE(file, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, n);
    fclose(file);
    EXPECT_NE(text.find("# seed:"), std::string::npos);
    EXPECT_NE(text.find("# config:"), std::string::npos);
    EXPECT_NE(text.find("lockstep divergence"), std::string::npos);
    EXPECT_NE(text.find("# replay:"), std::string::npos);
    remove(res.reproFile.c_str());

    // Replayability: the recorded (seed, config) alone reproduces the
    // divergence.
    FuzzOptions replay = opts;
    replay.seeds = 1;
    replay.firstSeed = f.seed;
    replay.onlyConfig = f.configLabel;
    replay.minimize = false;
    replay.reproPath = ::testing::TempDir() + "fuzz_repro_replay.txt";
    const FuzzResult again = runFuzz(replay);
    ASSERT_TRUE(again.failed);
    EXPECT_EQ(again.failure.seed, f.seed);
    EXPECT_EQ(again.failure.configLabel, f.configLabel);
    EXPECT_EQ(again.failure.report.icount, f.report.icount);
    remove(replay.reproPath.c_str());

    // The minimized program still fails on its own.
    CoreParams params = fuzzPanel("", f.configLabel)[0].params;
    Core core(f.minimized, params);
    core.run(10'000'000, 50'000'000);
    EXPECT_NE(core.divergence(), nullptr);
}
