#include "core/integration_table.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

namespace
{

constexpr u64 laneValidBit = u64(1) << 63;

/** Bit layout of the packed input-compare word. */
constexpr unsigned in2Shift = 16;
constexpr unsigned gen1Shift = 32;
constexpr unsigned gen2Shift = 40;
constexpr unsigned has1Shift = 48;
constexpr unsigned has2Shift = 49;
constexpr u64 genBits = (u64(0xff) << gen1Shift) | (u64(0xff) << gen2Shift);

} // namespace

IntegrationTable::IntegrationTable(const IntegrationParams &p)
{
    reset(p);
}

void
IntegrationTable::reset(const IntegrationParams &p)
{
    params = p;
    if (p.itEntries == 0 || !isPow2(p.itEntries))
        rix_fatal("IT entries must be a power of two (%u)", p.itEntries);
    assoc = p.itAssoc >= p.itEntries ? p.itEntries : p.itAssoc;
    sets = p.itEntries / assoc;
    if (!isPow2(sets))
        rix_fatal("IT sets must be a power of two (entries %u / assoc %u)",
                  p.itEntries, p.itAssoc);
    pcTagged = !modeHasOpcodeIndex(params.mode);
    inputGenMask = params.useGenCounters ? ~u64(0) : ~genBits;

    const size_t n = size_t(sets) * assoc;
    table.assign(n, ITEntry{});
    tagLane.assign(n, 0);
    pcLane.assign(n, 0);
    inputLane.assign(n, 0);
    lruLane.assign(n, 0);
    lruClock = 0;
    nextId = 1;
    nLookups = nHits = nInserts = nReplacements = 0;
}

u32
IntegrationTable::index(const ITKey &key) const
{
    if (sets == 1)
        return 0;
    if (pcTagged) {
        // PC indexing: the PC distributes entries evenly by itself.
        return u32(key.pc) & (sets - 1);
    }
    // Opcode indexing: structured mix of opcode, immediate and call
    // depth (section 2.3). Immediates are folded at byte granularity as
    // well as raw so that the dense 0/8/16... stack-frame offsets spread
    // over more than a handful of sets; the call depth is scaled so
    // adjacent depths land in different regions of the table.
    u64 ix = u64(key.op) * 0x9e37u;
    ix ^= u64(u32(key.imm));
    ix ^= u64(u32(key.imm)) >> 3;
    if (params.useCallDepthIndex)
        ix ^= u64(key.callDepth) * 0x85ebu;
    return u32(ix) & (sets - 1);
}

u64
IntegrationTable::packInputs(bool h1, bool h2, PhysReg in1, PhysReg in2,
                             u8 g1, u8 g2) const
{
    // Canonical: operand fields contribute only when present, so the
    // packed compare reproduces the original field-by-field semantics
    // (absent operands match regardless of their register values).
    u64 w = (u64(h1) << has1Shift) | (u64(h2) << has2Shift);
    if (h1)
        w |= u64(in1) | (u64(g1) << gen1Shift);
    if (h2)
        w |= (u64(in2) << in2Shift) | (u64(g2) << gen2Shift);
    return w & inputGenMask;
}

IntegrationTable::Probe
IntegrationTable::makeProbe(const ITKey &key) const
{
    Probe pr;
    pr.set = index(key);
    pr.tag = laneValidBit | (u64(u8(key.op)) << 32) | u64(u32(key.imm));
    pr.input = packInputs(key.hasIn1, key.hasIn2, key.in1, key.in2,
                          key.gen1, key.gen2);
    return pr;
}

void
IntegrationTable::writeLanes(size_t idx, const ITEntry &e)
{
    tagLane[idx] = e.valid ? laneValidBit | (u64(u8(e.op)) << 32) |
                                 u64(u32(e.imm))
                           : 0;
    pcLane[idx] = e.pcTag;
    inputLane[idx] = packInputs(e.hasIn1, e.hasIn2, e.in1, e.in2, e.gen1,
                                e.gen2);
}

ITEntry *
IntegrationTable::lookup(const ITKey &key, ITHandle *handle)
{
    ++nLookups;
    const Probe pr = makeProbe(key);
    const size_t base = size_t(pr.set) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        const size_t i = base + w;
        if (tagLane[i] != pr.tag || inputLane[i] != pr.input)
            continue;
        if (pcTagged && pcLane[i] != key.pc)
            continue;
        // Hit: only now touch the payload row.
        ITEntry &e = table[i];
        lruLane[i] = ++lruClock;
        ++nHits;
        if (handle)
            *handle = ITHandle{e.id, pr.set, u16(w), true};
        return &e;
    }
    return nullptr;
}

ITHandle
IntegrationTable::insert(const ITKey &key, bool has_out, PhysReg out,
                         u8 out_gen, bool reverse, bool is_branch,
                         u64 create_seq)
{
    ++nInserts;
    const Probe pr = makeProbe(key);
    const size_t base = size_t(pr.set) * assoc;

    // Prefer overwriting an exact duplicate, then an invalid way, then
    // the LRU victim.
    unsigned victim = 0;
    bool found = false;
    for (unsigned w = 0; w < assoc && !found; ++w) {
        const size_t i = base + w;
        if (tagLane[i] == pr.tag && inputLane[i] == pr.input &&
            (!pcTagged || pcLane[i] == key.pc)) {
            victim = w;
            found = true;
        }
    }
    if (!found) {
        for (unsigned w = 0; w < assoc && !found; ++w) {
            if (tagLane[base + w] == 0) {
                victim = w;
                found = true;
            }
        }
    }
    if (!found) {
        u64 best = ~u64(0);
        for (unsigned w = 0; w < assoc; ++w) {
            if (lruLane[base + w] < best) {
                best = lruLane[base + w];
                victim = w;
            }
        }
        ++nReplacements;
    }

    ITEntry &e = table[base + victim];
    e.valid = true;
    e.reverse = reverse;
    e.op = key.op;
    e.imm = key.imm;
    e.pcTag = key.pc;
    e.hasIn1 = key.hasIn1;
    e.hasIn2 = key.hasIn2;
    e.in1 = key.in1;
    e.in2 = key.in2;
    e.gen1 = key.gen1;
    e.gen2 = key.gen2;
    e.hasOut = has_out;
    e.out = out;
    e.outGen = out_gen;
    e.isBranch = is_branch;
    e.outcomeValid = false;
    e.taken = false;
    e.id = nextId++;
    e.createSeq = create_seq;
    lruLane[base + victim] = ++lruClock;
    writeLanes(base + victim, e);

    return ITHandle{e.id, pr.set, u16(victim), true};
}

ITEntry *
IntegrationTable::at(const ITHandle &h)
{
    if (!h.valid)
        return nullptr;
    ITEntry &e = table[size_t(h.set) * assoc + h.way];
    return (e.valid && e.id == h.id) ? &e : nullptr;
}

void
IntegrationTable::fillBranchOutcome(const ITHandle &h, bool taken)
{
    if (ITEntry *e = at(h)) {
        if (e->isBranch) {
            e->outcomeValid = true;
            e->taken = taken;
        }
    }
}

void
IntegrationTable::invalidate(const ITHandle &h)
{
    if (ITEntry *e = at(h)) {
        e->valid = false;
        tagLane[size_t(h.set) * assoc + h.way] = 0;
    }
}

void
IntegrationTable::invalidateAll()
{
    for (auto &e : table)
        e.valid = false;
    tagLane.assign(tagLane.size(), 0);
}

} // namespace rix
