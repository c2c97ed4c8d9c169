/**
 * @file
 * The Integration Table (IT).
 *
 * Stores <operation, input-preg/gen pair(s), output-preg/gen> tuples of
 * recently renamed instructions. A renaming instruction whose operation
 * and (current-map) input physical registers match an entry may
 * integrate the entry's output register instead of executing.
 *
 * Two indexing disciplines (paper section 2.3):
 *  - PC indexing (squash/general reuse): the set index and tag are the
 *    instruction's PC;
 *  - opcode indexing: the set index is a structured mix of opcode,
 *    immediate and dynamic call depth; the tag is the minimal
 *    opcode/immediate pair, so different static instructions can
 *    integrate one another's results.
 *
 * Reverse entries (section 2.4) are stored in the same unified table;
 * they are written under the *inverse* operation's key so that the
 * future inverse instruction's ordinary lookup finds them.
 *
 * Conditional branches have no output register; their entries carry the
 * branch outcome instead, filled in when the creating branch executes
 * (handles are id-checked so a reallocated entry is never corrupted).
 */

#ifndef RIX_CORE_INTEGRATION_TABLE_HH
#define RIX_CORE_INTEGRATION_TABLE_HH

#include <vector>

#include "base/stats.hh"
#include "core/params.hh"
#include "isa/opcode.hh"

namespace rix
{

struct ITEntry
{
    bool valid = false;
    bool reverse = false;   // created as a reverse entry

    // Operation identity (tag).
    Opcode op = Opcode::NOP;
    s32 imm = 0;
    u64 pcTag = 0;          // participates in the tag under PC indexing

    // Input operands as physical registers + generations.
    bool hasIn1 = false, hasIn2 = false;
    PhysReg in1 = invalidPhysReg, in2 = invalidPhysReg;
    u8 gen1 = 0, gen2 = 0;

    // Output physical register (absent for branch entries).
    bool hasOut = false;
    PhysReg out = invalidPhysReg;
    u8 outGen = 0;

    // Branch outcome payload.
    bool isBranch = false;
    bool outcomeValid = false;
    bool taken = false;

    u64 id = 0;         // unique, for outcome-fill handles
    u64 createSeq = 0;  // rename-stream position of the creator
};

/** Stable reference to an entry, validated by id on use. Packed to 16
 *  bytes: two of these ride in every in-flight instruction record. */
struct ITHandle
{
    u64 id = 0;
    u32 set = 0;
    u16 way = 0;
    bool valid = false;
    // Pipelined-IT support: the entry is still in the write-stage
    // buffer; `id` then names the pending record instead.
    bool isPending = false;
};

/** Everything a lookup needs to identify a match. */
struct ITKey
{
    Opcode op = Opcode::NOP;
    s32 imm = 0;
    u64 pc = 0;
    unsigned callDepth = 0;
    bool hasIn1 = false, hasIn2 = false;
    PhysReg in1 = invalidPhysReg, in2 = invalidPhysReg;
    u8 gen1 = 0, gen2 = 0;
};

class IntegrationTable
{
  public:
    explicit IntegrationTable(const IntegrationParams &params);

    /**
     * Reconfigure to @p params and return to the power-on state.
     * Reuses the probe lanes and payload array when the geometry is
     * unchanged (the long-lived-context reuse path of the sweep
     * engine).
     */
    void reset(const IntegrationParams &params);

    /**
     * Find an entry whose operation tag and inputs match @p key.
     * Updates LRU on hit. Returns nullptr on miss. The caller still
     * has to test output-register eligibility against the reference
     * vector.
     */
    ITEntry *lookup(const ITKey &key, ITHandle *handle = nullptr);

    /**
     * Insert an entry built from @p key with the given output register.
     * An exact tag+input duplicate is overwritten in place; otherwise
     * the set's LRU victim is replaced.
     */
    ITHandle insert(const ITKey &key, bool has_out, PhysReg out, u8 out_gen,
                    bool reverse, bool is_branch, u64 create_seq);

    /** Record the outcome of the branch that created @p h, if it still
     *  owns the entry. */
    void fillBranchOutcome(const ITHandle &h, bool taken);

    /** Entry behind a handle, or nullptr if reallocated since. */
    ITEntry *at(const ITHandle &h);

    /** Invalidate the entry behind @p h (mis-integration response). */
    void invalidate(const ITHandle &h);

    /** Invalidate every entry (used on mis-integration storms/tests). */
    void invalidateAll();

    unsigned numSets() const { return sets; }
    unsigned associativity() const { return assoc; }

    /** Set index for the given key (exposed for distribution tests). */
    u32 index(const ITKey &key) const;

    u64 lookups() const { return nLookups; }
    u64 hits() const { return nHits; }
    u64 inserts() const { return nInserts; }
    u64 replacements() const { return nReplacements; }

  private:
    /**
     * Everything one probe needs, computed once per key: the set index
     * mix plus the packed tag/input compare words. Shared by lookup()
     * and insert() so the mix is never recomputed for the same key.
     */
    struct Probe
    {
        u32 set;
        u64 tag;   // valid bit | opcode | immediate
        u64 input; // canonical in1/in2/gen1/gen2/has-flag pack
    };

    Probe makeProbe(const ITKey &key) const;
    u64 packInputs(bool h1, bool h2, PhysReg in1, PhysReg in2, u8 g1,
                   u8 g2) const;
    void writeLanes(size_t idx, const ITEntry &e);

    IntegrationParams params;
    unsigned sets;
    unsigned assoc;
    bool pcTagged;     // PC participates in the tag (PC indexing)
    u64 inputGenMask;  // strips gen bits when gen counters are off

    /**
     * Probe lanes in structure-of-arrays form, row-major sets x assoc.
     * lookup() scans only the three compact compare lanes; the fat
     * payload row in `table` is touched on a hit and on insert. The
     * insert victim scan reads only lruLane (the LRU stamp, bumped on
     * lookup hit and on insert). tagLane is 0 for an invalid way: a
     * key word always carries the valid bit, so one compare covers
     * validity and operation tag.
     */
    std::vector<u64> tagLane;
    std::vector<u64> pcLane;
    std::vector<u64> inputLane;
    std::vector<u64> lruLane;

    std::vector<ITEntry> table; // sets x assoc, row-major (payload)
    u64 lruClock = 0;
    u64 nextId = 1;
    u64 nLookups = 0, nHits = 0, nInserts = 0, nReplacements = 0;
};

} // namespace rix

#endif // RIX_CORE_INTEGRATION_TABLE_HH
