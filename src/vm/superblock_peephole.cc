/**
 * @file
 * Peephole passes over a superblock's linear uop buffer, run between
 * 1:1 lowering and installation (the translate-then-optimize shape).
 *
 * Soundness rules shared by every pass:
 *  - never merge a uop that is an intra-trace jump target into its
 *    predecessor (control can enter at it from a back edge);
 *  - fuse only program-adjacent uops, so no register can change
 *    between the components of a group;
 *  - never drop a bound check: a fused group runs every check it
 *    covers. Redundant checks are removed once, by the toolchain
 *    before the binary is verified (eliminate_redundant_guards);
 *  - fusion never touches simulated time: a group charges the sum of
 *    its components, and one that faults part-way charges only the
 *    components that ran.
 */
#include "vm/superblock.h"

namespace occlum::vm::peephole {

void
fuse_bound_pairs(std::vector<Uop> &uops,
                 const std::vector<uint8_t> &is_target, uint32_t *folded)
{
    for (size_t i = 0; i + 1 < uops.size(); ++i) {
        Uop &a = uops[i];
        if ((a.kind != UopKind::kBndChkMem &&
             a.kind != UopKind::kBndChkReg) ||
            a.mask != 1) {
            continue; // head must be an unfused lower check
        }
        if (is_target[i + 1]) {
            continue; // the upper check is independently reachable
        }
        Uop &b = uops[i + 1];
        if (b.kind != a.kind || b.mask != 2 || b.bnd != a.bnd) {
            continue;
        }
        if (a.kind == UopKind::kBndChkMem) {
            if (b.ea != a.ea || b.base != a.base || b.index != a.index ||
                b.scale != a.scale || b.disp != a.disp) {
                continue;
            }
        } else if (b.reg1 != a.reg1) {
            continue;
        }
        // One EA computation, one charge, one dispatch for the pair.
        a.mask = 3;
        a.cost_head = a.cost;
        a.cost += b.cost;
        a.n_instrs = static_cast<uint8_t>(a.n_instrs + b.n_instrs);
        a.address2 = b.address;
        a.next_rip = b.next_rip;
        b.kind = UopKind::kDead;
        ++*folded;
    }
}

namespace {

/**
 * Index of the next live uop after `i`, skipping kDead slots left by
 * earlier merges — provided control cannot enter sideways: every
 * skipped slot and the returned one must not be a branch target.
 * Earlier passes merge into the *earlier* slot, so a dead slot
 * between two live uops covers no instructions and fusing across it
 * is exactly fusing program-adjacent uops (callers double-check with
 * the next_rip/address contiguity test). SIZE_MAX when nothing fuses.
 */
size_t
next_live(const std::vector<Uop> &uops,
          const std::vector<uint8_t> &is_target, size_t i)
{
    for (size_t j = i + 1; j < uops.size(); ++j) {
        if (is_target[j]) {
            return SIZE_MAX;
        }
        if (uops[j].kind != UopKind::kDead) {
            return j;
        }
    }
    return SIZE_MAX;
}

} // namespace

void
fuse_bound_accesses(std::vector<Uop> &uops,
                    const std::vector<uint8_t> &is_target,
                    uint32_t *folded)
{
    for (size_t i = 0; i + 1 < uops.size(); ++i) {
        Uop &chk = uops[i];
        // kCharge heads fuse too (mask 0 = no checks): a nop or label
        // run in front of an access is pure dispatch cost, and
        // budget segments count whole uops, so multi-instruction
        // groups are already covered.
        bool is_check = chk.kind == UopKind::kBndChkMem;
        if (!is_check && chk.kind != UopKind::kCharge) {
            continue;
        }
        // A fused bndcl+bndcu pair leaves a dead slot between the
        // check and the access it guards; skip over merge tombstones.
        size_t j = next_live(uops, is_target, i);
        if (j == SIZE_MAX || chk.next_rip != uops[j].address) {
            continue;
        }
        Uop &acc = uops[j];
        if (acc.kind != UopKind::kLoad && acc.kind != UopKind::kStore) {
            continue;
        }
        if (is_check &&
            (acc.ea != chk.ea || acc.base != chk.base ||
             acc.index != chk.index || acc.scale != chk.scale ||
             acc.disp != chk.disp)) {
            continue; // the check guards a different address
        }
        if (chk.n_instrs + acc.n_instrs > 255) {
            continue;
        }
        // Fold the access into the head's slot (the head may be a
        // branch target; the access is not). A check's charge tiers
        // ride along: cost_head for a lo fail (single checks charge
        // their own cost), `target` for the whole check portion.
        if (is_check) {
            chk.cost_head = chk.mask == 3 ? chk.cost_head : chk.cost;
            chk.target = static_cast<int16_t>(chk.cost);
            ++*folded;
        } else {
            chk.mask = 0; // no checks, charge-then-access only
            chk.ea = acc.ea;
            chk.base = acc.base;
            chk.index = acc.index;
            chk.scale = acc.scale;
            chk.disp = acc.disp;
        }
        chk.kind = acc.kind == UopKind::kLoad ? UopKind::kLoadChk
                                              : UopKind::kStoreChk;
        chk.reg1 = acc.reg1;
        chk.size = acc.size;
        chk.exit_rip = acc.address; // the access's own fault rip
        chk.cost += acc.cost;
        chk.n_instrs = static_cast<uint8_t>(chk.n_instrs + acc.n_instrs);
        chk.next_rip = acc.next_rip;
        acc.kind = UopKind::kDead;
        i = j;
    }
}

void
fuse_compare_branches(std::vector<Uop> &uops,
                      const std::vector<uint8_t> &is_target)
{
    for (size_t i = 0; i + 1 < uops.size(); ++i) {
        Uop &a = uops[i];
        if (a.kind != UopKind::kCmpRI && a.kind != UopKind::kCmpRR) {
            continue;
        }
        size_t j = next_live(uops, is_target, i);
        if (j == SIZE_MAX || a.next_rip != uops[j].address) {
            continue;
        }
        Uop &b = uops[j];
        bool to_goto = b.kind == UopKind::kJccGoto;
        if (!to_goto && b.kind != UopKind::kJccExit) {
            continue;
        }
        if (a.kind == UopKind::kCmpRI) {
            a.kind = to_goto ? UopKind::kCmpRIJccGoto
                             : UopKind::kCmpRIJccExit;
        } else {
            a.kind = to_goto ? UopKind::kCmpRRJccGoto
                             : UopKind::kCmpRRJccExit;
        }
        a.cond = b.cond;
        a.target = b.target;
        a.exit_rip = b.exit_rip;
        a.cost_head = a.cost;
        a.cost += b.cost;
        a.n_instrs = static_cast<uint8_t>(a.n_instrs + b.n_instrs);
        a.address2 = b.address;
        a.next_rip = b.next_rip;
        b.kind = UopKind::kDead;
    }
}

void
collapse_charge_runs(std::vector<Uop> &uops,
                     const std::vector<uint8_t> &is_target)
{
    size_t i = 0;
    while (i < uops.size()) {
        if (uops[i].kind != UopKind::kCharge) {
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < uops.size() && uops[j].kind == UopKind::kCharge &&
               !is_target[j] &&
               uops[i].n_instrs + uops[j].n_instrs <= 255) {
            uops[i].cost += uops[j].cost;
            uops[i].n_instrs =
                static_cast<uint8_t>(uops[i].n_instrs + uops[j].n_instrs);
            uops[i].next_rip = uops[j].next_rip;
            uops[j].kind = UopKind::kDead;
            ++j;
        }
        i = j;
    }
}

void
compact(std::vector<Uop> &uops)
{
    std::vector<int32_t> new_index(uops.size(), -1);
    int32_t live = 0;
    for (size_t i = 0; i < uops.size(); ++i) {
        if (uops[i].kind != UopKind::kDead) {
            new_index[i] = live++;
        }
    }
    if (static_cast<size_t>(live) == uops.size()) {
        return; // nothing died; indices are already correct
    }
    std::vector<Uop> out;
    out.reserve(static_cast<size_t>(live));
    for (size_t i = 0; i < uops.size(); ++i) {
        if (uops[i].kind == UopKind::kDead) {
            continue;
        }
        Uop u = uops[i];
        // Only branch kinds hold a uop index in `target`
        // (kLoadChk/kStoreChk reuse the field as the check-portion
        // cycle charge — relocating that would corrupt accounting).
        if (is_intra_trace_branch(u.kind) && u.target >= 0) {
            // Dead uops are never targets, so the slot is valid.
            u.target = new_index[static_cast<size_t>(u.target)];
        }
        out.push_back(u);
    }
    uops = std::move(out);
}

} // namespace occlum::vm::peephole
