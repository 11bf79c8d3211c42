#include "simt/regfile.hpp"

#include <algorithm>
#include <limits>

#include "support/bits.hpp"
#include "support/logging.hpp"

namespace simt
{

namespace
{

/** Does a data vector compress to base+stride with an 8-bit stride? */
bool
compressData(const std::vector<uint32_t> &vals, uint32_t &base,
             int32_t &stride)
{
    base = vals[0];
    stride = vals.size() > 1
                 ? static_cast<int32_t>(vals[1] - vals[0])
                 : 0;
    if (stride < -128 || stride > 127)
        return false;
    for (size_t i = 1; i < vals.size(); ++i) {
        if (vals[i] - vals[i - 1] != static_cast<uint32_t>(stride))
            return false;
    }
    return true;
}

} // namespace

RegFileSystem::RegFileSystem(const SmConfig &cfg, support::StatSet &stats)
    : cfg_(cfg), stats_(stats),
      statDataSpills_(stats.handle("vrf_data_spills")),
      statMetaSpills_(stats.handle("vrf_meta_spills")),
      statDataReloads_(stats.handle("vrf_data_reloads")),
      statMetaReloads_(stats.handle("vrf_meta_reloads")),
      statNvoHits_(stats.handle("meta_nvo_hits")),
      statVrfPeak_(stats.handle("vrf_peak_used"))
{
    const unsigned entries = cfg_.numVectorRegs();
    dataEntries_.resize(entries);

    if (cfg_.purecap) {
        metaEntries_.resize(entries);
        if (!cfg_.metaCompressed) {
            flatMeta_.resize(static_cast<size_t>(entries) * cfg_.numLanes);
            for (auto &e : metaEntries_)
                e.kind = Kind::Flat;
        }
    }

    if (cfg_.sharedVrf || !cfg_.purecap || !cfg_.metaCompressed) {
        dataCapacity_ = cfg_.vrfCapacity;
        metaCapacity_ = cfg_.sharedVrf ? cfg_.vrfCapacity : 0;
    } else {
        // Split-VRF configuration: each file gets its own allocator of the
        // configured capacity.
        dataCapacity_ = cfg_.vrfCapacity;
        metaCapacity_ = cfg_.vrfCapacity;
    }
}

void
RegFileSystem::reset()
{
    for (auto &e : dataEntries_)
        e = Entry{};
    if (cfg_.purecap) {
        for (auto &e : metaEntries_) {
            e = Entry{};
            if (!cfg_.metaCompressed)
                e.kind = Kind::Flat;
        }
        std::fill(flatMeta_.begin(), flatMeta_.end(), CapMeta{});
    }
    slots_.clear();
    slotInfo_.clear();
    freeSlots_.clear();
    spillStore_.clear();
    freeSpillIds_.clear();
    usedSlots_ = 0;
    dataSlotsUsed_ = 0;
    metaSlotsUsed_ = 0;
    dataVecCount_ = 0;
    metaVecCount_ = 0;
    capRegMask_ = 0;
    useClock_ = 0;
}

int
RegFileSystem::allocSlot(bool for_meta, RfAccess &acc)
{
    const bool shared = cfg_.sharedVrf;
    for (;;) {
        if (shared) {
            if (usedSlots_ < cfg_.vrfCapacity)
                break;
        } else {
            const unsigned used = for_meta ? metaSlotsUsed_ : dataSlotsUsed_;
            const unsigned cap = for_meta ? metaCapacity_ : dataCapacity_;
            if (used < cap)
                break;
        }
        spillVictim(for_meta, acc);
    }

    int slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<int>(slots_.size());
        slots_.push_back(LaneVec{std::vector<uint32_t>(cfg_.numLanes), 0});
        slotInfo_.emplace_back();
    }
    ++usedSlots_;
    if (for_meta)
        ++metaSlotsUsed_;
    else
        ++dataSlotsUsed_;
    slotInfo_[slot].isMeta = for_meta;
    slotInfo_[slot].lastUse = ++useClock_;
    statVrfPeak_.trackMax(usedSlots_);
    return slot;
}

void
RegFileSystem::freeSlot(int slot, bool for_meta)
{
    freeSlots_.push_back(slot);
    --usedSlots_;
    if (for_meta)
        --metaSlotsUsed_;
    else
        --dataSlotsUsed_;
}

void
RegFileSystem::spillVictim(bool for_meta, RfAccess &acc)
{
    // Choose the least-recently-used resident vector. In the shared-VRF
    // configuration any resident vector may be evicted; with split VRFs
    // only vectors of the requesting file free usable space.
    int victim = -1;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (size_t s = 0; s < slots_.size(); ++s) {
        if (std::find(freeSlots_.begin(), freeSlots_.end(),
                      static_cast<int>(s)) != freeSlots_.end())
            continue;
        if (!cfg_.sharedVrf && slotInfo_[s].isMeta != for_meta)
            continue;
        if (slotInfo_[s].lastUse < best) {
            best = slotInfo_[s].lastUse;
            victim = static_cast<int>(s);
        }
    }
    panic_if(victim < 0, "VRF full with no evictable slot");

    const SlotInfo &info = slotInfo_[victim];
    Entry &e = (info.isMeta ? metaEntries_ : dataEntries_)
        [entryIndex(info.warp, info.reg)];
    panic_if(e.kind != Kind::Vector || e.slot != victim,
             "inconsistent VRF slot mapping");

    int spill_id;
    if (!freeSpillIds_.empty()) {
        spill_id = freeSpillIds_.back();
        freeSpillIds_.pop_back();
        spillStore_[spill_id] = slots_[victim];
    } else {
        spill_id = static_cast<int>(spillStore_.size());
        spillStore_.push_back(slots_[victim]);
    }

    e.kind = Kind::Spilled;
    e.spillId = spill_id;
    e.slot = -1;
    if (info.isMeta)
        --metaVecCount_;
    else
        --dataVecCount_;
    freeSlot(victim, info.isMeta);

    ++acc.spills;
    acc.dramBytes += cfg_.numLanes * (info.isMeta ? 8 : 4);
    (info.isMeta ? statMetaSpills_ : statDataSpills_).add();
}

void
RegFileSystem::expandData(const Entry &e, std::vector<uint32_t> &out) const
{
    out.resize(cfg_.numLanes);
    switch (e.kind) {
      case Kind::Scalar: {
        // Same closed-form expansion as a descriptor read's
        // DataDesc::materialiseTo, so eager and lazy reads agree.
        DataDesc d;
        d.base = e.base;
        d.stride = e.stride;
        d.materialiseTo(out.data(), cfg_.numLanes);
        break;
      }
      case Kind::Vector:
        out = slots_[e.slot].words;
        break;
      case Kind::Spilled:
        out = spillStore_[e.spillId].words;
        break;
      default:
        panic("bad data entry kind");
    }
}

void
RegFileSystem::expandMeta(const Entry &e, std::vector<CapMeta> &out) const
{
    out.resize(cfg_.numLanes);
    switch (e.kind) {
      case Kind::Scalar:
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            out[i] = CapMeta{e.base, e.tag};
        break;
      case Kind::PartialNull:
        for (unsigned i = 0; i < cfg_.numLanes; ++i) {
            out[i] = (e.nullMask >> i) & 1 ? CapMeta{}
                                           : CapMeta{e.base, e.tag};
        }
        break;
      case Kind::Vector:
      case Kind::Spilled: {
        const LaneVec &v = e.kind == Kind::Vector ? slots_[e.slot]
                                                  : spillStore_[e.spillId];
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            out[i] = CapMeta{v.words[i], hasLane(v.tags, i)};
        break;
      }
      default:
        panic("bad meta entry kind");
    }
}

void
RegFileSystem::unspillData(Entry &e, unsigned warp, unsigned reg,
                           RfAccess &acc)
{
    const int spill_id = e.spillId;
    const int slot = allocSlot(false, acc);
    slots_[slot] = spillStore_[spill_id];
    freeSpillIds_.push_back(spill_id);
    e.kind = Kind::Vector;
    e.slot = slot;
    e.spillId = -1;
    slotInfo_[slot].warp = warp;
    slotInfo_[slot].reg = reg;
    ++dataVecCount_;
    ++acc.reloads;
    acc.dramBytes += cfg_.numLanes * 4;
    statDataReloads_.add();
}

void
RegFileSystem::unspillMeta(Entry &e, unsigned warp, unsigned reg,
                           RfAccess &acc)
{
    const int spill_id = e.spillId;
    const int slot = allocSlot(true, acc);
    slots_[slot] = spillStore_[spill_id];
    freeSpillIds_.push_back(spill_id);
    e.kind = Kind::Vector;
    e.slot = slot;
    e.spillId = -1;
    slotInfo_[slot].warp = warp;
    slotInfo_[slot].reg = reg;
    ++metaVecCount_;
    ++acc.reloads;
    acc.dramBytes += cfg_.numLanes * 8;
    statMetaReloads_.add();
}

void
RegFileSystem::readData(unsigned warp, unsigned reg,
                        std::vector<uint32_t> &out, RfAccess &acc)
{
    Entry &e = dataEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspillData(e, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.dataFromVrf = true;
        slotInfo_[e.slot].lastUse = ++useClock_;
    }
    expandData(e, out);
}

void
RegFileSystem::writeData(unsigned warp, unsigned reg,
                         const std::vector<uint32_t> &vals, LaneSet mask,
                         RfAccess &acc)
{
    if (reg == 0)
        return; // x0 is hardwired to zero

    const std::vector<uint32_t> *src = &vals;
    if (injector_ && injector_->stuckLaneActive()) {
        const unsigned lane = injector_->plan().lane % cfg_.numLanes;
        if (hasLane(mask, lane)) {
            faultDataScratch_ = vals;
            injector_->corruptLaneValue(faultDataScratch_[lane]);
            src = &faultDataScratch_;
        }
    }

    Entry &e = dataEntries_[entryIndex(warp, reg)];

    // Merge through a pointer: the full-mask write (the common case)
    // uses the caller's buffer directly instead of copying it.
    const std::vector<uint32_t> *merged = src;
    if (!allLive(mask, cfg_.numLanes)) {
        if (e.kind == Kind::Spilled)
            unspillData(e, warp, reg, acc);
        expandData(e, mergeDataScratch_);
        for (const unsigned i : lanesOf(mask))
            mergeDataScratch_[i] = (*src)[i];
        merged = &mergeDataScratch_;
    }

    uint32_t base;
    int32_t stride;
    if (compressData(*merged, base, stride)) {
        if (e.kind == Kind::Vector) {
            freeSlot(e.slot, false);
            --dataVecCount_;
        }
        e.kind = Kind::Scalar;
        e.base = base;
        e.stride = stride;
        e.slot = -1;
        return;
    }

    if (e.kind != Kind::Vector) {
        const int slot = allocSlot(false, acc);
        e.kind = Kind::Vector;
        e.slot = slot;
        slotInfo_[slot].warp = warp;
        slotInfo_[slot].reg = reg;
        ++dataVecCount_;
    }
    slotInfo_[e.slot].lastUse = ++useClock_;
    acc.dataFromVrf = true;
    LaneVec &slot = slots_[e.slot];
    std::copy_n(merged->begin(), cfg_.numLanes, slot.words.begin());
    slot.tags = 0;
}

void
RegFileSystem::readMeta(unsigned warp, unsigned reg,
                        std::vector<CapMeta> &out, RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (!cfg_.metaCompressed) {
        out.resize(cfg_.numLanes);
        const size_t base =
            static_cast<size_t>(entryIndex(warp, reg)) * cfg_.numLanes;
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            out[i] = flatMeta_[base + i];
        return;
    }
    Entry &e = metaEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspillMeta(e, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.metaFromVrf = true;
        slotInfo_[e.slot].lastUse = ++useClock_;
    }
    expandMeta(e, out);
}

void
RegFileSystem::writeMeta(unsigned warp, unsigned reg,
                         const std::vector<CapMeta> &vals, LaneSet mask,
                         RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (reg == 0)
        return;

    const std::vector<CapMeta> *src = &vals;
    if (injector_ && injector_->shouldCorruptMetaWrite(warp, reg)) {
        faultMetaScratch_ = vals;
        injector_->corruptMeta(
            faultMetaScratch_[injector_->plan().lane % cfg_.numLanes]);
        src = &faultMetaScratch_;
    }

    bool any_nonnull = false;
    for (const unsigned i : lanesOf(mask)) {
        if (!(*src)[i].isNull()) {
            panic_if(reg >= cfg_.metaRegsTracked,
                     "capability written to x%u, beyond the metadata "
                     "SRF's %u tracked registers",
                     reg, cfg_.metaRegsTracked);
            capRegMask_ |= uint32_t{1} << reg;
            any_nonnull = true;
            break;
        }
    }

    if (!cfg_.metaCompressed) {
        const size_t base =
            static_cast<size_t>(entryIndex(warp, reg)) * cfg_.numLanes;
        for (const unsigned i : lanesOf(mask))
            flatMeta_[base + i] = (*src)[i];
        return;
    }

    Entry &e = metaEntries_[entryIndex(warp, reg)];

    // Every written lane carries the null capability and the entry is
    // already the uniform null scalar: merging and re-classifying would
    // rebuild exactly this representation, with no occupancy-counter or
    // RfAccess side effects, so the write is a no-op. (A Scalar entry
    // always has slot == -1, and nullMask is ignored for scalars.)
    if (!any_nonnull && e.kind == Kind::Scalar && !e.tag && e.base == 0)
        return;

    // Merge through a pointer: the full-mask write (the common case)
    // uses the caller's buffer directly instead of copying it.
    const std::vector<CapMeta> *mergedp = src;
    if (!allLive(mask, cfg_.numLanes)) {
        if (e.kind == Kind::Spilled)
            unspillMeta(e, warp, reg, acc);
        expandMeta(e, mergeMetaScratch_);
        for (const unsigned i : lanesOf(mask))
            mergeMetaScratch_[i] = (*src)[i];
        mergedp = &mergeMetaScratch_;
    }
    const std::vector<CapMeta> &merged = *mergedp;

    // Classify: uniform; else (with NVO) one non-null value plus nulls;
    // else a general vector.
    bool uniform = true;
    for (unsigned i = 1; i < cfg_.numLanes; ++i)
        uniform = uniform && merged[i] == merged[0];

    if (uniform) {
        if (e.kind == Kind::Vector) {
            freeSlot(e.slot, true);
            --metaVecCount_;
        }
        e.kind = Kind::Scalar;
        e.base = merged[0].meta;
        e.tag = merged[0].tag;
        e.nullMask = 0;
        e.slot = -1;
        return;
    }

    if (cfg_.nvo) {
        CapMeta value{};
        bool have_value = false;
        bool partial_null = true;
        uint32_t null_mask = 0;
        for (unsigned i = 0; i < cfg_.numLanes; ++i) {
            if (merged[i].isNull()) {
                null_mask |= uint32_t{1} << i;
            } else if (!have_value) {
                value = merged[i];
                have_value = true;
            } else if (!(merged[i] == value)) {
                partial_null = false;
                break;
            }
        }
        if (partial_null) {
            if (e.kind == Kind::Vector) {
                freeSlot(e.slot, true);
                --metaVecCount_;
            }
            e.kind = Kind::PartialNull;
            e.base = value.meta;
            e.tag = value.tag;
            e.nullMask = null_mask;
            e.slot = -1;
            statNvoHits_.add();
            return;
        }
    }

    if (e.kind != Kind::Vector) {
        const int slot = allocSlot(true, acc);
        e.kind = Kind::Vector;
        e.slot = slot;
        slotInfo_[slot].warp = warp;
        slotInfo_[slot].reg = reg;
        ++metaVecCount_;
    }
    slotInfo_[e.slot].lastUse = ++useClock_;
    acc.metaFromVrf = true;
    LaneVec &slot = slots_[e.slot];
    slot.tags = 0;
    for (unsigned i = 0; i < cfg_.numLanes; ++i) {
        slot.words[i] = merged[i].meta;
        slot.tags |= LaneSet{merged[i].tag} << i;
    }
}

void
RegFileSystem::readDataDesc(unsigned warp, unsigned reg,
                            std::vector<uint32_t> &scratch, DataDesc &desc,
                            RfAccess &acc, bool in_place)
{
    Entry &e = dataEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspillData(e, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.dataFromVrf = true;
        slotInfo_[e.slot].lastUse = ++useClock_;
        const std::vector<uint32_t> &words = slots_[e.slot].words;
        if (!in_place)
            scratch = words;
        desc.kind = DataDesc::Kind::Lanes;
        desc.lanes = in_place ? words.data() : scratch.data();
        return;
    }
    desc.kind = DataDesc::Kind::Affine;
    desc.base = e.base;
    desc.stride = e.stride;
    desc.lanes = nullptr;
}

void
RegFileSystem::readMetaDesc(unsigned warp, unsigned reg,
                            std::vector<CapMeta> &scratch, MetaDesc &desc,
                            RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (!cfg_.metaCompressed) {
        // Uncompressed file: detect uniformity on the fly so the plain
        // CHERI configuration also benefits from the fast path.
        const size_t base =
            static_cast<size_t>(entryIndex(warp, reg)) * cfg_.numLanes;
        bool uniform = true;
        for (unsigned i = 1; i < cfg_.numLanes && uniform; ++i)
            uniform = flatMeta_[base + i] == flatMeta_[base];
        if (uniform) {
            desc.kind = MetaDesc::Kind::Uniform;
            desc.value = flatMeta_[base];
            desc.lanes = nullptr;
            desc.external = false;
        } else {
            desc.kind = MetaDesc::Kind::Lanes;
            desc.lanes = &flatMeta_[base];
            desc.external = true;
        }
        return;
    }
    Entry &e = metaEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspillMeta(e, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.metaFromVrf = true;
        slotInfo_[e.slot].lastUse = ++useClock_;
        expandMeta(e, scratch);
        desc.kind = MetaDesc::Kind::Lanes;
        desc.lanes = scratch.data();
        desc.external = false;
        return;
    }
    if (e.kind == Kind::PartialNull) {
        desc.kind = MetaDesc::Kind::PartialNull;
        desc.value = CapMeta{e.base, e.tag};
        desc.nullMask = e.nullMask;
        desc.lanes = nullptr;
        desc.external = false;
        return;
    }
    desc.kind = MetaDesc::Kind::Uniform;
    desc.value = CapMeta{e.base, e.tag};
    desc.lanes = nullptr;
    desc.external = false;
}

void
RegFileSystem::writeDataAffine(unsigned warp, unsigned reg, uint32_t base,
                               int32_t stride, RfAccess &acc)
{
    if (reg == 0)
        return; // x0 is hardwired to zero

    if (injector_ && injector_->stuckLaneActive()) {
        // A stuck lane breaks the affine form: expand the sequence and
        // take the general write path so the corrupted lane is stored
        // (corruptLaneValue is idempotent, so the nested writeData call
        // re-applying the stuck bit changes nothing).
        faultDataScratch_.resize(cfg_.numLanes);
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            faultDataScratch_[i] =
                base + static_cast<uint32_t>(stride) * i;
        injector_->corruptLaneValue(
            faultDataScratch_[injector_->plan().lane % cfg_.numLanes]);
        writeData(warp, reg, faultDataScratch_, allLanes(cfg_.numLanes),
                  acc);
        return;
    }

    Entry &e = dataEntries_[entryIndex(warp, reg)];

    // compressData of the expanded sequence: single-lane vectors always
    // compress with stride 0; otherwise the affine stride must fit 8 bits.
    const int32_t eff_stride = cfg_.numLanes > 1 ? stride : 0;
    if (eff_stride >= -128 && eff_stride <= 127) {
        if (e.kind == Kind::Vector) {
            freeSlot(e.slot, false);
            --dataVecCount_;
        }
        e.kind = Kind::Scalar;
        e.base = base;
        e.stride = eff_stride;
        e.slot = -1;
        return;
    }

    if (e.kind != Kind::Vector) {
        const int slot = allocSlot(false, acc);
        e.kind = Kind::Vector;
        e.slot = slot;
        slotInfo_[slot].warp = warp;
        slotInfo_[slot].reg = reg;
        ++dataVecCount_;
    }
    slotInfo_[e.slot].lastUse = ++useClock_;
    acc.dataFromVrf = true;
    LaneVec &slot = slots_[e.slot];
    for (unsigned i = 0; i < cfg_.numLanes; ++i)
        slot.words[i] = base + static_cast<uint32_t>(stride) * i;
    slot.tags = 0;
}

void
RegFileSystem::writeMetaUniform(unsigned warp, unsigned reg,
                                const CapMeta &value, RfAccess &acc)
{
    (void)acc; // a uniform write never allocates in the VRF
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (reg == 0)
        return;

    CapMeta stored = value;
    if (injector_ && injector_->shouldCorruptMetaWrite(warp, reg))
        injector_->corruptMeta(stored);

    if (!stored.isNull()) {
        panic_if(reg >= cfg_.metaRegsTracked,
                 "capability written to x%u, beyond the metadata "
                 "SRF's %u tracked registers",
                 reg, cfg_.metaRegsTracked);
        capRegMask_ |= uint32_t{1} << reg;
    }

    if (!cfg_.metaCompressed) {
        const size_t base =
            static_cast<size_t>(entryIndex(warp, reg)) * cfg_.numLanes;
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            flatMeta_[base + i] = stored;
        return;
    }

    Entry &e = metaEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Vector) {
        freeSlot(e.slot, true);
        --metaVecCount_;
    }
    e.kind = Kind::Scalar;
    e.base = stored.meta;
    e.tag = stored.tag;
    e.nullMask = 0;
    e.slot = -1;
}

uint64_t
RegFileSystem::dataStorageBits() const
{
    // SRF: two identical two-read-port instances of
    // (32-bit base + 8-bit stride + 2-bit kind) per vector register.
    const uint64_t srf = uint64_t{cfg_.numVectorRegs()} * 2 * (32 + 8 + 2);
    // VRF data plane (the shared-VRF width extension is charged to the
    // metadata file).
    const uint64_t vrf = uint64_t{cfg_.vrfCapacity} * cfg_.numLanes * 32;
    // Free stack: one slot index per VRF location.
    const uint64_t stack =
        uint64_t{cfg_.vrfCapacity} * support::ceilLog2(cfg_.vrfCapacity);
    return srf + vrf + stack;
}

uint64_t
RegFileSystem::metaStorageBits() const
{
    if (!cfg_.purecap)
        return 0;
    if (!cfg_.metaCompressed)
        return flatMetaStorageBits();

    // Metadata SRF: a single instance (one read port; CSC pays a cycle):
    // 33-bit uniform value + 2-bit kind + the NVO null mask. Only
    // metaRegsTracked registers per thread need entries (Section 4.3).
    const uint64_t entry_bits = 33 + 2 + (cfg_.nvo ? cfg_.numLanes : 0);
    const uint64_t entries =
        uint64_t{cfg_.numWarps} *
        std::min(cfg_.metaRegsTracked, cfg_.numRegs);
    uint64_t total = entries * entry_bits;

    if (cfg_.sharedVrf) {
        // Widening the shared VRF from 32 to 33 bits.
        total += uint64_t{cfg_.vrfCapacity} * cfg_.numLanes;
    } else {
        total += uint64_t{metaCapacity_} * cfg_.numLanes * 33 +
                 uint64_t{metaCapacity_} * support::ceilLog2(metaCapacity_);
    }
    return total;
}

uint64_t
RegFileSystem::flatDataStorageBits() const
{
    return uint64_t{cfg_.numVectorRegs()} * cfg_.numLanes * 32;
}

uint64_t
RegFileSystem::flatMetaStorageBits() const
{
    return uint64_t{cfg_.numVectorRegs()} * cfg_.numLanes * 33;
}

} // namespace simt
