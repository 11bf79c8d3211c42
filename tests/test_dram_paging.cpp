/**
 * @file
 * Demand-zero, page-tracked DRAM (DESIGN.md sections 8 and 13).
 *
 * MainMemoryPaging: random mixes of every MainMemory mutator are applied
 * both to a MainMemory and to a dense reference model that keeps the
 * whole 64 MiB and the tag bits in plain vectors, with a checkpoint
 * writer and hashes that visit every page. Checkpoint images, content hashes and
 * data hashes must be equal, and copy / assignment / loadState round
 * trips must land on the same state -- including a load into a memory
 * dirtied on pages the image does not list.
 *
 * DeviceMemory: a fresh device has no written DRAM page, and on a 4-SM
 * device every launch path (parallel, merge-conflict serial fallback,
 * policy retries, stepped launch + restoreBase, restoreStepped) writes
 * only SM 0's memory -- the device DRAM; SMs 1..n-1 work on epoch
 * shards and leave their own memories untouched. On Linux the resident
 * set a 4-SM device adds is bounded too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "kc/kernel.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/checkpoint.hpp"
#include "simt/mem.hpp"
#include "simt/sm.hpp"
#include "support/serialize.hpp"

namespace
{

using simt::kDramBase;
using simt::kDramSize;
using simt::MainMemory;
using Mode = kc::CompileOptions::Mode;

constexpr uint32_t kPage = MainMemory::kPageBytes;
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/**
 * Dense reference model: every byte and tag bit held explicitly, with
 * the checkpoint writer and the content hash defined over every page,
 * byte and word.
 */
struct DenseMemory
{
    std::vector<uint8_t> data = std::vector<uint8_t>(kDramSize, 0);
    std::vector<bool> tags = std::vector<bool>(kDramSize / 4, false);

    static size_t at(uint32_t addr) { return addr - kDramBase; }

    void
    store(uint32_t addr, uint32_t value, unsigned bytes)
    {
        for (unsigned b = 0; b < bytes; ++b)
            data[at(addr) + b] = static_cast<uint8_t>(value >> (8 * b));
    }
    void setWordTag(uint32_t addr, bool tag) { tags[at(addr) / 4] = tag; }
    void
    storeCap(uint32_t addr, const cap::CapMem &v)
    {
        store(addr, static_cast<uint32_t>(v.bits), 4);
        store(addr + 4, static_cast<uint32_t>(v.bits >> 32), 4);
        setWordTag(addr, v.tag);
        setWordTag(addr + 4, v.tag);
    }
    void
    clearTags(uint32_t addr, uint32_t bytes)
    {
        for (size_t w = at(addr) / 4; w <= at(addr + bytes - 1) / 4; ++w)
            tags[w] = false;
    }

    void
    saveState(support::ByteWriter &w) const
    {
        static const uint8_t zero_page[kPage] = {};
        const uint32_t num_pages = kDramSize / kPage;
        std::vector<uint32_t> live;
        for (uint32_t p = 0; p < num_pages; ++p) {
            bool interesting =
                std::memcmp(&data[size_t{p} * kPage], zero_page, kPage) != 0;
            for (uint32_t i = 0; i < kPage / 4 && !interesting; ++i)
                interesting = tags[size_t{p} * (kPage / 4) + i];
            if (interesting)
                live.push_back(p);
        }
        w.u32(num_pages);
        w.u32(static_cast<uint32_t>(live.size()));
        for (uint32_t p : live) {
            w.u32(p);
            w.bytes(&data[size_t{p} * kPage], kPage);
            const size_t w0 = size_t{p} * (kPage / 4);
            for (uint32_t g = 0; g < kPage / 4 / 64; ++g) {
                uint64_t bits = 0;
                for (uint32_t i = 0; i < 64; ++i) {
                    if (tags[w0 + g * 64 + i])
                        bits |= uint64_t{1} << i;
                }
                w.u64(bits);
            }
        }
    }

    uint64_t
    contentHash() const
    {
        uint64_t h = kFnvOffset;
        for (size_t i = 0; i < data.size() / 8; ++i) {
            uint64_t chunk = 0;
            for (unsigned b = 0; b < 8; ++b)
                chunk |= static_cast<uint64_t>(data[i * 8 + b]) << (8 * b);
            h = (h ^ chunk) * kFnvPrime;
        }
        for (size_t i = 0; i < tags.size(); ++i) {
            if (tags[i])
                h = (h ^ (i + 1)) * kFnvPrime;
        }
        return h;
    }
};

/** The per-byte definition of dataHash: one bounds-checked load8 per
 *  address. */
uint64_t
referenceDataHash(const MainMemory &m, uint32_t addr, uint32_t bytes,
                  uint32_t exclude_addr, uint32_t exclude_bytes)
{
    uint64_t h = kFnvOffset;
    for (uint32_t a = addr; a < addr + bytes; ++a) {
        if (exclude_bytes != 0 && a >= exclude_addr &&
            a < exclude_addr + exclude_bytes)
            continue;
        if (!MainMemory::contains(a))
            continue;
        h = (h ^ m.load8(a)) * kFnvPrime;
    }
    return h;
}

std::vector<uint8_t>
imageOf(const MainMemory &m)
{
    support::ByteWriter w;
    m.saveState(w);
    return w.data();
}

std::vector<uint8_t>
imageOf(const DenseMemory &m)
{
    support::ByteWriter w;
    m.saveState(w);
    return w.data();
}

/**
 * Applies random mutations to a MainMemory and (when given) the dense
 * model. Addresses cluster on a few pages -- always including the first
 * and last DRAM page -- so writes overlap, cross page boundaries and
 * leave pages written but zero (stores of 0, tags set then cleared).
 */
class Mutator
{
  public:
    Mutator(uint64_t seed, unsigned hot_pages) : rng_(seed)
    {
        pages_ = {0, kDramSize / kPage - 1};
        while (pages_.size() < hot_pages)
            pages_.push_back(static_cast<uint32_t>(
                rng_() % (kDramSize / kPage)));
    }

    void
    apply(MainMemory &m, DenseMemory *d, unsigned ops)
    {
        for (unsigned k = 0; k < ops; ++k)
            applyOne(m, d);
    }

  private:
    uint32_t
    addr(uint32_t align, uint32_t room)
    {
        const uint32_t page = pages_[rng_() % pages_.size()];
        uint32_t off = static_cast<uint32_t>(rng_() % kPage);
        // Half of the draws hug the page's edges.
        if (rng_() % 2)
            off = rng_() % 2 ? off % 16 : kPage - 1 - off % 16;
        uint64_t a = uint64_t{kDramBase} + uint64_t{page} * kPage + off;
        a = std::min<uint64_t>(a, uint64_t{kDramBase} + kDramSize - room);
        return static_cast<uint32_t>(a & ~uint64_t{align - 1});
    }

    uint32_t
    value()
    {
        // Zero often, so written-but-zero pages are common.
        return rng_() % 3 == 0 ? 0 : static_cast<uint32_t>(rng_());
    }

    void
    applyOne(MainMemory &m, DenseMemory *d)
    {
        switch (rng_() % 10) {
        case 0: {
            const uint32_t a = addr(1, 1);
            const uint32_t v = value() & 0xff;
            m.store8(a, static_cast<uint8_t>(v));
            if (d)
                d->store(a, v, 1);
            break;
        }
        case 1: {
            const uint32_t a = addr(2, 2);
            const uint32_t v = value() & 0xffff;
            m.store16(a, static_cast<uint16_t>(v));
            if (d)
                d->store(a, v, 2);
            break;
        }
        case 2: {
            const uint32_t a = addr(4, 4);
            const uint32_t v = value();
            m.store32(a, v);
            if (d)
                d->store(a, v, 4);
            break;
        }
        case 3: {
            const uint32_t a = addr(8, 8);
            cap::CapMem c;
            c.bits = (uint64_t{value()} << 32) | value();
            c.tag = rng_() % 2;
            m.storeCap(a, c);
            if (d)
                d->storeCap(a, c);
            break;
        }
        case 4:
        case 5: {
            const uint32_t a = addr(4, 4);
            const bool tag = rng_() % 2;
            m.setWordTag(a, tag);
            if (d)
                d->setWordTag(a, tag);
            break;
        }
        case 6: {
            const uint32_t len = 1 + rng_() % (2 * kPage);
            const uint32_t a = addr(1, len);
            m.clearTagsInRange(a, len);
            if (d)
                d->clearTags(a, len);
            break;
        }
        case 7: {
            const uint32_t len = 1 + rng_() % 64;
            const uint32_t a = addr(1, len);
            m.clearTagForStore(a, len);
            if (d)
                d->clearTags(a, len);
            break;
        }
        case 8: {
            // A run of tagged words, so tag clears often end on one.
            const uint32_t words = 1 + rng_() % 256;
            const uint32_t a = addr(4, words * 4);
            for (uint32_t w = 0; w < words; ++w) {
                m.setWordTag(a + 4 * w, true);
                if (d)
                    d->setWordTag(a + 4 * w, true);
            }
            break;
        }
        default: {
            // A host span write (packed-lane stores, restoreBase),
            // sometimes across a page boundary.
            const uint32_t len = 1 + rng_() % (kPage + kPage / 2);
            const uint32_t a = addr(1, len);
            std::vector<uint8_t> bytes(len);
            const bool zero = rng_() % 4 == 0;
            for (auto &b : bytes)
                b = zero ? 0 : static_cast<uint8_t>(rng_());
            std::memcpy(m.writableSpan(a, len), bytes.data(), len);
            if (d)
                std::copy(bytes.begin(), bytes.end(),
                          d->data.begin() +
                              static_cast<ptrdiff_t>(DenseMemory::at(a)));
            break;
        }
        }
    }

    std::mt19937_64 rng_;
    std::vector<uint32_t> pages_;
};

/** Every byte and tag equal, read through the dense accessors, and the
 *  page-skipping image and hash equal to the dense ones. */
void
expectSameState(const MainMemory &m, const DenseMemory &d)
{
    EXPECT_EQ(std::memcmp(m.rawData(kDramBase), d.data.data(), kDramSize),
              0)
        << "data bytes differ";
    size_t tag_mismatches = 0;
    for (uint32_t w = 0; w < kDramSize / 4; ++w)
        tag_mismatches += m.wordTag(kDramBase + 4 * w) != d.tags[w];
    EXPECT_EQ(tag_mismatches, 0u) << "word tags differ";
    EXPECT_EQ(imageOf(m), imageOf(d)) << "checkpoint images differ";
    EXPECT_EQ(m.contentHash(), d.contentHash());
}

TEST(MainMemoryPaging, FreshMemoryIsCleanAndHashesAsZero)
{
    MainMemory m;
    DenseMemory d;
    EXPECT_EQ(m.writtenPages(), 0u);
    expectSameState(m, d);
    EXPECT_EQ(m.dataHash(kDramBase, kDramSize),
              referenceDataHash(m, kDramBase, kDramSize, 0, 0));
}

TEST(MainMemoryPaging, EachMutatorMarksWhatItWrites)
{
    // One mutator on an otherwise untouched memory: a missing mark
    // would drop the page from the image and the hash.
    const uint32_t edge = kDramBase + 7 * kPage - 2;
    cap::CapMem c;
    c.bits = 0; // all-zero bits: only the tags make the page live
    c.tag = true;
    const std::vector<std::pair<std::string,
                                std::function<void(MainMemory &,
                                                   DenseMemory &)>>>
        cases = {
            {"store8", [](MainMemory &m, DenseMemory &d) {
                 m.store8(kDramBase + 5, 0x5a);
                 d.store(kDramBase + 5, 0x5a, 1);
             }},
            {"store16 across pages", [&](MainMemory &m, DenseMemory &d) {
                 m.store16(edge + 1, 0xa55a);
                 d.store(edge + 1, 0xa55a, 2);
             }},
            {"store32", [](MainMemory &m, DenseMemory &d) {
                 m.store32(kDramBase + kDramSize - 4, 0xdeadbeef);
                 d.store(kDramBase + kDramSize - 4, 0xdeadbeef, 4);
             }},
            {"storeCap", [&](MainMemory &m, DenseMemory &d) {
                 m.storeCap(kDramBase + 3 * kPage, c);
                 d.storeCap(kDramBase + 3 * kPage, c);
             }},
            {"setWordTag", [](MainMemory &m, DenseMemory &d) {
                 m.setWordTag(kDramBase + 9 * kPage + 12, true);
                 d.setWordTag(kDramBase + 9 * kPage + 12, true);
             }},
            {"writableSpan across pages",
             [&](MainMemory &m, DenseMemory &d) {
                 std::memset(m.writableSpan(edge, 4), 0xff, 4);
                 d.store(edge, 0xffffffff, 4);
             }},
        };
    for (const auto &[name, mutate] : cases) {
        SCOPED_TRACE(name);
        MainMemory m;
        DenseMemory d;
        mutate(m, d);
        EXPECT_GT(m.writtenPages(), 0u);
        expectSameState(m, d);
    }
}

TEST(MainMemoryPaging, RandomMutationsMatchDenseReference)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        MainMemory m;
        DenseMemory d;
        Mutator mut(seed, 12);
        for (unsigned round = 0; round < 3; ++round) {
            mut.apply(m, &d, 400);
            expectSameState(m, d);
            // Spot-check the accessors against the model on every page
            // that may hold data.
            std::mt19937_64 rng(seed * 31 + round);
            for (unsigned k = 0; k < 2000; ++k) {
                const uint32_t a =
                    kDramBase + static_cast<uint32_t>(rng() % kDramSize);
                ASSERT_EQ(m.load8(a), d.data[DenseMemory::at(a)]);
                ASSERT_EQ(m.wordTag(a), d.tags[DenseMemory::at(a) / 4]);
            }
            // Marks stay on the hot pages and the (at most two) pages
            // a span starting there runs into.
            EXPECT_LE(m.writtenPages(), 3u * 12u);
        }
    }
}

TEST(MainMemoryPaging, HashesEqualReferenceImplementations)
{
    for (uint64_t seed = 11; seed <= 13; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        MainMemory m;
        DenseMemory d;
        Mutator(seed, 8).apply(m, &d, 600);
        EXPECT_EQ(m.contentHash(), d.contentHash());

        std::mt19937_64 rng(seed);
        struct Range
        {
            uint32_t addr, bytes, ex_addr, ex_bytes;
        };
        std::vector<Range> ranges = {
            {kDramBase, kDramSize, 0, 0},
            {kDramBase - 100, 300, 0, 0},          // starts below DRAM
            {kDramBase + kDramSize - 50, 200, 0, 0}, // runs past the end
            {0xfffffff0u, 0x20, 0, 0},             // end wraps: empty
            {kDramBase, 3 * kPage, kDramBase + kPage - 2, 6},
            {kDramBase, 3 * kPage, 0xfffffffcu, 8}, // window end wraps
            {kDramBase + 10, 100, kDramBase, 4096}, // starts inside window
        };
        for (unsigned k = 0; k < 40; ++k) {
            const uint32_t a =
                kDramBase + static_cast<uint32_t>(rng() % kDramSize);
            const uint32_t n = static_cast<uint32_t>(rng() % (5 * kPage));
            const bool ex = rng() % 2;
            ranges.push_back(
                {a, n, ex ? a + static_cast<uint32_t>(rng() % (n + 1)) : 0,
                 ex ? static_cast<uint32_t>(rng() % 64) : 0});
        }
        for (const Range &r : ranges) {
            EXPECT_EQ(m.dataHash(r.addr, r.bytes, r.ex_addr, r.ex_bytes),
                      referenceDataHash(m, r.addr, r.bytes, r.ex_addr,
                                        r.ex_bytes))
                << std::hex << "range 0x" << r.addr << "+0x" << r.bytes
                << " excluding 0x" << r.ex_addr << "+0x" << r.ex_bytes;
        }
    }
}

TEST(MainMemoryPaging, CopyAssignAndRestoreRoundTrip)
{
    MainMemory a;
    DenseMemory da;
    Mutator(21, 10).apply(a, &da, 500);

    // Copy construction.
    const MainMemory copy = a;
    expectSameState(copy, da);

    // Assignment over a memory written on other pages (and some of the
    // same ones): pages written only in the target must come back zero.
    MainMemory b;
    Mutator(22, 10).apply(b, nullptr, 500);
    b = a;
    expectSameState(b, da);

    // Snapshot / dirty / restore, as launchWithPolicy does.
    const MainMemory snapshot = b;
    Mutator(23, 10).apply(b, nullptr, 500);
    b = snapshot;
    expectSameState(b, da);

    // Self-assignment is a no-op.
    MainMemory &alias = b;
    b = alias;
    expectSameState(b, da);

    // Assigning a fresh memory cleans everything.
    b = MainMemory();
    EXPECT_EQ(b.writtenPages(), 0u);
    expectSameState(b, DenseMemory());
}

TEST(MainMemoryPaging, LoadStateIntoDirtiedMemoryMatchesFreshLoad)
{
    MainMemory src;
    DenseMemory dsrc;
    Mutator(31, 10).apply(src, &dsrc, 500);
    const std::vector<uint8_t> image = imageOf(src);
    ASSERT_EQ(image, imageOf(dsrc));

    MainMemory fresh;
    support::ByteReader r1(image);
    ASSERT_TRUE(fresh.loadState(r1));

    // Dirty a target on pages absent from the image as well as on
    // pages it lists, then load.
    MainMemory dirty;
    Mutator(32, 16).apply(dirty, nullptr, 800);
    Mutator(31, 10).apply(dirty, nullptr, 200);
    support::ByteReader r2(image);
    ASSERT_TRUE(dirty.loadState(r2));

    EXPECT_EQ(imageOf(dirty), imageOf(fresh));
    EXPECT_EQ(dirty.contentHash(), fresh.contentHash());
    expectSameState(dirty, dsrc);
    EXPECT_EQ(dirty.dataHash(kDramBase, kDramSize),
              fresh.dataHash(kDramBase, kDramSize));
}

// ------------------------------------------------------ DeviceMemory

simt::SmConfig
deviceCfg(unsigned sms)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 16;
    cfg.vrfCapacity = 16 * 32 * 3 / 8;
    cfg.numSms = sms;
    return cfg;
}

/** SMs 1..n-1 of @p dev never wrote their own memories. */
void
expectOnlySm0Written(nocl::Device &dev, const std::string &path)
{
    EXPECT_GT(dev.smAt(0).dram().writtenPages(), 0u) << path;
    for (unsigned i = 1; i < dev.numSms(); ++i)
        EXPECT_EQ(dev.smAt(i).dram().writtenPages(), 0u)
            << path << ": SM " << i << " wrote its own DRAM";
}

/** Blocks on different SMs race on out[0]: the epoch merge refuses. */
struct ConflictingStoreKernel : kc::KernelDef
{
    std::string name() const override { return "PagingConflict"; }

    void
    build(kc::Kb &b) override
    {
        auto out = b.paramPtr("out", kc::Scalar::U32);
        out[0] = b.blockIdx() * b.blockDim() + b.threadIdx();
    }
};

/** Stores, then spins into the watchdog. */
struct SpinKernel : kc::KernelDef
{
    std::string name() const override { return "PagingSpin"; }

    void
    build(kc::Kb &b) override
    {
        auto spin = b.paramI32("spin");
        auto out = b.paramPtr("out", kc::Scalar::U32);
        auto gid = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        b.store(b.index(out, gid), gid + b.cu(1));
        auto i = b.var(b.c(0));
        auto sink = b.var(b.cu(0));
        b.forRange(i, spin, b.c(1), [&] { sink += b.cu(1); });
        b.store(b.index(out, gid), sink);
    }
};

TEST(DeviceMemory, FreshDeviceHasNoWrittenPages)
{
    for (unsigned sms : {1u, 4u}) {
        nocl::Device dev(deviceCfg(sms), Mode::Purecap);
        for (unsigned i = 0; i < dev.numSms(); ++i)
            EXPECT_EQ(dev.smAt(i).dram().writtenPages(), 0u)
                << sms << " SMs, SM " << i;
    }
}

TEST(DeviceMemory, ParallelAndFallbackLaunchesWriteOnlySm0)
{
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        auto bench = kernels::makeBenchmark("VecAdd");
        ASSERT_NE(bench, nullptr);
        kernels::Prepared p = bench->prepare(dev, kernels::Size::Small);
        const nocl::RunResult res = dev.launch(*p.kernel, p.cfg, p.args);
        ASSERT_TRUE(res.completed);
        EXPECT_FALSE(res.mergeFallback);
        EXPECT_TRUE(p.verify(dev));
        expectOnlySm0Written(dev, "parallel launch");
    }
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        nocl::Buffer out = dev.alloc(4);
        ConflictingStoreKernel k;
        nocl::LaunchConfig cfg;
        cfg.blockDim = 256;
        cfg.gridDim = 8;
        const nocl::RunResult res =
            dev.launch(k, cfg, {nocl::Arg::buffer(out)});
        ASSERT_TRUE(res.completed);
        EXPECT_TRUE(res.mergeFallback);
        expectOnlySm0Written(dev, "merge-conflict serial fallback");
    }
}

TEST(DeviceMemory, PolicyRetriesWriteOnlySm0)
{
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        SpinKernel k;
        nocl::LaunchConfig cfg;
        cfg.blockDim = 64;
        cfg.gridDim = 8;
        const nocl::Buffer out = dev.alloc(8 * 64 * 4);
        nocl::LaunchPolicy policy;
        policy.maxCycles = 20'000;
        policy.maxRetries = 2;
        const nocl::RunResult res = dev.launchWithPolicy(
            k, cfg, {nocl::Arg::integer(1'000'000), nocl::Arg::buffer(out)},
            policy);
        EXPECT_EQ(res.trapKind, simt::TrapKind::WatchdogTimeout);
        EXPECT_EQ(res.retries, policy.maxRetries);
        expectOnlySm0Written(dev, "launchWithPolicy watchdog retries");
    }
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        nocl::Buffer out = dev.alloc(4);
        ConflictingStoreKernel k;
        nocl::LaunchConfig cfg;
        cfg.blockDim = 256;
        cfg.gridDim = 8;
        const nocl::RunResult res =
            dev.launchWithPolicy(k, cfg, {nocl::Arg::buffer(out)});
        EXPECT_TRUE(res.completed);
        EXPECT_GT(res.retries, 0u);
        expectOnlySm0Written(dev, "launchWithPolicy conflict retries");
    }
}

TEST(DeviceMemory, SteppedAndRestoredLaunchesWriteOnlySm0)
{
    auto bench = kernels::makeBenchmark("BlkStencil");
    ASSERT_NE(bench, nullptr);
    std::vector<uint8_t> image;
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        kernels::Prepared p = bench->prepare(dev, kernels::Size::Small);
        auto compiled = dev.compileCached(*p.kernel, p.cfg);
        auto launch = dev.beginStepped(compiled, p.cfg, p.args);
        launch->runUntil(200);
        image = launch->saveCheckpoint();
        const nocl::RunResult res =
            launch->finish(nocl::LaunchPolicy{}.maxCycles);
        ASSERT_TRUE(res.completed);
        EXPECT_TRUE(p.verify(dev));
        launch->restoreBase();
        expectOnlySm0Written(dev, "stepped launch + restoreBase");
    }
    {
        nocl::Device dev(deviceCfg(4), Mode::Purecap);
        simt::ckpt::Error err;
        auto restored = dev.restoreStepped(image, &err);
        ASSERT_NE(restored, nullptr) << err.message;
        const nocl::RunResult res =
            restored->finish(nocl::LaunchPolicy{}.maxCycles);
        EXPECT_TRUE(res.completed);
        expectOnlySm0Written(dev, "restoreStepped");
    }
}

/** Resident set of this process in bytes, or 0 where /proc is absent. */
uint64_t
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(DeviceMemory, FourSmDeviceAddsLittleResidentMemory)
{
    if (residentBytes() == 0)
        GTEST_SKIP() << "/proc/self/statm is not available on this host; "
                        "resident-set growth is not measured";
    const uint64_t before = residentBytes();
    auto dev = std::make_unique<nocl::Device>(deviceCfg(4), Mode::Purecap);
    const uint64_t after = residentBytes();
    const uint64_t growth = after > before ? after - before : 0;
    EXPECT_LT(growth, uint64_t{16} << 20)
        << "building a 4-SM device grew the resident set by "
        << (growth >> 20) << " MiB";
}

} // namespace
