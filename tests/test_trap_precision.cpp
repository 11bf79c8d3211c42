/**
 * @file
 * Trap-precision tests: a CHERI bounds or alignment violation must be
 * reported at the exact faulting byte address, for accesses one byte
 * below the base, at the top, one past the top, through a misaligned
 * view, and for a word access that straddles the upper bound. Every
 * case runs on the Simd and Verbatim engines (the per-lane reference
 * must be bit-identical) and on 1, 2 and 4 SMs.
 */

#include <gtest/gtest.h>

#include "kc/kernel.hpp"
#include "nocl/nocl.hpp"
#include "simt/sm.hpp"
#include "simt/trap.hpp"

namespace
{

using kc::Kb;
using kc::Scalar;
using nocl::Arg;
using nocl::Buffer;
using nocl::Device;
using Mode = kc::CompileOptions::Mode;

/** Every thread loads src[idx] (bytes) and records it per-thread. */
struct ByteProbe : kc::KernelDef
{
    std::string name() const override { return "ByteProbe"; }

    void
    build(Kb &b) override
    {
        auto idx = b.paramI32("idx");
        auto src = b.paramPtr("src", Scalar::U8);
        auto dst = b.paramPtr("dst", Scalar::I32);
        auto gid = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        dst[gid] = b.load(b.index(src, idx));
    }
};

/** As ByteProbe, but with 32-bit elements (alignment/straddle cases). */
struct WordProbe : kc::KernelDef
{
    std::string name() const override { return "WordProbe"; }

    void
    build(Kb &b) override
    {
        auto idx = b.paramI32("idx");
        auto src = b.paramPtr("src", Scalar::I32);
        auto dst = b.paramPtr("dst", Scalar::I32);
        auto gid = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        dst[gid] = b.load(b.index(src, idx));
    }
};

constexpr unsigned kSrcBytes = 64;
constexpr unsigned kBlockDim = 32;
constexpr unsigned kGridDim = 4;

struct ProbeRun
{
    nocl::RunResult run;
    Buffer src;
    std::vector<uint32_t> dst;
};

/**
 * Run one probe on a fresh device. @p view_off / @p view_bytes carve a
 * sub-buffer view out of the 64-byte source allocation, mimicking a
 * host handing out an interior slice.
 */
ProbeRun
runProbe(kc::KernelDef &k, int idx, simt::ExecEngine engine, unsigned sms,
         uint32_t view_off = 0, uint32_t view_bytes = kSrcBytes)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.engineSel = engine;
    cfg.numSms = sms;
    Device dev(cfg, Mode::Purecap);

    Buffer src = dev.alloc(kSrcBytes);
    Buffer dst = dev.alloc(kBlockDim * kGridDim * 4);
    std::vector<uint8_t> bytes(kSrcBytes);
    for (unsigned i = 0; i < kSrcBytes; ++i)
        bytes[i] = static_cast<uint8_t>(0xa0 + i);
    dev.write8(src, bytes);

    const Buffer view{src.addr + view_off, view_bytes};
    nocl::LaunchConfig lc;
    lc.blockDim = kBlockDim;
    lc.gridDim = kGridDim;
    ProbeRun pr;
    pr.run = dev.launch(
        k, lc, {Arg::integer(idx), Arg::buffer(view), Arg::buffer(dst)});
    pr.src = src;
    pr.dst = dev.read32(dst);
    return pr;
}

/** The (engine) x (SM count) sweep every precision case runs over. */
template <typename Fn>
void
forEachGeometry(Fn &&fn)
{
    for (const simt::ExecEngine engine :
         {simt::ExecEngine::Simd, simt::ExecEngine::Verbatim}) {
        for (const unsigned sms : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(simt::execEngineName(engine)) + ", " +
                         std::to_string(sms) + " SMs");
            fn(engine, sms);
        }
    }
}

void
expectTrapAt(const ProbeRun &pr, simt::TrapKind kind, uint32_t addr)
{
    EXPECT_TRUE(pr.run.trapped);
    EXPECT_EQ(pr.run.trapKind, kind);
    EXPECT_EQ(pr.run.trapAddr, addr);
}

TEST(TrapPrecision, InBoundsEdgesDoNotTrap)
{
    ByteProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        for (const int idx : {0, static_cast<int>(kSrcBytes) - 1}) {
            const ProbeRun pr = runProbe(k, idx, engine, sms);
            EXPECT_TRUE(pr.run.completed);
            EXPECT_FALSE(pr.run.trapped)
                << "idx " << idx << ": "
                << simt::trapKindName(pr.run.trapKind);
            for (uint32_t v : pr.dst)
                EXPECT_EQ(v, 0xa0u + static_cast<uint32_t>(idx));
        }
    });
}

TEST(TrapPrecision, ByteBelowBaseTrapsAtBaseMinusOne)
{
    ByteProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        const ProbeRun pr = runProbe(k, -1, engine, sms);
        expectTrapAt(pr, simt::TrapKind::BoundsViolation,
                     pr.src.addr - 1);
    });
}

TEST(TrapPrecision, ByteAtTopTrapsAtTop)
{
    ByteProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        const ProbeRun pr = runProbe(k, kSrcBytes, engine, sms);
        expectTrapAt(pr, simt::TrapKind::BoundsViolation,
                     pr.src.addr + kSrcBytes);
    });
}

TEST(TrapPrecision, BytePastTopTrapsAtExactByte)
{
    ByteProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        const ProbeRun pr = runProbe(k, kSrcBytes + 1, engine, sms);
        expectTrapAt(pr, simt::TrapKind::BoundsViolation,
                     pr.src.addr + kSrcBytes + 1);
    });
}

TEST(TrapPrecision, MisalignedViewTrapsAtAccessAddress)
{
    // A 32-bit load through a +2 sub-buffer view: in bounds, misaligned.
    WordProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        const ProbeRun pr = runProbe(k, 0, engine, sms, 2, 8);
        expectTrapAt(pr, simt::TrapKind::MisalignedAccess,
                     pr.src.addr + 2);
    });
}

TEST(TrapPrecision, WordStraddlingTopTrapsAtItsFirstByte)
{
    // A 62-byte view: word 15 occupies bytes [60, 64) and straddles the
    // upper bound; the trap reports the access address, not the top.
    WordProbe k;
    forEachGeometry([&](simt::ExecEngine engine, unsigned sms) {
        const ProbeRun pr = runProbe(k, 15, engine, sms, 0, 62);
        expectTrapAt(pr, simt::TrapKind::BoundsViolation,
                     pr.src.addr + 60);
    });
}

} // namespace
