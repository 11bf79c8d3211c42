#include "ops.hpp"

#include <algorithm>

#include "simt/checkpoint.hpp"
#include "simt/config.hpp"
#include "simt/trap.hpp"
#include "support/rng.hpp"

namespace perfbench
{

const SweepConfig kBaseline{"baseline", kc::CompileOptions::Mode::Baseline};
const SweepConfig kCheriOpt{"cheri_opt", kc::CompileOptions::Mode::Purecap};

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Point:
        return "point";
      case OpKind::Golden:
        return "golden";
      case OpKind::ForkSite:
        return "fork_site";
      case OpKind::Replay:
        return "replay";
      case OpKind::CkptRoundTrip:
        return "ckpt_roundtrip";
    }
    return "?";
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::None:
        return "none";
      case Outcome::Detected:
        return "detected";
      case Outcome::Masked:
        return "masked";
      case Outcome::Corrupt:
        return "corrupt";
    }
    return "?";
}

namespace
{

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

void
mix(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
}

void
mix(uint64_t &h, const std::string &s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    mix(h, s.size());
}

/** Digest of a launch's modelled results (simhost_* stats describe the
 *  host simulation, not the model, and are left out). */
uint64_t
runDigest(const nocl::RunResult &run)
{
    uint64_t h = kFnvBasis;
    mix(h, run.completed);
    mix(h, run.trapped);
    mix(h, static_cast<uint64_t>(run.trapKind));
    mix(h, run.trapAddr);
    mix(h, run.cycles);
    for (uint64_t c : run.smCycles)
        mix(h, c);
    for (const auto &[name, value] : run.stats.all()) {
        if (name.rfind("simhost_", 0) == 0)
            continue;
        mix(h, name);
        mix(h, value);
    }
    return h;
}

/** Fold a launch's counters into the op's result. */
void
account(OpResult &r, const nocl::RunResult &run)
{
    r.hostNs += static_cast<int64_t>(run.hostNs);
    r.instrs += run.stats.get("instrs");
    r.cycles = run.cycles;
    r.smCycles = run.smCycles;
    r.simhostInstrs += run.stats.get("simhost_instrs");
    r.simhostFastpath += run.stats.get("simhost_fastpath_instrs");
    r.simhostPackedMem += run.stats.get("simhost_packed_mem_instrs");
    r.simhostFused += run.stats.get("simhost_fused_instrs");
    if (run.mergeFallback) {
        ++r.mergeFallbacks;
        r.failed = true;
        r.failure = "merge fallback: " + run.mergeFallbackReason;
    }
}

void
fail(OpResult &r, const std::string &why)
{
    if (!r.failed) {
        r.failed = true;
        r.failure = why;
    }
}

/** A fault-free launch must complete, untrapped. */
void
expectClean(OpResult &r, const nocl::RunResult &run)
{
    if (run.trapped)
        fail(r, std::string("unexpected trap: ") +
                    simt::trapKindName(run.trapKind));
    else if (!run.completed)
        fail(r, "launch did not complete");
}

} // namespace

/** A bench's campaign cell: the golden device and what its sites need. */
struct Runner::Cell
{
    std::unique_ptr<kernels::Benchmark> bench;
    std::unique_ptr<nocl::Device> dev;
    kernels::Prepared prep;
    std::shared_ptr<const kc::CompiledKernel> compiled;
    uint64_t goldenCycles = 0;
    uint64_t maxCycles = 0; ///< site watchdog, as the fault campaign
    uint32_t heapLo = 0;
    uint32_t heapHi = 0;
    std::vector<std::pair<std::string, simt::FaultPlan>> plans;
    std::vector<uint64_t> goldenHashes; ///< per plan, its word excluded

    // The fork classification of every site (replays must match it).
    std::vector<Outcome> outcomes;
    std::vector<simt::TrapKind> trapKinds;
    std::vector<uint32_t> trapAddrs;
};

Runner::Runner(const WorkloadSpec &spec, uint64_t seed, Recorder &rec)
    : spec_(spec), seed_(seed), rec_(rec)
{
    for (const auto &bench : kernels::makeSuite())
        names_.push_back(bench->name());
}

Runner::~Runner() = default;

simt::SmConfig
Runner::smConfig(kc::CompileOptions::Mode mode) const
{
    simt::SmConfig cfg = mode == kc::CompileOptions::Mode::Baseline
                             ? simt::SmConfig::baseline()
                             : simt::SmConfig::cheriOptimised();
    cfg.numSms = spec_.sms;
    return cfg;
}

std::shared_ptr<const kc::CompiledKernel>
Runner::compile(nocl::Device &dev, const kernels::Prepared &p, OpResult &r)
{
    nocl::KernelCache &cache = nocl::KernelCache::instance();
    const uint64_t misses = cache.misses();
    Span s(rec_, "nocl.compileCached");
    auto compiled = dev.compileCached(*p.kernel, p.cfg);
    const int64_t ns = s.stop();
    if (cache.misses() != misses) {
        // A miss compiles: from outside, the whole call is kc's time.
        s.childAtEnd("kc.compile", ns);
        r.setupNs += ns;
        ++r.cacheMisses;
    } else {
        ++r.cacheHits;
    }
    return compiled;
}

OpResult
Runner::runPoint(size_t b, const SweepConfig &cfg, const std::string &id)
{
    OpResult r;
    r.kind = OpKind::Point;
    r.config = cfg.label;
    r.bench = b;
    rec_.beginOp(id);
    Span op(rec_, "op.point");

    auto bench = kernels::makeBenchmark(names_[b]);
    std::unique_ptr<nocl::Device> dev;
    {
        Span s(rec_, "nocl.Device");
        dev = std::make_unique<nocl::Device>(smConfig(cfg.mode), cfg.mode);
        r.setupNs += s.stop();
    }
    kernels::Prepared p;
    {
        Span s(rec_, "kernels.prepare");
        p = bench->prepare(*dev, spec_.sweepSize);
        r.setupNs += s.stop();
    }
    const auto compiled = compile(*dev, p, r);
    nocl::RunResult run;
    {
        Span s(rec_, "nocl.launchCompiled");
        run = dev->launchCompiled(compiled, p.cfg, p.args);
        s.childAtEnd("simt.run", static_cast<int64_t>(run.hostNs));
    }
    bool ok = false;
    {
        Span s(rec_, "kernels.verify");
        ok = p.verify(*dev);
    }
    uint64_t out_hash = 0;
    {
        Span s(rec_, "simt.data_hash");
        out_hash = dev->dram().dataHash(dev->heapStart(),
                                        dev->heapEnd() - dev->heapStart());
    }
    {
        Span s(rec_, "nocl.~Device");
        dev.reset();
    }
    r.wallNs = op.stop();

    account(r, run);
    expectClean(r, run);
    if (!ok)
        fail(r, "verify failed");
    r.digest = runDigest(run);
    mix(r.digest, out_hash);
    return r;
}

OpResult
Runner::runGolden(size_t b, Cell &cell, const std::string &id)
{
    OpResult r;
    r.kind = OpKind::Golden;
    r.config = kCheriOpt.label;
    r.bench = b;
    rec_.beginOp(id);
    Span op(rec_, "op.golden");

    cell.bench = kernels::makeBenchmark(names_[b]);
    {
        Span s(rec_, "nocl.Device");
        cell.dev = std::make_unique<nocl::Device>(smConfig(kCheriOpt.mode),
                                                  kCheriOpt.mode);
        r.setupNs += s.stop();
    }
    {
        Span s(rec_, "kernels.prepare");
        cell.prep = cell.bench->prepare(*cell.dev, kernels::Size::Small);
        r.setupNs += s.stop();
    }
    cell.compiled = compile(*cell.dev, cell.prep, r);

    std::unique_ptr<nocl::SteppedLaunch> g;
    {
        Span s(rec_, "nocl.beginStepped");
        g = cell.dev->beginStepped(cell.compiled, cell.prep.cfg,
                                   cell.prep.args);
    }
    nocl::RunResult run;
    {
        Span s(rec_, "nocl.finish");
        run = g->finish(nocl::LaunchPolicy{}.maxCycles);
        s.childAtEnd("simt.run", static_cast<int64_t>(run.hostNs));
    }
    bool ok = false;
    {
        Span s(rec_, "kernels.verify");
        ok = cell.prep.verify(*cell.dev);
    }
    cell.goldenCycles = run.cycles;
    cell.maxCycles = std::max<uint64_t>(run.cycles * 4, 100'000);
    cell.heapLo = cell.dev->heapStart();
    cell.heapHi = cell.dev->heapEnd();
    cell.plans = deriveSitePlans(*cell.compiled, cell.prep.args, seed_, b,
                                 spec_.forkSites);
    cell.goldenHashes.clear();
    for (const auto &plan : cell.plans) {
        Span s(rec_, "simt.data_hash");
        cell.goldenHashes.push_back(cell.dev->dram().dataHash(
            cell.heapLo, cell.heapHi - cell.heapLo, plan.second.addr & ~3u,
            4));
    }
    {
        Span s(rec_, "nocl.restoreBase");
        g->restoreBase();
    }
    g.reset();
    r.wallNs = op.stop();

    account(r, run);
    expectClean(r, run);
    if (!ok)
        fail(r, "verify failed");
    r.digest = runDigest(run);
    for (uint64_t h : cell.goldenHashes)
        mix(r.digest, h);
    return r;
}

/**
 * The fault campaign's classification of a faulty run: a trap is
 * detected; a completed run that verifies and leaves the heap as the
 * golden run did (the corrupted word excluded) is masked; anything else
 * is silent corruption.
 */
Outcome
Runner::classify(nocl::Device &dev, const kernels::Prepared &p,
                 const Cell &cell, size_t site, const nocl::RunResult &run)
{
    if (run.trapped)
        return Outcome::Detected;
    bool ok = false;
    {
        Span s(rec_, "kernels.verify");
        ok = p.verify(dev);
    }
    uint64_t h = 0;
    {
        Span s(rec_, "simt.data_hash");
        h = dev.dram().dataHash(cell.heapLo, cell.heapHi - cell.heapLo,
                                cell.plans[site].second.addr & ~3u, 4);
    }
    return run.completed && ok && h == cell.goldenHashes[site]
               ? Outcome::Masked
               : Outcome::Corrupt;
}

OpResult
Runner::runForkSite(size_t b, Cell &cell, size_t site,
                    const std::string &id)
{
    const auto &[cls, plan] = cell.plans[site];
    OpResult r;
    r.kind = OpKind::ForkSite;
    r.config = kCheriOpt.label;
    r.bench = b;
    r.cls = cls;
    rec_.beginOp(id);
    Span op(rec_, "op.fork_site");

    std::unique_ptr<nocl::SteppedLaunch> sl;
    {
        Span s(rec_, "nocl.beginStepped");
        sl = cell.dev->beginStepped(cell.compiled, cell.prep.cfg,
                                    cell.prep.args, &plan);
    }
    nocl::RunResult run;
    {
        Span s(rec_, "nocl.finish");
        run = sl->finish(cell.maxCycles);
        s.childAtEnd("simt.run", static_cast<int64_t>(run.hostNs));
    }
    r.outcome = classify(*cell.dev, cell.prep, cell, site, run);
    {
        Span s(rec_, "nocl.restoreBase");
        sl->restoreBase();
    }
    sl.reset();
    r.wallNs = op.stop();

    account(r, run);
    if (r.outcome == Outcome::Corrupt && cls != "data")
        fail(r, "CHERI " + cls + " fault corrupted silently");
    cell.outcomes[site] = r.outcome;
    cell.trapKinds[site] = run.trapKind;
    cell.trapAddrs[site] = run.trapAddr;
    r.digest = runDigest(run);
    mix(r.digest, static_cast<uint64_t>(r.outcome));
    return r;
}

OpResult
Runner::runReplay(size_t b, Cell &cell, size_t site, const std::string &id)
{
    const auto &[cls, plan] = cell.plans[site];
    OpResult r;
    r.kind = OpKind::Replay;
    r.config = kCheriOpt.label;
    r.bench = b;
    r.cls = cls;
    rec_.beginOp(id);
    Span op(rec_, "op.replay");

    auto bench = kernels::makeBenchmark(names_[b]);
    simt::SmConfig cfg = smConfig(kCheriOpt.mode);
    cfg.faultPlan = plan;
    std::unique_ptr<nocl::Device> dev;
    {
        Span s(rec_, "nocl.Device");
        dev = std::make_unique<nocl::Device>(cfg, kCheriOpt.mode);
        r.setupNs += s.stop();
    }
    kernels::Prepared p;
    {
        Span s(rec_, "kernels.prepare");
        p = bench->prepare(*dev, kernels::Size::Small);
        r.setupNs += s.stop();
    }
    const auto compiled = compile(*dev, p, r);
    nocl::LaunchPolicy policy;
    policy.maxCycles = cell.maxCycles;
    policy.maxRetries = 0;
    nocl::RunResult run;
    {
        Span s(rec_, "nocl.launchWithPolicy");
        run = dev->launchWithPolicy(compiled, p.cfg, p.args, policy);
        s.childAtEnd("simt.run", static_cast<int64_t>(run.hostNs));
    }
    r.outcome = classify(*dev, p, cell, site, run);
    {
        Span s(rec_, "nocl.~Device");
        dev.reset();
    }
    r.wallNs = op.stop();

    account(r, run);
    if (r.outcome != cell.outcomes[site] ||
        run.trapKind != cell.trapKinds[site] ||
        run.trapAddr != cell.trapAddrs[site])
        fail(r, std::string("replay classified ") + outcomeName(r.outcome) +
                    " but the fork " + outcomeName(cell.outcomes[site]));
    if (r.outcome == Outcome::Corrupt && cls != "data")
        fail(r, "CHERI " + cls + " fault corrupted silently");
    r.digest = runDigest(run);
    mix(r.digest, static_cast<uint64_t>(r.outcome));
    return r;
}

OpResult
Runner::runCkptRoundTrip(size_t b, Cell &cell, const std::string &id)
{
    OpResult r;
    r.kind = OpKind::CkptRoundTrip;
    r.config = kCheriOpt.label;
    r.bench = b;
    rec_.beginOp(id);
    Span op(rec_, "op.ckpt_roundtrip");

    const auto heapHash = [&] {
        Span s(rec_, "simt.data_hash");
        return cell.dev->dram().dataHash(cell.heapLo,
                                         cell.heapHi - cell.heapLo);
    };
    const uint64_t max_cycles = nocl::LaunchPolicy{}.maxCycles;

    std::unique_ptr<nocl::SteppedLaunch> sl;
    {
        Span s(rec_, "nocl.beginStepped");
        sl = cell.dev->beginStepped(cell.compiled, cell.prep.cfg,
                                    cell.prep.args);
    }
    {
        Span s(rec_, "simt.runUntil");
        sl->runUntil(cell.goldenCycles / 2);
    }
    // Saving is a pure read of the launch, so the image is taken three
    // times: the saves must agree byte for byte, and the op reports
    // their median time.
    std::vector<uint8_t> image;
    std::vector<int64_t> save_ns;
    bool saves_agree = true;
    for (int k = 0; k < 3; ++k) {
        Span s(rec_, "simt.ckpt_save");
        std::vector<uint8_t> again = sl->saveCheckpoint();
        save_ns.push_back(s.stop());
        if (k == 0)
            image = std::move(again);
        else
            saves_agree = saves_agree && again == image;
    }
    std::sort(save_ns.begin(), save_ns.end());
    r.ckptSaveNs = save_ns[1];
    r.ckptBytes = image.size();
    nocl::RunResult live;
    {
        Span s(rec_, "nocl.finish");
        live = sl->finish(max_cycles);
        s.childAtEnd("simt.run", static_cast<int64_t>(live.hostNs));
    }
    const uint64_t live_hash = heapHash();
    {
        Span s(rec_, "nocl.restoreBase");
        sl->restoreBase();
    }
    sl.reset();

    simt::ckpt::Error err;
    {
        Span s(rec_, "simt.ckpt_restore");
        sl = cell.dev->restoreStepped(image, &err);
        r.ckptRestoreNs = s.stop();
    }
    const bool restore_ok = sl != nullptr;
    nocl::RunResult restored;
    uint64_t restored_hash = 0;
    if (restore_ok) {
        {
            Span s(rec_, "nocl.finish");
            restored = sl->finish(max_cycles);
            s.childAtEnd("simt.run", static_cast<int64_t>(restored.hostNs));
        }
        restored_hash = heapHash();
        {
            Span s(rec_, "nocl.restoreBase");
            sl->restoreBase();
        }
        sl.reset();
    }
    r.wallNs = op.stop();

    account(r, live);
    expectClean(r, live);
    if (!saves_agree)
        fail(r, "saveCheckpoint gave different images of one state");
    else if (!restore_ok)
        fail(r, "restoreStepped refused the image: " + err.message);
    else if (runDigest(restored) != runDigest(live) ||
             restored_hash != live_hash)
        fail(r, "restored run finished differently from the live run");
    else if (live.cycles != cell.goldenCycles)
        fail(r, "checkpointed run finished differently from the golden run");
    r.digest = runDigest(live);
    mix(r.digest, live_hash);
    mix(r.digest, r.ckptBytes);
    return r;
}

void
Runner::runUnit(size_t b, unsigned round, std::vector<OpResult> &out)
{
    const std::string prefix =
        spec_.name + "/r" + std::to_string(round) + "/";
    for (const SweepConfig &cfg : {kBaseline, kCheriOpt})
        out.push_back(runPoint(b, cfg,
                               prefix + cfg.label + "/" + names_[b] +
                                   "/point"));

    if (b % spec_.cellEvery != 0)
        return;
    const std::string cell_prefix =
        prefix + kCheriOpt.label + "/" + names_[b] + "/";
    Cell cell;
    out.push_back(runGolden(b, cell, cell_prefix + "golden"));
    const size_t n = cell.plans.size();
    cell.outcomes.assign(n, Outcome::None);
    cell.trapKinds.assign(n, simt::TrapKind::None);
    cell.trapAddrs.assign(n, 0);
    for (size_t j = 0; j < n; ++j) {
        out.push_back(runForkSite(b, cell, j,
                                  cell_prefix + "site" + std::to_string(j)));
    }
    // Replay consecutive mid-range sites, as the scaled campaign samples
    // them: with three or more, every fault class is covered.
    const size_t replays = std::min<size_t>(spec_.replays, n);
    for (size_t k = 0; k < replays; ++k) {
        const size_t j = (n / 2 + k) % n;
        out.push_back(runReplay(b, cell, j,
                                cell_prefix + "replay" + std::to_string(j)));
    }
    out.push_back(runCkptRoundTrip(b, cell, cell_prefix + "ckpt"));

    Span s(rec_, "bench.cell_teardown");
    cell.dev.reset();
}

std::vector<std::pair<std::string, simt::FaultPlan>>
deriveSitePlans(const kc::CompiledKernel &compiled,
                const std::vector<nocl::Arg> &args, uint64_t seed,
                size_t bench_idx, uint64_t count)
{
    std::vector<uint32_t> slots;
    for (const kc::ParamSlot &s : compiled.params)
        if (s.isPtr)
            slots.push_back(kc::argBlockAddress() + s.offset);
    std::vector<nocl::Buffer> bufs;
    for (const nocl::Arg &a : args)
        if (a.kind == nocl::Arg::Kind::Buf && a.buf.bytes >= 4)
            bufs.push_back(a.buf);

    support::Rng rng(0x2545f4914f6cdd1dull * (seed + 1) ^
                     0x9e3779b97f4a7c15ull *
                         (static_cast<uint64_t>(bench_idx) + 1));
    static const char *const kClasses[3] = {"tag", "capmeta", "data"};

    std::vector<std::pair<std::string, simt::FaultPlan>> plans;
    plans.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
        // Fixed draw order regardless of class and available targets.
        const uint32_t slot_pick = rng.nextBounded(
            std::max<uint32_t>(1, static_cast<uint32_t>(slots.size())));
        const uint32_t buf_pick = rng.nextBounded(
            std::max<uint32_t>(1, static_cast<uint32_t>(bufs.size())));
        const uint32_t word_max =
            bufs.empty() ? 1 : std::max(1u, bufs[buf_pick].bytes / 4);
        const uint32_t word_pick = rng.nextBounded(word_max);
        const uint32_t bit = rng.nextBounded(32);
        rng.nextBounded(8);  // CHERI-off pointer-flip bits: drawn to keep
        rng.nextBounded(10); // the recipe's order, unused with CHERI on

        std::string cls = kClasses[j % 3];
        if (slots.empty() && cls != "data")
            cls = "data";
        if (bufs.empty() && cls == "data")
            cls = "capmeta";

        simt::FaultPlan plan;
        if (cls == "tag") {
            plan.site = simt::FaultSite::TagClear;
            plan.addr = slots[slot_pick];
        } else if (cls == "capmeta") {
            plan.site = simt::FaultSite::DramWordFlip;
            plan.addr = slots[slot_pick] + 4;
            plan.bit = bit;
        } else {
            plan.site = simt::FaultSite::DramWordFlip;
            plan.addr = bufs[buf_pick].addr + 4 * word_pick;
            plan.bit = bit;
        }
        plans.emplace_back(cls, plan);
    }
    return plans;
}

} // namespace perfbench
