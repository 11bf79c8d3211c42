/**
 * @file
 * The benchmark's ops: each is one closed-loop unit of work made of
 * calls into the simulator's public API, every call timed from outside
 * by a Span.
 *
 *  - point: a fresh nocl::Device, Benchmark::prepare, compileCached,
 *    launchCompiled, verify and a heap hash -- one point of a bench
 *    sweep, as the bench harness runs it;
 *  - golden: the set-up of a bench's campaign cell -- a fresh device,
 *    prepare, compile and the fault-free run as a stepped launch, whose
 *    committed image gives every site's reference hash, then
 *    restoreBase;
 *  - fork_site: one fault site run as a delta off the golden device --
 *    beginStepped with the site's memory fault, finish, classify,
 *    restoreBase;
 *  - replay: the same site run the pre-fork way -- a fresh device
 *    built with the fault plan, prepare, compile, launchWithPolicy --
 *    which must classify exactly as the fork did;
 *  - ckpt_roundtrip: a stepped launch stopped half-way, saved with
 *    saveCheckpoint (three times: the images must agree) and finished,
 *    then restored with restoreStepped and finished again; both runs
 *    must end identically.
 */

#ifndef PERFBENCH_OPS_HPP_
#define PERFBENCH_OPS_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/faultinject.hpp"
#include "spans.hpp"

namespace perfbench
{

/** A sweep configuration: the paper's Fig 13 pair. */
struct SweepConfig
{
    const char *label;
    kc::CompileOptions::Mode mode;
};

extern const SweepConfig kBaseline;
extern const SweepConfig kCheriOpt;

/**
 * A workload. Per bench and round it runs one sweep point per config
 * (kBaseline, kCheriOpt) and, on every cellEvery-th bench in suite
 * order, a campaign cell: cheri_opt at small size, as the scaled fault
 * campaign runs, with forkSites fault sites of which the first
 * `replays` past the middle are also replayed.
 */
struct WorkloadSpec
{
    std::string name;
    kernels::Size sweepSize = kernels::Size::Full;

    /** Simulated SMs of every device the workload builds. */
    unsigned sms = 1;

    unsigned cellEvery = 1;
    unsigned forkSites = 3;
    unsigned replays = 1;
};

enum class OpKind : uint8_t
{
    Point,
    Golden,
    ForkSite,
    Replay,
    CkptRoundTrip,
};

const char *opKindName(OpKind kind);

enum class Outcome : uint8_t
{
    None, ///< not a fault site
    Detected,
    Masked,
    Corrupt,
};

const char *outcomeName(Outcome outcome);

/** What one execution of an op measured and checked. */
struct OpResult
{
    OpKind kind = OpKind::Point;
    std::string config; ///< sweep label, or "cheri_opt" for cell ops
    size_t bench = 0;

    bool failed = false;
    std::string failure;

    /** FNV-1a over the op's modelled results: cycles, per-SM cycles,
     *  trap, outcome, every non-simhost_* stat and the output hash. */
    uint64_t digest = 0;

    bool traced = false; ///< ran while spans were being recorded
    int64_t wallNs = 0;
    int64_t setupNs = 0; ///< Device ctor + prepare + compile on a miss
    int64_t hostNs = 0;  ///< sum of RunResult::hostNs

    uint64_t instrs = 0; ///< simulated warp instructions ("instrs")
    uint64_t cycles = 0;
    std::vector<uint64_t> smCycles;
    uint64_t simhostInstrs = 0;
    uint64_t simhostFastpath = 0;
    uint64_t simhostPackedMem = 0;
    uint64_t simhostFused = 0;
    unsigned mergeFallbacks = 0;

    unsigned cacheHits = 0;
    unsigned cacheMisses = 0;

    std::string cls; ///< fault class of a site: tag | capmeta | data
    Outcome outcome = Outcome::None;

    int64_t ckptSaveNs = 0;
    int64_t ckptRestoreNs = 0;
    uint64_t ckptBytes = 0;
};

/**
 * Runs a workload's ops, one bench at a time. A unit is everything the
 * workload does for one bench in one round: its sweep points, then its
 * campaign cell (golden, fork sites, replays, checkpoint round-trip).
 */
class Runner
{
  public:
    Runner(const WorkloadSpec &spec, uint64_t seed, Recorder &rec);
    ~Runner();
    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    size_t benches() const { return names_.size(); }
    const std::string &benchName(size_t b) const { return names_.at(b); }

    /** Run bench @p b's unit of round @p round, appending its ops. */
    void runUnit(size_t b, unsigned round, std::vector<OpResult> &out);

  private:
    struct Cell;

    OpResult runPoint(size_t b, const SweepConfig &cfg,
                      const std::string &id);
    OpResult runGolden(size_t b, Cell &cell, const std::string &id);
    OpResult runForkSite(size_t b, Cell &cell, size_t site,
                         const std::string &id);
    OpResult runReplay(size_t b, Cell &cell, size_t site,
                       const std::string &id);
    OpResult runCkptRoundTrip(size_t b, Cell &cell, const std::string &id);

    Outcome classify(nocl::Device &dev, const kernels::Prepared &p,
                     const Cell &cell, size_t site,
                     const nocl::RunResult &run);

    simt::SmConfig smConfig(kc::CompileOptions::Mode mode) const;
    std::shared_ptr<const kc::CompiledKernel>
    compile(nocl::Device &dev, const kernels::Prepared &p, OpResult &r);

    WorkloadSpec spec_;
    uint64_t seed_;
    Recorder &rec_;
    std::vector<std::string> names_;
};

/**
 * The campaign's fault-site plans for one bench: classes rotate tag ->
 * capmeta -> data, and every random draw comes in a fixed order from a
 * (seed, bench index) generator. The recipe of the scaled fault
 * campaign (bench/faultcampaign.cpp), restated here because that one is
 * internal to the bench binaries.
 */
std::vector<std::pair<std::string, simt::FaultPlan>>
deriveSitePlans(const kc::CompiledKernel &compiled,
                const std::vector<nocl::Arg> &args, uint64_t seed,
                size_t bench_idx, uint64_t count);

} // namespace perfbench

#endif // PERFBENCH_OPS_HPP_
