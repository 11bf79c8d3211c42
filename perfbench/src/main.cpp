/**
 * @file
 * The repository benchmark program (see ../README.md): runs one
 * workload for a fixed time in closed loop, checks every op's outputs
 * and prints every metric by name and unit. The last stdout line is
 *
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 *
 * with the end-to-end metrics under --trace 0 and the per-layer metrics
 * (from spans recorded around every API call) under --trace 1.
 *
 *   perfbench --workload paper_sweep|multi_sm|campaign --seed <n>
 *             --seconds <s> --trace 0|1 [--smoke] [--out <dir>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "ops.hpp"
#include "simt/engine.hpp"
#include "spans.hpp"
#include "support/json.hpp"

namespace
{

using namespace perfbench;

/** Fig 13's geomean CHERI execution-time overhead, in percent: the
 *  model's only reference number. */
constexpr double kPaperOverheadPct = 1.6;

/** Largest share of a traced unit's wall time its top-level spans may
 *  leave unaccounted before the trace is rejected. */
constexpr double kReconcileTolerance = 0.02;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_sweep|multi_sm|campaign --seed <n> --seconds <s> "
                 "--trace 0|1 [--smoke] [--out <dir>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a whole number");
            have_seed = true;
        } else if (a == "--seconds") {
            const std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0))
                usage("--seconds takes a positive number");
            have_seconds = true;
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--out") {
            o.out = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

/**
 * The three workloads. Every workload runs every op kind -- sweep
 * points of both Fig 13 configs and a campaign cell per bench -- so
 * each reports every metric; what dominates differs. --smoke shrinks
 * every size to small for the benchmark's own test.
 */
std::optional<WorkloadSpec>
specFor(const std::string &name, bool smoke)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "paper_sweep") {
        s.sweepSize = kernels::Size::Full;
        s.sms = 1;
        s.cellEvery = 3;
        s.forkSites = 48;
        s.replays = 3;
    } else if (name == "multi_sm") {
        s.sweepSize = kernels::Size::Full;
        s.sms = 4;
        s.cellEvery = 3;
        s.forkSites = 48;
        s.replays = 3;
    } else if (name == "campaign") {
        s.sweepSize = kernels::Size::Small;
        s.sms = 1;
        s.forkSites = 16;
        s.replays = 2;
    } else {
        return std::nullopt;
    }
    if (smoke) {
        s.sweepSize = kernels::Size::Small;
        s.forkSites = 3;
        s.replays = 1;
    }
    return s;
}

// ---- Statistics over op slots ----

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/**
 * Every round repeats the same op list, so op i of one round and op i
 * of the next are the same op (a slot). A timing is the median or the
 * minimum over a slot's samples; a workload-level figure combines its
 * slots' values, which stays defined when the last round is cut short.
 */
struct Slots
{
    std::vector<std::vector<const OpResult *>> samples;

    void
    add(size_t slot, const OpResult &r)
    {
        if (samples.size() <= slot)
            samples.resize(slot + 1);
        samples[slot].push_back(&r);
    }

    const OpResult &first(size_t slot) const { return *samples[slot][0]; }

    template <typename F>
    double
    medianOf(size_t slot, F field) const
    {
        std::vector<double> v;
        for (const OpResult *r : samples[slot])
            v.push_back(static_cast<double>(field(*r)));
        return median(v);
    }

    /** The fastest of a slot's rounds: a shared host only ever slows an
     *  op down, so this is the sample its neighbours disturbed least. */
    template <typename F>
    double
    minOf(size_t slot, F field) const
    {
        double best = static_cast<double>(field(*samples[slot][0]));
        for (const OpResult *r : samples[slot])
            best = std::min(best, static_cast<double>(field(*r)));
        return best;
    }
};

struct Metric
{
    std::string name;
    std::string unit;
    const char *better; ///< "higher" | "lower"
    double value;
};

void
putMetric(std::vector<Metric> &out, std::string name, std::string unit,
          const char *better, double value)
{
    out.push_back({std::move(name), std::move(unit), better, value});
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** Geomean over benches of the cheri_opt / baseline cycle ratio, from
 *  the first round's sweep points. */
double
cheriOverheadPct(const Slots &slots)
{
    std::map<size_t, uint64_t> base, cheri;
    for (size_t i = 0; i < slots.samples.size(); ++i) {
        const OpResult &r = slots.first(i);
        if (r.kind != OpKind::Point)
            continue;
        (r.config == kBaseline.label ? base : cheri)[r.bench] = r.cycles;
    }
    double log_sum = 0.0;
    unsigned n = 0;
    for (const auto &[b, cycles] : cheri) {
        const auto it = base.find(b);
        if (it == base.end() || it->second == 0 || cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(cycles) /
                            static_cast<double>(it->second));
        ++n;
    }
    return n ? (std::exp(log_sum / n) - 1.0) * 100.0 : 0.0;
}

/**
 * Throughputs and checkpoint times take each op's fastest round, which
 * holds steadier than the median while the host's speed varies from
 * round to round (see ../README.md, Noise). setup_s takes the median.
 */
std::vector<Metric>
endToEndMetrics(const Slots &slots)
{
    double point_instrs = 0, point_wall = 0, setup = 0;
    double replay_n = 0, replay_wall = 0;
    std::vector<double> save_ms, restore_ms;
    for (size_t i = 0; i < slots.samples.size(); ++i) {
        const OpResult &r = slots.first(i);
        const double wall =
            slots.minOf(i, [](const OpResult &o) { return o.wallNs; });
        setup +=
            slots.medianOf(i, [](const OpResult &o) { return o.setupNs; });
        switch (r.kind) {
          case OpKind::Point:
            point_instrs += static_cast<double>(r.instrs);
            point_wall += wall;
            break;
          case OpKind::Replay:
            replay_n += 1;
            replay_wall += wall;
            break;
          case OpKind::CkptRoundTrip:
            save_ms.push_back(
                slots.minOf(i,
                            [](const OpResult &o) { return o.ckptSaveNs; }) /
                1e6);
            restore_ms.push_back(
                slots.minOf(i,
                            [](const OpResult &o) { return o.ckptRestoreNs; }) /
                1e6);
            break;
          case OpKind::Golden:
          case OpKind::ForkSite:
            break;
        }
    }
    std::vector<Metric> m;
    putMetric(m, "sim_minstr_per_s", "Minstr/s", "higher",
              point_instrs / point_wall * 1e3);
    putMetric(m, "setup_s", "s", "lower", setup / 1e9);
    putMetric(m, "peak_rss_mb", "MB", "lower", peakRssMb());
    putMetric(m, "replay_sites_per_s", "1/s", "higher",
              replay_n / (replay_wall / 1e9));
    putMetric(m, "ckpt_save_ms", "ms", "lower", median(save_ms));
    putMetric(m, "ckpt_restore_ms", "ms", "lower", median(restore_ms));
    putMetric(m, "cheri_overhead_err_pp", "pp", "lower",
              std::fabs(cheriOverheadPct(slots) - kPaperOverheadPct));
    return m;
}

/** Median self time, in ms, of the spans named @p name. */
double
spanMs(const Recorder &rec, const char *name)
{
    return median(rec.selfNsOf(name)) / 1e6;
}

std::vector<Metric>
perLayerMetrics(const Slots &slots, const Recorder &rec,
                double trace_overhead_pct, double unaccounted)
{
    std::vector<Metric> m;
    const std::vector<double> ctor = rec.selfNsOf("nocl.Device");
    putMetric(m, "nocl.device_ctor_ms.p50", "ms", "lower",
              percentile(ctor, 50) / 1e6);
    putMetric(m, "nocl.device_ctor_ms.p90", "ms", "lower",
              percentile(ctor, 90) / 1e6);
    putMetric(m, "kernels.prepare_ms", "ms", "lower",
              spanMs(rec, "kernels.prepare"));
    putMetric(m, "kc.compile_ms", "ms", "lower", spanMs(rec, "kc.compile"));

    // Deterministic counts come from the first round.
    uint64_t hits = 0, misses = 0, fallbacks = 0;
    uint64_t sh_instrs = 0, sh_fast = 0, sh_packed = 0, sh_fused = 0;
    std::map<std::string, unsigned> outcomes;
    double sim_ns = 0, fork_n = 0, fork_wall = 0;
    std::map<std::string, std::pair<double, double>> ns_instrs; // per config
    std::vector<double> ckpt_bytes;
    double log_imbalance = 0;
    unsigned points = 0;
    for (size_t i = 0; i < slots.samples.size(); ++i) {
        const OpResult &r = slots.first(i);
        hits += r.cacheHits;
        misses += r.cacheMisses;
        fallbacks += r.mergeFallbacks;
        sh_instrs += r.simhostInstrs;
        sh_fast += r.simhostFastpath;
        sh_packed += r.simhostPackedMem;
        sh_fused += r.simhostFused;
        const double host =
            slots.medianOf(i, [](const OpResult &o) { return o.hostNs; });
        sim_ns += host;
        if (r.kind == OpKind::Point) {
            auto &[ns, n] = ns_instrs[r.config];
            ns += host;
            n += static_cast<double>(r.instrs);
            uint64_t max_c = 0, sum_c = 0;
            for (uint64_t c : r.smCycles) {
                max_c = std::max(max_c, c);
                sum_c += c;
            }
            if (sum_c != 0) {
                log_imbalance += std::log(
                    static_cast<double>(max_c) * r.smCycles.size() /
                    static_cast<double>(sum_c));
                ++points;
            }
        }
        if (r.kind == OpKind::ForkSite) {
            fork_n += 1;
            fork_wall +=
                slots.medianOf(i, [](const OpResult &o) { return o.wallNs; });
            ++outcomes[outcomeName(r.outcome)];
            if (r.outcome == Outcome::Corrupt && r.cls != "data")
                ++outcomes["protection_corrupt"];
        }
        if (r.kind == OpKind::CkptRoundTrip)
            ckpt_bytes.push_back(static_cast<double>(r.ckptBytes));
    }
    const auto share = [](uint64_t num, uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    putMetric(m, "nocl.kernel_cache_hits", "count", "higher",
              static_cast<double>(hits));
    putMetric(m, "nocl.kernel_cache_misses", "count", "lower",
              static_cast<double>(misses));
    putMetric(m, "simt.sim_s", "s", "lower", sim_ns / 1e9);
    for (const SweepConfig &cfg : {kBaseline, kCheriOpt}) {
        const auto &[ns, n] = ns_instrs[cfg.label];
        putMetric(m, std::string("simt.ns_per_warp_instr.") + cfg.label,
                  "ns", "lower", n > 0 ? ns / n : 0.0);
    }
    putMetric(m, "simt.fastpath_share", "ratio", "higher",
              share(sh_fast, sh_instrs));
    putMetric(m, "simt.packed_mem_share", "ratio", "higher",
              share(sh_packed, sh_instrs));
    putMetric(m, "simt.fused_share", "ratio", "higher",
              share(sh_fused, sh_instrs));
    putMetric(m, "nocl.launch_overhead_ms", "ms", "lower",
              spanMs(rec, "nocl.launchCompiled"));
    putMetric(m, "simt.sm_imbalance", "ratio", "lower",
              points ? std::exp(log_imbalance / points) : 1.0);
    putMetric(m, "simt.merge_fallbacks", "count", "lower",
              static_cast<double>(fallbacks));
    putMetric(m, "nocl.policy_overhead_ms", "ms", "lower",
              spanMs(rec, "nocl.launchWithPolicy"));
    putMetric(m, "nocl.begin_stepped_ms", "ms", "lower",
              spanMs(rec, "nocl.beginStepped"));
    putMetric(m, "nocl.finish_overhead_ms", "ms", "lower",
              spanMs(rec, "nocl.finish"));
    putMetric(m, "nocl.restore_base_ms", "ms", "lower",
              spanMs(rec, "nocl.restoreBase"));
    putMetric(m, "kernels.verify_ms", "ms", "lower",
              spanMs(rec, "kernels.verify"));
    putMetric(m, "simt.data_hash_ms", "ms", "lower",
              spanMs(rec, "simt.data_hash"));
    putMetric(m, "simt.ckpt_bytes", "bytes", "lower", median(ckpt_bytes));
    putMetric(m, "campaign.detected", "count", "higher",
              static_cast<double>(outcomes["detected"]));
    putMetric(m, "campaign.masked", "count", "higher",
              static_cast<double>(outcomes["masked"]));
    putMetric(m, "campaign.corrupt", "count", "lower",
              static_cast<double>(outcomes["corrupt"]));
    putMetric(m, "campaign.protection_corrupt", "count", "lower",
              static_cast<double>(outcomes["protection_corrupt"]));
    putMetric(m, "campaign.fork_sites_per_s", "1/s", "higher",
              fork_n / (fork_wall / 1e9));

    // Layer self-time shares of the traced top-level time.
    const double top = static_cast<double>(rec.topLevelNs());
    const auto layers = rec.layerSelfNs();
    for (const char *layer : {"nocl", "kc", "kernels", "simt", "op", "bench"}) {
        const auto it = layers.find(layer);
        const double ns =
            it == layers.end() ? 0.0 : static_cast<double>(it->second);
        // Time in simulation is the work; every other layer's is overhead.
        putMetric(m, std::string("layer.") + layer + "_share", "ratio",
                  std::strcmp(layer, "simt") == 0 ? "higher" : "lower",
                  top > 0 ? ns / top : 0.0);
    }
    putMetric(m, "trace.overhead_pct", "%", "lower", trace_overhead_pct);
    putMetric(m, "trace.unaccounted_share", "ratio", "lower", unaccounted);
    return m;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The metrics as a JSON object: {name: {value, unit[, better]}}. */
support::json::Value
metricsJson(const std::vector<Metric> &metrics, bool with_better)
{
    using support::json::Value;
    Value out = Value::object();
    for (const Metric &m : metrics) {
        Value v = Value::object();
        v.set("value", Value::number(m.value));
        v.set("unit", Value::str(m.unit));
        if (with_better)
            v.set("better", Value::str(m.better));
        out.set(m.name, std::move(v));
    }
    return out;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

/** The run's report: every metric with unit and direction, failures,
 *  the digest and every first-round op with its timings. */
support::json::Value
report(const Options &o, size_t rounds, uint64_t attempted,
       const std::vector<const OpResult *> &failures, uint64_t digest,
       const std::vector<Metric> &metrics, const Slots &slots,
       const std::vector<std::string> &names)
{
    using support::json::Value;
    Value rep = Value::object();
    rep.set("schema", Value::str("perfbench-report-v1"));
    rep.set("workload", Value::str(o.workload));
    rep.set("seed", Value::integer(o.seed));
    rep.set("seconds", Value::number(o.seconds));
    rep.set("trace", Value::boolean(o.trace));
    rep.set("smoke", Value::boolean(o.smoke));
    rep.set("rounds", Value::integer(rounds));
    rep.set("attempted", Value::integer(attempted));
    rep.set("failed", Value::integer(failures.size()));
    rep.set("digest", Value::str(hex(digest)));
    rep.set("metrics", metricsJson(metrics, true));

    Value fails = Value::array();
    for (const OpResult *r : failures) {
        Value f = Value::object();
        f.set("op", Value::str(r->config + "/" + names[r->bench] + "/" +
                               opKindName(r->kind)));
        f.set("why", Value::str(r->failure));
        fails.push(std::move(f));
    }
    rep.set("failures", std::move(fails));

    Value ops = Value::array();
    for (size_t i = 0; i < slots.samples.size(); ++i) {
        const OpResult &r = slots.first(i);
        Value op = Value::object();
        op.set("kind", Value::str(opKindName(r.kind)));
        op.set("config", Value::str(r.config));
        op.set("bench", Value::str(names[r.bench]));
        op.set("cycles", Value::integer(r.cycles));
        op.set("instrs", Value::integer(r.instrs));
        Value sm = Value::array();
        for (uint64_t c : r.smCycles)
            sm.push(Value::integer(c));
        op.set("sm_cycles", std::move(sm));
        op.set("class", Value::str(r.cls));
        op.set("outcome", Value::str(outcomeName(r.outcome)));
        op.set("digest", Value::str(hex(r.digest)));
        Value wall = Value::array();
        for (const OpResult *x : slots.samples[i])
            wall.push(Value::number(static_cast<double>(x->wallNs) / 1e6));
        op.set("wall_ms", std::move(wall));
        op.set("setup_ms",
               Value::number(slots.medianOf(i, [](const OpResult &x) {
                   return x.setupNs;
               }) / 1e6));
        ops.push(std::move(op));
    }
    rep.set("ops", std::move(ops));
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const std::optional<WorkloadSpec> spec =
        specFor(opts.workload, opts.smoke);
    if (!spec)
        usage(("unknown workload " + opts.workload).c_str());

    // Generated inputs and fault sites both come from the seed.
    kernels::setWorkloadSeed(opts.seed);

    Recorder rec;
    Runner runner(*spec, opts.seed, rec);
    const size_t nb = runner.benches();
    std::vector<std::string> names;
    for (size_t b = 0; b < nb; ++b)
        names.push_back(runner.benchName(b));

    std::vector<std::vector<OpResult>> rounds;
    Slots slots;
    std::vector<int64_t> unit_ns(nb, 0); // first-round duration per unit
    std::vector<uint64_t> round0_digest;

    int64_t traced_unit_ns = 0;
    const int64_t t_start = nowNs();
    const int64_t budget_ns = static_cast<int64_t>(opts.seconds * 1e9);
    bool stop = false;
    for (unsigned round = 0; !stop; ++round) {
        // Each round starts as a fresh process would: an empty
        // KernelCache and no adaptive-engine decisions. (The decoded-
        // program cache inside simt cannot be emptied from outside; it
        // is warm after the first round.)
        nocl::KernelCache::instance().clear();
        simt::engine::clearEngineDecisions();
        std::vector<OpResult> &out = rounds.emplace_back();
        for (size_t b = 0; b < nb; ++b) {
            if (round > 0 && nowNs() - t_start + unit_ns[b] > budget_ns) {
                stop = true;
                break;
            }
            // Under --trace 1 the first round is traced, then rounds
            // alternate untraced / traced.
            const bool traced = opts.trace && round % 2 == 0;
            rec.setEnabled(traced);
            const size_t first = out.size();
            const int64_t t0 = nowNs();
            runner.runUnit(b, round, out);
            const int64_t dt = nowNs() - t0;
            if (round == 0)
                unit_ns[b] = dt;
            if (traced)
                traced_unit_ns += dt;
            // Every round runs the same ops in the same order, so op k
            // of this round is op k of the first.
            for (size_t k = first; k < out.size(); ++k) {
                out[k].traced = traced;
                if (round == 0)
                    round0_digest.push_back(out[k].digest);
                else if (k >= round0_digest.size() ||
                         out[k].digest != round0_digest[k]) {
                    out[k].failed = true;
                    out[k].failure = "modelled results differ from the "
                                     "first round's";
                }
            }
        }
        if (round == 0 && budget_ns <= nowNs() - t_start)
            stop = true;
    }
    rec.setEnabled(false);
    // Fill the slots only now: rounds no longer reallocate.
    for (const auto &round : rounds)
        for (size_t k = 0; k < round.size(); ++k)
            slots.add(k, round[k]);

    uint64_t attempted = 0;
    std::vector<const OpResult *> failures;
    for (const auto &round : rounds)
        for (const OpResult &r : round) {
            ++attempted;
            if (r.failed)
                failures.push_back(&r);
        }
    uint64_t digest = 14695981039346656037ull;
    for (uint64_t d : round0_digest)
        for (int i = 0; i < 8; ++i) {
            digest ^= (d >> (8 * i)) & 0xffu;
            digest *= 1099511628211ull;
        }

    bool correct = failures.empty();
    std::vector<Metric> metrics;
    if (!opts.trace) {
        metrics = endToEndMetrics(slots);
    } else {
        // Tracing overhead: ops that ran both traced and untraced.
        double traced = 0, plain = 0;
        for (const auto &samples : slots.samples) {
            std::vector<double> on, off;
            for (const OpResult *r : samples)
                (r->traced ? on : off)
                    .push_back(static_cast<double>(r->wallNs));
            if (!on.empty() && !off.empty()) {
                traced += median(on);
                plain += median(off);
            }
        }
        const double overhead_pct =
            plain > 0 ? (traced - plain) / plain * 100.0 : 0.0;
        const double unaccounted =
            traced_unit_ns > 0
                ? static_cast<double>(traced_unit_ns - rec.topLevelNs()) /
                      static_cast<double>(traced_unit_ns)
                : 0.0;
        if (std::fabs(unaccounted) > kReconcileTolerance) {
            std::fprintf(stderr,
                         "perfbench: top-level spans leave %.2f%% of the "
                         "traced wall time unaccounted (tolerance %.0f%%)\n",
                         unaccounted * 100.0, kReconcileTolerance * 100.0);
            correct = false;
        }
        metrics = perLayerMetrics(slots, rec, overhead_pct, unaccounted);
    }

    // ---- Human-readable summary, then the result line ----
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s: %zu rounds "
                "started, %llu ops, %zu failed\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.seconds, opts.trace ? 1 : 0,
                opts.smoke ? " smoke" : "", rounds.size(),
                static_cast<unsigned long long>(attempted), failures.size());
    for (const OpResult *r : failures)
        std::printf("  FAILED %s/%s/%s: %s\n", r->config.c_str(),
                    names[r->bench].c_str(), opKindName(r->kind),
                    r->failure.c_str());
    std::printf("modelled digest: %s (%zu ops of the first round)\n",
                hex(digest).c_str(), round0_digest.size());
    for (size_t i = 0; i < slots.samples.size(); ++i) {
        const OpResult &r = slots.first(i);
        if (r.kind != OpKind::Point)
            continue;
        uint64_t max_c = 0, sum_c = 0;
        for (uint64_t c : r.smCycles) {
            max_c = std::max(max_c, c);
            sum_c += c;
        }
        std::printf("  %-9s %-10s cycles %10llu  sm max/mean %.3f\n",
                    r.config.c_str(), names[r.bench].c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    sum_c ? static_cast<double>(max_c) * r.smCycles.size() /
                                static_cast<double>(sum_c)
                          : 0.0);
    }
    std::printf("CHERI geomean overhead: %+.2f%% (paper: %+.1f%%)\n",
                cheriOverheadPct(slots), kPaperOverheadPct);
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %-9s (%s is better)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.better);

    if (!opts.out.empty()) {
        const std::string stem = opts.out + "/" + opts.workload + "-seed" +
                                 std::to_string(opts.seed) + "-trace" +
                                 (opts.trace ? "1" : "0");
        const std::string rep =
            report(opts, rounds.size(), attempted, failures, digest, metrics,
                   slots, names)
                .dump(1);
        if (!writeFile(stem + ".report.json", rep + "\n") ||
            (opts.trace && !rec.write(stem + ".spans.json")))
            std::fprintf(stderr, "perfbench: cannot write %s.*.json\n",
                         stem.c_str());
    }

    support::json::Value result = support::json::Value::object();
    result.set("correct", support::json::Value::boolean(correct));
    result.set("attempted", support::json::Value::integer(attempted));
    result.set("failed", support::json::Value::integer(failures.size()));
    result.set("metrics", metricsJson(metrics, false));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
