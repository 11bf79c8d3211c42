/**
 * @file
 * Spans recorded by the benchmark around every call it makes into the
 * simulator's public API.
 *
 * A span is a name, a start and an end (steady-clock nanoseconds), the
 * span that was open when it began (its parent) and the op it belongs
 * to. Span names carry their layer as a prefix -- "nocl.", "kc.",
 * "kernels.", "simt." -- or "op." for the benchmark's own top-level op
 * spans and "bench." for its bookkeeping between ops. Spans are kept in
 * memory and written out once, when the run ends.
 *
 * A Span always measures its interval (the end-to-end metrics need the
 * timings whether or not a trace is kept); it is recorded only while
 * the Recorder is enabled.
 */

#ifndef PERFBENCH_SPANS_HPP_
#define PERFBENCH_SPANS_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    const char *name = nullptr; ///< static string: "<layer>.<call>"
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< index into the span list, -1 = top level
    uint32_t op = 0;     ///< index into the op-id table
};

class Recorder
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Start attributing spans to a new op; returns its index. */
    uint32_t beginOp(std::string id);

    /** Open a span at @p start; returns its index (-1 when disabled). */
    int32_t open(const char *name, int64_t start);
    void close(int32_t idx, int64_t end);

    /** Record a closed child span of span @p parent. */
    void child(int32_t parent, const char *name, int64_t start,
               int64_t end);

    /** Self time summed per layer (the name's prefix up to the dot). */
    std::map<std::string, int64_t> layerSelfNs() const;

    /** Sum of the top-level spans' durations. */
    int64_t topLevelNs() const;

    /** Self times (ns) of every span named @p name, in record order. */
    std::vector<double> selfNsOf(const std::string &name) const;

    /** Write the op table and the span list as JSON. */
    bool write(const std::string &path) const;

  private:
    /** Self time of every span (duration minus its children's). */
    std::vector<int64_t> selfTimes() const;

    bool enabled_ = false;
    std::vector<SpanRecord> spans_;
    std::vector<int32_t> stack_;
    std::vector<std::string> ops_;
    uint32_t curOp_ = 0;
};

/** RAII span: times its scope, and records it when tracing is on. */
class Span
{
  public:
    Span(Recorder &rec, const char *name)
        : rec_(rec), start_(nowNs()), idx_(rec.open(name, start_))
    {
    }
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span (idempotent); returns its duration. */
    int64_t
    stop()
    {
        if (end_ == 0) {
            end_ = nowNs();
            rec_.close(idx_, end_);
        }
        return end_ - start_;
    }

    /**
     * Record a child of @p dur_ns placed at the end of this (closed)
     * span. Used for simt.run inside a launch: the simulator reports how
     * long it simulated (RunResult::hostNs) but not when, so only the
     * child's length is measured and the launch's self time is its
     * overhead.
     */
    void
    childAtEnd(const char *name, int64_t dur_ns)
    {
        stop();
        if (idx_ >= 0)
            rec_.child(idx_, name, end_ - dur_ns, end_);
    }

  private:
    Recorder &rec_;
    int64_t start_ = 0;
    int64_t end_ = 0;
    int32_t idx_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP_
