/**
 * @file
 * The benchmark's own arithmetic and span recorder: percentiles, the
 * failure tally behind `error_rate`, and the in-memory span trace the
 * traced run (`--trace 1`) uses to assign host time to layers.
 *
 * A span is one timed call into a layer's public function, made from
 * the benchmark's files: its name is "<layer>.<what>" (layer = the text
 * before the first '.'), it has a parent (0 = top level) and a group
 * (spans of one request share it). Self time is a span's duration minus
 * the part of it covered by its children.
 */

#ifndef PERFBENCH_BENCHMATH_HH
#define PERFBENCH_BENCHMATH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/**
 * The @p p quantile (0..1) of @p values, interpolating linearly between
 * the two closest ranks. 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** Operations attempted and failed; error_rate = failed / attempted. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; @p ok false counts it as failed. */
    void
    record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    double errorRate() const;
};

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = top level
    std::uint32_t group = 0;  ///< request id; 0 = none
    std::string name;
    std::int64_t startNs = 0; ///< since the recorder's epoch
    std::int64_t endNs = 0;
};

/**
 * Thread-safe in-memory span store. A disabled recorder records
 * nothing, so the untraced run pays one branch per call site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint32_t begin(const std::string &name, std::uint32_t parent = 0,
                        std::uint32_t group = 0);
    void end(std::uint32_t id);

    /** Nanoseconds since the recorder's epoch. */
    std::int64_t now() const;

    std::vector<Span> spans() const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name,
               std::uint32_t parent = 0, std::uint32_t group = 0)
        : rec_(rec), id_(rec.begin(name, parent, group))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::uint32_t id_;
};

/** Length of the union of [start, end) intervals (nanoseconds). */
std::int64_t unionLength(std::vector<std::pair<std::int64_t, std::int64_t>>
                             intervals);

/** Self time (ns) of each span, indexed like @p spans. */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Self time summed per layer (the span name up to its first '.'). Spans
 * of concurrent threads each count, so this is thread time, not wall time.
 */
std::map<std::string, std::int64_t>
layerSelfTimes(const std::vector<Span> &spans);

/**
 * Wall time (ns) inside each layer's spans: the union of the layer's
 * spans, nested calls into other layers included.
 */
std::map<std::string, std::int64_t>
layerWallTimes(const std::vector<Span> &spans);

/**
 * Share of [from_ns, to_ns) that no span covers (spans are clipped to
 * the window; overlapping spans from several threads count once).
 */
double uncoveredFraction(const std::vector<Span> &spans,
                         std::int64_t from_ns, std::int64_t to_ns);

/** The spans as a JSON array (one object per span). */
std::string spansToJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCHMATH_HH
