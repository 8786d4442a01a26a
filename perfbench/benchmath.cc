#include "benchmath.hh"

#include <algorithm>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    p = std::clamp(p, 0.0, 1.0);
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Tally::errorRate() const
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

std::int64_t
SpanRecorder::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint32_t
SpanRecorder::begin(const std::string &name, std::uint32_t parent,
                    std::uint32_t group)
{
    if (!enabled_)
        return 0;
    Span s;
    s.parent = parent;
    s.group = group;
    s.name = name;
    s.startNs = now();
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    if (!enabled_ || id == 0)
        return;
    const std::int64_t t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endNs = t;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[s, e] : intervals) {
        if (e <= s)
            continue;
        if (open && s <= curEnd) {
            curEnd = std::max(curEnd, e);
            continue;
        }
        if (open)
            total += curEnd - curStart;
        curStart = s;
        curEnd = e;
        open = true;
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        children[it->second].emplace_back(std::max(s.startNs, p.startNs),
                                          std::min(s.endNs, p.endNs));
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t dur =
            std::max<std::int64_t>(0, spans[i].endNs - spans[i].startNs);
        self[i] = std::max<std::int64_t>(
            0, dur - unionLength(std::move(children[i])));
    }
    return self;
}

std::map<std::string, std::int64_t>
layerSelfTimes(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    return out;
}

std::map<std::string, std::int64_t>
layerWallTimes(const std::vector<Span> &spans)
{
    std::map<std::string,
             std::vector<std::pair<std::int64_t, std::int64_t>>>
        byLayer;
    for (const Span &s : spans)
        byLayer[s.name.substr(0, s.name.find('.'))].emplace_back(s.startNs,
                                                                 s.endNs);
    std::map<std::string, std::int64_t> out;
    for (auto &[layer, iv] : byLayer)
        out[layer] = unionLength(std::move(iv));
    return out;
}

double
uncoveredFraction(const std::vector<Span> &spans, std::int64_t from_ns,
                  std::int64_t to_ns)
{
    if (to_ns <= from_ns)
        return 0.0;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    iv.reserve(spans.size());
    for (const Span &s : spans)
        iv.emplace_back(std::max(s.startNs, from_ns),
                        std::min(s.endNs, to_ns));
    const double covered = static_cast<double>(unionLength(std::move(iv)));
    return 1.0 - covered / static_cast<double>(to_ns - from_ns);
}

std::string
spansToJson(const std::vector<Span> &spans)
{
    bsim::JsonWriter j;
    j.beginArray();
    for (const Span &s : spans) {
        j.beginObject()
            .kv("id", std::uint64_t(s.id))
            .kv("parent", std::uint64_t(s.parent))
            .kv("group", std::uint64_t(s.group))
            .kv("name", s.name)
            .kv("start_ns", std::uint64_t(s.startNs))
            .kv("end_ns", std::uint64_t(s.endNs))
            .endObject();
    }
    j.endArray();
    return j.str();
}

} // namespace perfbench
