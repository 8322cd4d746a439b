#include "sched/trace_cache.hh"

#include <utility>

#include "obs/registry.hh"

namespace dss {
namespace sched {

void
TraceCache::evictIfOver()
{
    while (capacity_ > 0 && entries_.size() > capacity_) {
        auto it = entries_.find(lru_.back());
        stats_.traceEntries -= it->second.stream.entries().size();
        --stats_.entries;
        ++stats_.evictions;
        entries_.erase(it);
        lru_.pop_back();
    }
}

const sim::TraceStream &
TraceCache::fetch(const Key &key, const Capture &capture)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        return it->second.stream;
    }
    ++stats_.misses;
    sim::TraceStream stream = capture();
    stats_.traceEntries += stream.entries().size();
    ++stats_.entries;
    lru_.push_front(key);
    auto ins = entries_.emplace(key, Entry{std::move(stream), lru_.begin()})
                   .first;
    evictIfOver();
    return ins->second.stream;
}

const sim::TraceStream *
TraceCache::lookup(const Key &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.stream;
}

void
TraceCache::registerStats(obs::Registry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(obs::metricName(prefix, "hits"),
                   [this] { return stats_.hits; });
    reg.addCounter(obs::metricName(prefix, "misses"),
                   [this] { return stats_.misses; });
    reg.addCounter(obs::metricName(prefix, "entries"),
                   [this] { return stats_.entries; });
    reg.addCounter(obs::metricName(prefix, "trace_entries"),
                   [this] { return stats_.traceEntries; });
    reg.addCounter(obs::metricName(prefix, "evictions"),
                   [this] { return stats_.evictions; });
}

} // namespace sched
} // namespace dss
