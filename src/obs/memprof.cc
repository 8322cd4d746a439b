#include "obs/memprof.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/sharing.hh"

namespace dss {
namespace obs {

namespace {

std::size_t
coherentSets(const sim::MachineConfig &cfg)
{
    const sim::LevelConfig &coh = cfg.coherent();
    return coh.sizeBytes / (coh.lineBytes * coh.assoc);
}

} // namespace

MemProfile::MemProfile(const sim::MachineConfig &cfg)
    : lineBytes_(cfg.coherent().lineBytes), nprocs_(cfg.nprocs)
{
    if (nprocs_ == 0 || nprocs_ > sim::SharingTracker::kMaxProcs)
        throw std::invalid_argument("MemProfile: bad processor count");
    confBySet_.assign(coherentSets(cfg), 0);
}

bool
MemProfile::fits(const sim::MachineConfig &cfg) const
{
    return cfg.nprocs == nprocs_ &&
           cfg.coherent().lineBytes == lineBytes_ &&
           coherentSets(cfg) == confBySet_.size();
}

void
MemProfile::addTraces(const std::vector<const sim::TraceStream *> &traces)
{
    if (traces.size() > nprocs_)
        throw std::invalid_argument("MemProfile: more traces than procs");
    for (const sim::TraceStream *t : traces) {
        if (!t)
            continue;
        for (const sim::TraceEntry &e : t->entries()) {
            if (e.op == sim::Op::Busy)
                continue;
            LineRecord &rec = recordOf(e.addr - e.addr % lineBytes_, e.cls);
            LineRecord &agg = classes_[static_cast<std::size_t>(e.cls)];
            ++rec.accesses;
            ++agg.accesses;
            // Lock operations read-modify-write the lock word; the store
            // side is what moves lines between caches.
            if (e.op == sim::Op::Read) {
                ++rec.reads;
                ++agg.reads;
            } else {
                ++rec.writes;
                ++agg.writes;
            }
        }
    }
}

LineRecord &
MemProfile::recordOf(sim::Addr line, sim::DataClass cls)
{
    auto [it, fresh] = lines_.try_emplace(line);
    if (fresh)
        it->second.cls = cls;
    return it->second;
}

void
MemProfile::record(sim::Addr line, sim::DataClass cls, Event ev)
{
    std::uint64_t LineRecord::*field = nullptr;
    switch (ev) {
      case Event::Cold: field = &LineRecord::cold; break;
      case Event::Conf:
        field = &LineRecord::conf;
        ++confBySet_[(line / lineBytes_) % confBySet_.size()];
        break;
      case Event::CoheTrue: field = &LineRecord::coheTrue; break;
      case Event::CoheFalse: field = &LineRecord::coheFalse; break;
      case Event::Upgrade: field = &LineRecord::upgrades; break;
      case Event::Hop3: field = &LineRecord::hop3; break;
    }
    ++(recordOf(line, cls).*field);
    ++(classes_[static_cast<std::size_t>(cls)].*field);
}

LineRecord
MemProfile::totals() const
{
    LineRecord t;
    for (const auto &[addr, r] : lines_) {
        (void)addr;
        t.accesses += r.accesses;
        t.reads += r.reads;
        t.writes += r.writes;
        t.cold += r.cold;
        t.conf += r.conf;
        t.coheTrue += r.coheTrue;
        t.coheFalse += r.coheFalse;
        t.upgrades += r.upgrades;
        t.hop3 += r.hop3;
    }
    return t;
}

namespace {

void
fillRecord(Json &j, const LineRecord &r)
{
    j["accesses"] = r.accesses;
    j["reads"] = r.reads;
    j["writes"] = r.writes;
    j["cold"] = r.cold;
    j["conf"] = r.conf;
    j["coheTrue"] = r.coheTrue;
    j["coheFalse"] = r.coheFalse;
    j["upgrades"] = r.upgrades;
    j["hop3"] = r.hop3;
}

Json
recordJson(const LineRecord &r)
{
    Json j = Json::object();
    fillRecord(j, r);
    return j;
}

} // namespace

Json
MemProfile::toJson(unsigned top_n, const RegionMap *symbols) const
{
    Json doc = Json::object();
    doc["lineBytes"] = static_cast<std::uint64_t>(lineBytes_);
    doc["nprocs"] = static_cast<std::uint64_t>(nprocs_);
    doc["linesTracked"] = static_cast<std::uint64_t>(lines_.size());

    // Hot lines: by misses desc, then address asc (total order => stable).
    std::vector<std::pair<sim::Addr, const LineRecord *>> ranked;
    ranked.reserve(lines_.size());
    for (const auto &[addr, r] : lines_) {
        if (r.misses() || r.upgrades)
            ranked.emplace_back(addr, &r);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->misses() != b.second->misses())
                      return a.second->misses() > b.second->misses();
                  return a.first < b.first;
              });
    if (ranked.size() > top_n)
        ranked.resize(top_n);
    Json lines = Json::array();
    for (const auto &[addr, r] : ranked) {
        Json out = Json::object();
        out["addr"] = addr;
        std::string sym;
        if (symbols)
            sym = symbols->resolve(addr);
        if (sym.empty())
            sym = std::string(sim::dataClassName(r->cls));
        out["symbol"] = std::move(sym);
        out["class"] = std::string(sim::dataClassName(r->cls));
        fillRecord(out, *r);
        lines.push(std::move(out));
    }
    doc["lines"] = std::move(lines);

    Json classes = Json::object();
    for (std::size_t cidx = 0; cidx < sim::kNumDataClasses; ++cidx) {
        const LineRecord &r = classes_[cidx];
        if (!r.accesses)
            continue;
        classes[std::string(
            sim::dataClassName(static_cast<sim::DataClass>(cidx)))] =
            recordJson(r);
    }
    doc["classes"] = std::move(classes);

    // Hot sets: conflict misses by set, desc then set asc.
    std::vector<std::pair<std::size_t, std::uint64_t>> sets;
    for (std::size_t s = 0; s < confBySet_.size(); ++s) {
        if (confBySet_[s])
            sets.emplace_back(s, confBySet_[s]);
    }
    std::sort(sets.begin(), sets.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    if (sets.size() > top_n)
        sets.resize(top_n);
    Json jsets = Json::array();
    for (const auto &[s, n] : sets) {
        Json j = Json::object();
        j["set"] = static_cast<std::uint64_t>(s);
        j["conf"] = n;
        jsets.push(std::move(j));
    }
    doc["sets"] = std::move(jsets);

    doc["totals"] = recordJson(totals());
    return doc;
}

} // namespace obs
} // namespace dss
