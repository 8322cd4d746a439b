#include "obs/memprof.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dss {
namespace obs {

MemProfile::MemProfile(const MemProfileConfig &cfg)
    : cfg_(cfg), tracker_(cfg.nprocs)
{
    if (cfg_.nprocs == 0 || cfg_.nprocs > sim::SharingTracker::kMaxProcs)
        throw std::invalid_argument("MemProfile: bad processor count");
    caches_.reserve(cfg_.nprocs);
    for (unsigned p = 0; p < cfg_.nprocs; ++p)
        caches_.push_back(std::make_unique<sim::Cache>(cfg_.l2));
    confBySet_.assign(caches_[0]->numSets(), 0);
}

void
MemProfile::addTraces(const std::vector<const sim::TraceStream *> &traces)
{
    if (traces.size() > cfg_.nprocs)
        throw std::invalid_argument("MemProfile: more traces than procs");
    // Canonical position-major round-robin merge: position k of every
    // processor before position k+1 of any. This fixed order — not the
    // Machine's timing-dependent interleaving — is what makes the profile
    // a pure function of the traces.
    std::size_t max_len = 0;
    for (const sim::TraceStream *t : traces)
        max_len = std::max(max_len, t ? t->size() : 0);
    for (std::size_t pos = 0; pos < max_len; ++pos) {
        for (unsigned p = 0; p < traces.size(); ++p) {
            if (traces[p] && pos < traces[p]->size())
                replayOne(p, traces[p]->entries()[pos]);
        }
    }
}

void
MemProfile::replayOne(unsigned p, const sim::TraceEntry &e)
{
    switch (e.op) {
      case sim::Op::Read:
        read(p, e.addr, e.cls, e.size);
        break;
      case sim::Op::Write:
      // Lock operations read-modify-write the lock word; the store side
      // is what moves lines between caches, so both replay as writes.
      case sim::Op::LockAcq:
      case sim::Op::LockRel:
        write(p, e.addr, e.cls, e.size);
        break;
      case sim::Op::Busy:
        break;
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

bool
MemProfile::isThreeHop(unsigned p, sim::Addr line) const
{
    // A miss is 3-hop when a third node holds the line dirty: requester
    // -> home directory -> owner. Home is the page's interleaved node.
    auto own = dirtyOwner_.find(line);
    if (own == dirtyOwner_.end() || own->second == p)
        return false;
    const unsigned home =
        static_cast<unsigned>((line / cfg_.pageBytes) % cfg_.nprocs);
    return home != p && home != own->second;
}

void
MemProfile::classifyMiss(LineRecord &rec, unsigned p, sim::Addr addr,
                         sim::Addr line, unsigned size, sim::MissType mt)
{
    switch (mt) {
      case sim::MissType::Cold:
        ++rec.cold;
        break;
      case sim::MissType::Conf:
        ++rec.conf;
        break;
      case sim::MissType::Cohe: {
        // Torrellas split: true sharing iff the words this access touches
        // intersect the words written remotely since p lost its copy.
        // Must run before recordStore/recordFill reset p's stale mask.
        const sim::WordMask wm =
            sim::wordMaskOf(addr, size, line, cfg_.l2.lineBytes);
        if (tracker_.isTrueSharing(p, line, wm))
            ++rec.coheTrue;
        else
            ++rec.coheFalse;
        break;
      }
      default:
        break;
    }
}

void
MemProfile::read(unsigned p, sim::Addr addr, sim::DataClass cls,
                 unsigned size)
{
    sim::Cache &c = *caches_[p];
    const sim::Addr line = c.lineAddrOf(addr);
    LineRecord &rec = recordOf(line, cls);
    LineRecord &agg = classes_[static_cast<std::size_t>(cls)];
    ++rec.accesses;
    ++rec.reads;
    ++agg.accesses;
    ++agg.reads;
    if (c.access(addr))
        return;
    const sim::MissType mt = c.classifyMiss(addr);
    classifyMiss(rec, p, addr, line, size, mt);
    classifyMiss(agg, p, addr, line, size, mt);
    if (mt == sim::MissType::Conf)
        ++confBySet_[(line / cfg_.l2.lineBytes) % confBySet_.size()];
    if (isThreeHop(p, line)) {
        ++rec.hop3;
        ++agg.hop3;
    }
    // A remote dirty owner supplies the data and downgrades to shared.
    auto own = dirtyOwner_.find(line);
    if (own != dirtyOwner_.end() && own->second != p) {
        caches_[own->second]->markClean(line);
        dirtyOwner_.erase(own);
    }
    const sim::Cache::Victim v = c.fill(addr, false);
    if (v.valid && v.dirty) {
        auto vo = dirtyOwner_.find(v.lineAddr);
        if (vo != dirtyOwner_.end() && vo->second == p)
            dirtyOwner_.erase(vo);
    }
    tracker_.recordFill(p, line);
}

void
MemProfile::write(unsigned p, sim::Addr addr, sim::DataClass cls,
                  unsigned size)
{
    sim::Cache &c = *caches_[p];
    const sim::Addr line = c.lineAddrOf(addr);
    LineRecord &rec = recordOf(line, cls);
    LineRecord &agg = classes_[static_cast<std::size_t>(cls)];
    ++rec.accesses;
    ++rec.writes;
    ++agg.accesses;
    ++agg.writes;
    const bool hit = c.access(addr, /*set_dirty=*/true);
    auto own = dirtyOwner_.find(line);
    const bool exclusive =
        hit && own != dirtyOwner_.end() && own->second == p;
    if (!hit) {
        const sim::MissType mt = c.classifyMiss(addr);
        classifyMiss(rec, p, addr, line, size, mt);
        classifyMiss(agg, p, addr, line, size, mt);
        if (mt == sim::MissType::Conf)
            ++confBySet_[(line / cfg_.l2.lineBytes) % confBySet_.size()];
        if (isThreeHop(p, line)) {
            ++rec.hop3;
            ++agg.hop3;
        }
    } else if (!exclusive) {
        ++rec.upgrades;
        ++agg.upgrades;
    }
    if (!exclusive) {
        // Gaining write permission invalidates every remote copy.
        for (unsigned q = 0; q < cfg_.nprocs; ++q) {
            if (q != p)
                caches_[q]->invalidate(line, /*coherence=*/true);
        }
        if (own != dirtyOwner_.end() && own->second != p)
            dirtyOwner_.erase(own);
    }
    dirtyOwner_[line] = p;
    if (!hit) {
        const sim::Cache::Victim v = c.fill(addr, true);
        if (v.valid && v.dirty) {
            auto vo = dirtyOwner_.find(v.lineAddr);
            if (vo != dirtyOwner_.end() && vo->second == p)
                dirtyOwner_.erase(vo);
        }
    }
    // After the true/false split above: this store now defines the new
    // last-writer words for every other processor.
    tracker_.recordStore(
        p, line, sim::wordMaskOf(addr, size, line, cfg_.l2.lineBytes));
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
    doc["lineBytes"] = static_cast<std::uint64_t>(cfg_.l2.lineBytes);
    doc["nprocs"] = static_cast<std::uint64_t>(cfg_.nprocs);
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
