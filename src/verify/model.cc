#include "verify/model.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/check.hh"
#include "sim/error.hh"

namespace dss {
namespace verify {

namespace {

/** Sets per level of the shrunk model machine: enough to give every
 * tracked line (and its sublines) a private set in the paper's
 * direct-mapped L1, small enough that a full state reload costs
 * microseconds. */
constexpr std::size_t kModelSets = 8;

/** Retire horizon for write-buffer entries reconstructed by load():
 * far beyond any latency a single event can accumulate, so pending
 * stores only leave the buffer through explicit WbDrain events (or a
 * real overflow pop). */
constexpr sim::Cycles kModelDrainNever = sim::Cycles{1} << 40;

/** Slot pitch of counterexample traces: each event of the path gets its
 * own window, far wider than any single-event stall (< ~500 cycles), so
 * min-clock replay issues the events in path order. */
constexpr sim::Cycles kCexSlotCycles = 1u << 20;

constexpr std::uint32_t
bit(sim::ProcId p)
{
    return std::uint32_t{1} << p;
}

} // namespace

std::string_view
evKindName(EvKind k)
{
    switch (k) {
      case EvKind::Load: return "load";
      case EvKind::Store: return "store";
      case EvKind::Evict: return "evict";
      case EvKind::WbDrain: return "drain";
      case EvKind::LockAcq: return "acq";
      case EvKind::LockRel: return "rel";
    }
    return "?";
}

std::string
eventName(const Event &e)
{
    std::ostringstream os;
    os << evKindName(e.kind) << "(p" << unsigned{e.proc};
    switch (e.kind) {
      case EvKind::Load:
      case EvKind::Store:
        os << ",l" << unsigned{e.line} << ".s" << unsigned{e.subline};
        break;
      case EvKind::Evict:
        os << ",l" << unsigned{e.line};
        break;
      case EvKind::WbDrain:
      case EvKind::LockAcq:
      case EvKind::LockRel:
        break;
    }
    os << ")";
    return os.str();
}

std::string_view
mutantName(Mutant m)
{
    switch (m) {
      case Mutant::None: return "none";
      case Mutant::DropInvalAck: return "drop-inval-ack";
      case Mutant::SkipOwnerDirty: return "skip-owner-dirty";
      case Mutant::StaleSharerBit: return "stale-sharer-bit";
      case Mutant::WbReorder: return "wb-reorder";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Encoding. Fixed layout given the geometry; one byte per field keeps
// decode trivial and states ~40 bytes. Processor-indexed data is written
// in canonical slot order: slot q holds original processor inv[q]'s
// data, processor *values* map through perm.
// ---------------------------------------------------------------------

void
encodeState(const AbstractState &s, const Geometry &g,
            const std::vector<sim::ProcId> &perm, std::string &out)
{
    out.clear();
    std::array<sim::ProcId, 8> inv{};
    for (sim::ProcId p = 0; p < g.nprocs; ++p)
        inv[perm[p]] = p;

    for (unsigned i = 0; i < g.nlines; ++i) {
        const LineState &ls = s.lines[i];
        const bool dirty = ls.dir == 2;
        out.push_back(static_cast<char>(
            (ls.dir << 4) | (dirty ? perm[ls.owner] : 0)));
        std::uint8_t sh = 0;
        for (sim::ProcId p = 0; p < g.nprocs; ++p)
            if (ls.sharers & bit(p))
                sh |= static_cast<std::uint8_t>(bit(perm[p]));
        out.push_back(static_cast<char>(sh));
        for (unsigned q = 0; q < g.nprocs; ++q) {
            const sim::ProcId p = inv[q];
            out.push_back(static_cast<char>(ls.coh[p]));
            for (unsigned u = 0; u + 1 < g.nlev; ++u)
                out.push_back(static_cast<char>(ls.upper[p][u]));
        }
    }
    for (unsigned q = 0; q < g.nprocs; ++q)
        out.push_back(static_cast<char>(s.cont[inv[q]]));
    for (unsigned q = 0; q < g.nprocs; ++q) {
        const std::vector<std::uint8_t> &fifo = s.wb[inv[q]];
        out.push_back(static_cast<char>(fifo.size()));
        for (std::uint8_t enc : fifo)
            out.push_back(static_cast<char>(enc));
    }
    out.push_back(static_cast<char>(
        s.lockHeld ? 0x10 | perm[s.lockHolder] : 0));
    out.push_back(static_cast<char>(s.waiters.size()));
    for (sim::ProcId w : s.waiters)
        out.push_back(static_cast<char>(perm[w]));
}

Canonical
canonicalize(const AbstractState &s, const Geometry &g)
{
    std::vector<sim::ProcId> perm(g.nprocs);
    for (sim::ProcId p = 0; p < g.nprocs; ++p)
        perm[p] = p;
    Canonical best;
    encodeState(s, g, perm, best.bytes);
    best.perm = perm;
    std::string cand;
    while (std::next_permutation(perm.begin(), perm.end())) {
        encodeState(s, g, perm, cand);
        if (cand < best.bytes) {
            best.bytes = cand;
            best.perm = perm;
        }
    }
    return best;
}

AbstractState
decodeState(const std::string &bytes, const Geometry &g)
{
    AbstractState s;
    std::size_t at = 0;
    auto next = [&]() -> std::uint8_t {
        assert(at < bytes.size());
        return static_cast<std::uint8_t>(bytes[at++]);
    };

    s.lines.resize(g.nlines);
    for (unsigned i = 0; i < g.nlines; ++i) {
        LineState &ls = s.lines[i];
        const std::uint8_t head = next();
        ls.dir = head >> 4;
        ls.owner = head & 0x0f;
        ls.sharers = next();
        ls.coh.resize(g.nprocs);
        ls.upper.resize(g.nprocs);
        for (unsigned p = 0; p < g.nprocs; ++p) {
            ls.coh[p] = next();
            ls.upper[p] = {};
            for (unsigned u = 0; u + 1 < g.nlev; ++u)
                ls.upper[p][u] = next();
        }
    }
    s.cont.resize(g.nprocs);
    for (unsigned p = 0; p < g.nprocs; ++p)
        s.cont[p] = static_cast<Cont>(next());
    s.wb.resize(g.nprocs);
    for (unsigned p = 0; p < g.nprocs; ++p) {
        const std::uint8_t len = next();
        s.wb[p].resize(len);
        for (std::uint8_t &e : s.wb[p])
            e = next();
    }
    const std::uint8_t lock = next();
    s.lockHeld = (lock & 0x10) != 0;
    s.lockHolder = lock & 0x0f;
    const std::uint8_t nw = next();
    s.waiters.resize(nw);
    for (sim::ProcId &w : s.waiters)
        w = next();
    assert(at == bytes.size());
    return s;
}

// ---------------------------------------------------------------------
// ProtocolModel
// ---------------------------------------------------------------------

sim::MachineConfig
ProtocolModel::modelConfig(const sim::MachineConfig &base, unsigned procs,
                           unsigned wb_entries)
{
    sim::MachineConfig c = base;
    c.nprocs = procs;
    c.prefetchData = false;
    c.writeBufferEntries = wb_entries;
    // Same shape (line sizes, associativities, level count, latencies),
    // tiny capacities: kModelSets sets per level, kept monotone for the
    // inclusion-capacity rule.
    std::size_t prev = 0;
    for (sim::LevelConfig &lvl : c.levels) {
        lvl.sizeBytes =
            std::max(lvl.lineBytes * lvl.assoc * kModelSets, prev);
        prev = lvl.sizeBytes;
    }
    c.validate();
    return c;
}

ProtocolModel::ProtocolModel(const sim::MachineConfig &base,
                             const Options &opt)
    : opt_(opt),
      cfg_(modelConfig(base, opt.procs, opt.wbEntries)),
      m_(cfg_)
{
    if (opt_.procs < 2 || opt_.procs > 6)
        throw sim::SimError("verify: model processors must be in [2, 6] "
                            "(canonicalization enumerates N! relabelings)",
                            obs::Json::object());
    if (opt_.lines < 1 || opt_.lines > 6)
        throw sim::SimError("verify: tracked data lines must be in [1, 6]",
                            obs::Json::object());
    if (opt_.wbEntries < 1 || opt_.wbEntries > 7)
        throw sim::SimError("verify: model write buffer must be in [1, 7]",
                            obs::Json::object());

    Geometry &g = g_;
    g.nprocs = cfg_.nprocs;
    g.dataLines = opt_.lines;
    g.nlines = opt_.lines + 1;
    g.nlev = static_cast<unsigned>(cfg_.numLevels());
    g.cohLineBytes = cfg_.coherent().lineBytes;
    g.l1LineBytes = cfg_.l1().lineBytes;
    g.l1Sublines = static_cast<unsigned>(g.cohLineBytes / g.l1LineBytes);
    for (unsigned u = 0; u + 1 < g.nlev; ++u)
        g.sublinesAt[u] = static_cast<unsigned>(
            g.cohLineBytes / cfg_.levels[u].lineBytes);
    if (g.l1Sublines > 8)
        throw sim::SimError("verify: more than 8 L1 sublines per "
                            "coherent line (mask encoding limit)",
                            obs::Json::object());

    // One line per page-plus-a-line: consecutive homes under the default
    // interleave policy and, decisive for soundness, distinct sets at
    // every level (checked below).
    const sim::Addr stride = cfg_.pageBytes + g.cohLineBytes;
    g.lineAddr.resize(g.nlines);
    for (unsigned i = 0; i < g.nlines; ++i)
        g.lineAddr[i] = sim::Addr{i} * stride;
    g.lockWord = g.lineAddr.back();

    // Conflict-freedom: at every level, no set receives more tracked
    // (sub)lines than it has ways. Then fills never evict organically,
    // LRU order cannot influence any transition, and dropping timestamps
    // from the abstract state is lossless.
    for (unsigned lvl = 0; lvl < g.nlev; ++lvl) {
        const sim::LevelConfig &lc = cfg_.levels[lvl];
        const std::size_t sets = lc.sizeBytes / (lc.lineBytes * lc.assoc);
        std::vector<unsigned> used(sets, 0);
        for (unsigned i = 0; i < g.nlines; ++i) {
            for (sim::Addr a = g.lineAddr[i];
                 a < g.lineAddr[i] + g.cohLineBytes; a += lc.lineBytes) {
                const std::size_t set = (a / lc.lineBytes) & (sets - 1);
                if (++used[set] > lc.assoc)
                    throw sim::SimError(
                        "verify: tracked lines collide in level " +
                        std::to_string(lvl) + " set " +
                        std::to_string(set) +
                        " of the model machine; reduce --verify-lines",
                        obs::Json::object());
            }
        }
    }
}

AbstractState
ProtocolModel::initial() const
{
    AbstractState s;
    s.lines.resize(g_.nlines);
    for (LineState &ls : s.lines) {
        ls.coh.assign(g_.nprocs, 0);
        ls.upper.assign(g_.nprocs, {});
    }
    s.cont.assign(g_.nprocs, Cont::Idle);
    s.wb.resize(g_.nprocs);
    return s;
}

sim::Addr
ProtocolModel::eventAddr(const Event &ev) const
{
    return g_.lineAddr[ev.line] + sim::Addr{ev.subline} * g_.l1LineBytes;
}

sim::Addr
ProtocolModel::wbLineOf(std::uint8_t enc) const
{
    const unsigned line = enc / g_.l1Sublines;
    const unsigned sub = enc % g_.l1Sublines;
    return g_.lineAddr[line] + sim::Addr{sub} * g_.l1LineBytes;
}

void
ProtocolModel::enumerate(const AbstractState &s,
                         std::vector<Event> &out) const
{
    out.clear();
    const auto lockLine = static_cast<std::uint8_t>(g_.nlines - 1);
    const unsigned nsub = opt_.allSublines ? g_.l1Sublines : 1;
    for (sim::ProcId p = 0; p < g_.nprocs; ++p) {
        switch (s.cont[p]) {
          case Cont::Blocked:
            continue; // spinning: the machine issues nothing for it
          case Cont::MidAcq:
          case Cont::Granted:
            // The acquire is this processor's current trace entry; its
            // only possible next step is the next acquire phase.
            out.push_back({EvKind::LockAcq, p, lockLine, 0});
            continue;
          case Cont::Holding:
            out.push_back({EvKind::LockRel, p, lockLine, 0});
            break;
          case Cont::Idle:
            out.push_back({EvKind::LockAcq, p, lockLine, 0});
            break;
        }
        for (std::uint8_t l = 0; l < g_.dataLines; ++l) {
            for (std::uint8_t b = 0; b < nsub; ++b) {
                out.push_back({EvKind::Load, p, l, b});
                out.push_back({EvKind::Store, p, l, b});
            }
        }
        for (std::uint8_t l = 0; l < g_.nlines; ++l)
            if (s.lines[l].coh[p] != 0)
                out.push_back({EvKind::Evict, p, l, 0});
        if (!s.wb[p].empty())
            out.push_back({EvKind::WbDrain, p, 0, 0});
    }
}

void
ProtocolModel::load(const AbstractState &s)
{
    m_.beginModelSteps();
    for (unsigned i = 0; i < g_.nlines; ++i) {
        const LineState &ls = s.lines[i];
        const sim::Addr la = g_.lineAddr[i];
        for (sim::ProcId p = 0; p < g_.nprocs; ++p) {
            if (ls.coh[p] != 0)
                m_.level(p, g_.nlev - 1).fill(la, ls.coh[p] == 2);
            for (unsigned u = 0; u + 1 < g_.nlev; ++u)
                for (unsigned b = 0; b < g_.sublinesAt[u]; ++b)
                    if (ls.upper[p][u] & (1u << b))
                        m_.level(p, u).fill(
                            la + sim::Addr{b} * cfg_.levels[u].lineBytes);
        }
        if (ls.dir != 0) {
            sim::Directory::Entry &e = m_.directoryForTest().entry(la);
            e.state = ls.dir == 1 ? sim::Directory::State::Shared
                                  : sim::Directory::State::Dirty;
            e.owner = ls.owner;
            e.sharers = ls.sharers;
        }
    }
    for (sim::ProcId p = 0; p < g_.nprocs; ++p)
        for (std::uint8_t enc : s.wb[p])
            m_.writeBufferForTest(p).push(0, kModelDrainNever,
                                          wbLineOf(enc));
    if (s.lockHeld) {
        const bool ok = m_.locksForTest().tryAcquire(g_.lockWord,
                                                     s.lockHolder);
        assert(ok);
        (void)ok;
        for (sim::ProcId w : s.waiters)
            m_.locksForTest().addWaiter(g_.lockWord, w);
    }
    for (sim::ProcId p = 0; p < g_.nprocs; ++p)
        m_.setProcWaitState(p, s.cont[p] == Cont::Blocked,
                            s.cont[p] == Cont::MidAcq);
}

void
ProtocolModel::stepEvent(const Event &ev)
{
    switch (ev.kind) {
      case EvKind::Load:
        m_.modelStep(ev.proc, sim::TraceEntry::read(
                                  eventAddr(ev), sim::DataClass::Data, 8));
        break;
      case EvKind::Store:
        m_.modelStep(ev.proc, sim::TraceEntry::write(
                                  eventAddr(ev), sim::DataClass::Data, 8));
        break;
      case EvKind::Evict:
        m_.modelEvict(ev.proc, g_.lineAddr[ev.line]);
        break;
      case EvKind::WbDrain:
        m_.writeBufferForTest(ev.proc).retireOldest();
        break;
      case EvKind::LockAcq:
        m_.modelStep(ev.proc,
                     sim::TraceEntry::lockAcq(g_.lockWord,
                                              sim::DataClass::LockSLock));
        break;
      case EvKind::LockRel:
        m_.modelStep(ev.proc,
                     sim::TraceEntry::lockRel(g_.lockWord,
                                              sim::DataClass::LockSLock));
        break;
    }
}

void
ProtocolModel::applyMutant(const AbstractState &pre, const Event &ev)
{
    const sim::Addr la = g_.lineAddr[ev.line];
    switch (opt_.mutant) {
      case Mutant::None:
        return;
      case Mutant::DropInvalAck:
        // The store invalidated every other copy; pretend one remote ack
        // was lost, so that cache silently keeps its (now stale) line.
        if (ev.kind != EvKind::Store)
            return;
        for (sim::ProcId q = 0; q < g_.nprocs; ++q) {
            if (q == ev.proc || pre.lines[ev.line].coh[q] == 0)
                continue;
            if (!m_.l2(q).contains(la)) {
                m_.l2(q).fill(la, pre.lines[ev.line].coh[q] == 2);
                return;
            }
        }
        return;
      case Mutant::SkipOwnerDirty:
        // The store's directory entry says Dirty/owner, but the owning
        // cache forgets to assert the dirty bit.
        if (ev.kind != EvKind::Store)
            return;
        if (m_.l2(ev.proc).contains(la))
            m_.l2(ev.proc).markClean(la);
        return;
      case Mutant::StaleSharerBit:
        // The eviction's directory update is lost: the sharer vector
        // keeps naming a cache that dropped its copy.
        if (ev.kind != EvKind::Evict ||
            pre.lines[ev.line].coh[ev.proc] == 0)
            return;
        {
            sim::Directory::Entry &e = m_.directoryForTest().entry(la);
            e.sharers |= bit(ev.proc);
            if (e.state == sim::Directory::State::Uncached)
                e.state = sim::Directory::State::Shared;
        }
        return;
      case Mutant::WbReorder:
        // Two pending stores swap their drain order (needs >= 2 pending
        // entries, so reachable once a second store lands).
        if (ev.kind == EvKind::Store)
            m_.writeBufferForTest(ev.proc).corruptReorderForTest();
        return;
    }
}

AbstractState
ProtocolModel::extract(const AbstractState &pre, const Event &ev) const
{
    const sim::Machine &m = m_;
    AbstractState s;
    s.lines.resize(g_.nlines);
    for (unsigned i = 0; i < g_.nlines; ++i) {
        LineState &ls = s.lines[i];
        const sim::Addr la = g_.lineAddr[i];
        ls.coh.resize(g_.nprocs);
        ls.upper.assign(g_.nprocs, {});
        for (sim::ProcId p = 0; p < g_.nprocs; ++p) {
            const sim::Cache &coh = m.level(p, g_.nlev - 1);
            ls.coh[p] = coh.contains(la) ? (coh.isDirty(la) ? 2 : 1) : 0;
            for (unsigned u = 0; u + 1 < g_.nlev; ++u)
                for (unsigned b = 0; b < g_.sublinesAt[u]; ++b)
                    if (m.level(p, u).contains(
                            la + sim::Addr{b} * cfg_.levels[u].lineBytes))
                        ls.upper[p][u] |=
                            static_cast<std::uint8_t>(1u << b);
        }
        if (const sim::Directory::Entry *e = m.directory().peek(la)) {
            switch (e->state) {
              case sim::Directory::State::Uncached:
                break;
              case sim::Directory::State::Shared:
                ls.dir = 1;
                ls.sharers = static_cast<std::uint32_t>(e->sharers);
                break;
              case sim::Directory::State::Dirty:
                ls.dir = 2;
                ls.owner = e->owner;
                ls.sharers = static_cast<std::uint32_t>(e->sharers);
                break;
            }
        }
    }

    s.wb.resize(g_.nprocs);
    for (sim::ProcId p = 0; p < g_.nprocs; ++p) {
        for (sim::Addr a : m.writeBuffer(p).pendingLines()) {
            const unsigned line = static_cast<unsigned>(
                a / (cfg_.pageBytes + g_.cohLineBytes));
            const unsigned sub = static_cast<unsigned>(
                (a - g_.lineAddr[line]) / g_.l1LineBytes);
            s.wb[p].push_back(
                static_cast<std::uint8_t>(line * g_.l1Sublines + sub));
        }
    }

    if (m.locks().isHeld(g_.lockWord)) {
        s.lockHeld = true;
        s.lockHolder = m.locks().holder(g_.lockWord);
    }
    for (const sim::LockTable::Info &info : m.locks().snapshot())
        if (info.word == g_.lockWord)
            s.waiters.assign(info.waiters.begin(), info.waiters.end());

    // Lock continuations: Blocked/MidAcq mirror the machine flags; the
    // Granted/Holding/Idle bookkeeping follows from which event ran.
    s.cont.resize(g_.nprocs);
    for (sim::ProcId p = 0; p < g_.nprocs; ++p) {
        if (m.procBlocked(p)) {
            s.cont[p] = Cont::Blocked;
        } else if (m.procAcqPending(p)) {
            s.cont[p] = Cont::MidAcq;
        } else if (p == ev.proc) {
            if (ev.kind == EvKind::LockAcq)
                s.cont[p] = Cont::Holding; // phase 2 completed
            else if (ev.kind == EvKind::LockRel)
                s.cont[p] = Cont::Idle;
            else
                s.cont[p] = pre.cont[p];
        } else if (pre.cont[p] == Cont::Blocked) {
            // Woken by this event's release: holds the lock via hand-off
            // but still has to re-execute its acquire.
            assert(s.lockHeld && s.lockHolder == p);
            s.cont[p] = Cont::Granted;
        } else {
            s.cont[p] = pre.cont[p];
        }
    }
    return s;
}

ProtocolModel::StepResult
ProtocolModel::apply(const AbstractState &s, const Event &ev)
{
    load(s);
    stepEvent(ev);
    applyMutant(s, ev);
    StepResult r;
    sim::InvariantChecker check;
    check.sweep(m_);
    r.violations = check.totalViolations();
    if (r.violations != 0)
        r.detail = check.toJson();
    r.next = extract(s, ev);
    return r;
}

std::vector<sim::TraceStream>
ProtocolModel::traces(const std::vector<Event> &events)
{
    load(initial());
    std::vector<sim::TraceStream> out(g_.nprocs);
    std::vector<bool> inAcq(g_.nprocs, false);
    sim::Cycles slot = kCexSlotCycles;
    for (const Event &ev : events) {
        const sim::ProcId p = ev.proc;
        if (!m_.procBlocked(p)) {
            const sim::Cycles now = m_.procClock(p);
            if (now < slot) {
                const auto pad = static_cast<std::uint32_t>(slot - now);
                m_.modelStep(p, sim::TraceEntry::busy(pad));
                out[p].record(sim::TraceEntry::busy(pad));
            }
        }
        switch (ev.kind) {
          case EvKind::Load:
            out[p].record(sim::TraceEntry::read(eventAddr(ev),
                                                sim::DataClass::Data, 8));
            break;
          case EvKind::Store:
            out[p].record(sim::TraceEntry::write(eventAddr(ev),
                                                 sim::DataClass::Data, 8));
            break;
          case EvKind::LockAcq:
            // One LockAcq entry covers the whole multi-phase episode;
            // the machine replays the later phases (and any post-wake
            // re-execution) against this same entry.
            if (!inAcq[p]) {
                out[p].record(sim::TraceEntry::lockAcq(
                    g_.lockWord, sim::DataClass::LockSLock));
                inAcq[p] = true;
            }
            break;
          case EvKind::LockRel:
            out[p].record(sim::TraceEntry::lockRel(
                g_.lockWord, sim::DataClass::LockSLock));
            break;
          case EvKind::Evict:
          case EvKind::WbDrain:
            break; // no trace-level expression; padding only
        }
        stepEvent(ev);
        if (inAcq[p] && !m_.procBlocked(p) && !m_.procAcqPending(p))
            inAcq[p] = false;
        slot += kCexSlotCycles;
    }
    return out;
}

} // namespace verify
} // namespace dss
