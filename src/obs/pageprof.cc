#include "obs/pageprof.hh"

#include <stdexcept>

namespace dss {
namespace obs {

PageProfile::PageProfile(std::size_t page_bytes, sim::Addr private_base)
    : pageBytes_(page_bytes), privateBase_(private_base)
{
    if (pageBytes_ == 0)
        throw std::invalid_argument("PageProfile: zero page size");
}

void
PageProfile::addTraces(const std::vector<const sim::TraceStream *> &traces)
{
    for (std::size_t p = 0; p < traces.size(); ++p) {
        if (!traces[p])
            continue;
        for (const sim::TraceEntry &e : traces[p]->entries()) {
            if (e.op == sim::Op::Busy || e.addr >= privateBase_)
                continue;
            const sim::Addr page = e.addr - e.addr % pageBytes_;
            std::vector<std::uint64_t> &row = counts_[page];
            if (row.size() <= p)
                row.resize(p + 1, 0);
            ++row[p];
        }
    }
}

Json
PageProfile::toJson() const
{
    Json doc = Json::object();
    doc["page_bytes"] = pageBytes_;
    Json pages = Json::array();
    for (const auto &[page, row] : counts_) {
        Json entry = Json::object();
        entry["page"] = page;
        Json cj = Json::array();
        for (std::uint64_t c : row)
            cj.push(c);
        entry["counts"] = std::move(cj);
        pages.push(std::move(entry));
    }
    doc["pages"] = std::move(pages);
    return doc;
}

std::vector<sim::PageAccessCounts>
PageProfile::parse(const Json &doc, std::size_t expect_page_bytes)
{
    const Json *pb = doc.find("page_bytes");
    const Json *pages = doc.find("pages");
    if (!pb || !pb->isNumber() || !pages || !pages->isArray())
        throw std::runtime_error(
            "page profile: expected {page_bytes, pages[]}");
    if (expect_page_bytes != 0 && pb->asUint() != expect_page_bytes)
        throw std::runtime_error(
            "page profile: page_bytes " + std::to_string(pb->asUint()) +
            " does not match the machine's " +
            std::to_string(expect_page_bytes));
    std::vector<sim::PageAccessCounts> out;
    out.reserve(pages->size());
    for (std::size_t i = 0; i < pages->size(); ++i) {
        const Json &entry = pages->at(i);
        const Json *page = entry.find("page");
        const Json *counts = entry.find("counts");
        if (!page || !page->isNumber() || !counts || !counts->isArray())
            throw std::runtime_error(
                "page profile: expected {page, counts[]} entries");
        sim::PageAccessCounts pc;
        pc.page = page->asUint();
        pc.counts.reserve(counts->size());
        for (std::size_t q = 0; q < counts->size(); ++q)
            pc.counts.push_back(counts->at(q).asUint());
        out.push_back(std::move(pc));
    }
    return out;
}

} // namespace obs
} // namespace dss
