#include "db/catalog.hh"

#include <algorithm>
#include <stdexcept>

#include "db/page.hh"

namespace dss {
namespace db {

RelId
Catalog::createTable(TracedMemory &setup, std::string name, Schema schema)
{
    (void)setup;
    RelId id = nextRel_++;
    Relation r;
    r.id = id;
    r.name = name;
    r.schema = std::move(schema);
    byName_[r.name] = id;
    tables_.emplace(id, std::move(r));
    return id;
}

Tid
Catalog::insert(TracedMemory &setup, RelId rel,
                const std::vector<Datum> &values)
{
    Relation &r = relation(rel);
    std::vector<std::uint8_t> img = encodeTuple(r.schema, values);

    if (r.currentBlock == -1) {
        r.currentBlock = static_cast<BlockNo>(r.blocks.size());
        r.currentPage = bufmgr_.allocBlock(setup, rel, r.currentBlock,
                                           sim::DataClass::Data);
        r.blocks.push_back(r.currentBlock);
        PageRef(setup, r.currentPage).init();
    }

    PageRef page(setup, r.currentPage);
    int slot = page.addTuple(img.data(), img.size());
    if (slot < 0) {
        r.currentBlock = static_cast<BlockNo>(r.blocks.size());
        r.currentPage = bufmgr_.allocBlock(setup, rel, r.currentBlock,
                                           sim::DataClass::Data);
        r.blocks.push_back(r.currentBlock);
        PageRef fresh(setup, r.currentPage);
        fresh.init();
        slot = fresh.addTuple(img.data(), img.size());
        if (slot < 0)
            throw std::runtime_error("Catalog: tuple larger than a page");
    }
    ++r.numTuples;
    return Tid{r.currentBlock, static_cast<std::uint16_t>(slot)};
}

RelId
Catalog::createIndex(TracedMemory &setup, std::string name, RelId table,
                     std::size_t attr_idx)
{
    Relation &r = relation(table);
    if (attr_idx >= r.schema.numAttrs())
        throw std::out_of_range("createIndex: bad attribute");

    // Collect (key, tid) from the heap, sort, bulk-load.
    std::vector<BTree::Entry> entries;
    entries.reserve(r.numTuples);
    for (BlockNo blk : r.blocks) {
        sim::Addr page_addr = bufmgr_.pinPage(setup, table, blk);
        PageRef page(setup, page_addr);
        std::uint16_t n = page.numSlots();
        for (std::uint16_t s = 0; s < n; ++s) {
            sim::Addr t = page.tupleAddr(s);
            if (!t)
                continue; // deleted tuple
            Datum d = readAttr(setup, t, r.schema, attr_idx);
            entries.emplace_back(datumToKey(d), Tid{blk, s});
        }
        bufmgr_.unpinPage(setup, table, blk);
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const BTree::Entry &a, const BTree::Entry &b) {
                         return a.first < b.first;
                     });

    RelId id = nextRel_++;
    auto tree = std::make_unique<BTree>(id, bufmgr_);
    tree->build(setup, entries);
    indices_.emplace(id, std::move(tree));
    indicesByTable_[table].emplace_back(attr_idx, id);
    byName_[name] = id;
    return id;
}

Relation &
Catalog::relation(RelId id)
{
    auto it = tables_.find(id);
    if (it == tables_.end())
        throw std::out_of_range("Catalog: unknown relation");
    return it->second;
}

const Relation &
Catalog::relation(RelId id) const
{
    auto it = tables_.find(id);
    if (it == tables_.end())
        throw std::out_of_range("Catalog: unknown relation");
    return it->second;
}

std::string
Catalog::nameOf(RelId id) const
{
    auto t = tables_.find(id);
    if (t != tables_.end())
        return t->second.name;
    for (const auto &[name, rel] : byName_) {
        if (rel == id)
            return name;
    }
    return "rel" + std::to_string(id);
}

std::vector<RelId>
Catalog::allRelIds() const
{
    std::vector<RelId> out;
    out.reserve(tables_.size() + indices_.size());
    for (const auto &[id, rel] : tables_)
        out.push_back(id);
    for (const auto &[id, tree] : indices_)
        out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
}

void
Catalog::describeRegions(obs::RegionMap &map) const
{
    bufmgr_.describeRegions(map, [this](RelId r) { return nameOf(r); });
    lockmgr_.describeRegions(map);
    for (const auto &[rel, tree] : indices_)
        tree->describeRegions(map, nameOf(rel));
}

const BTree &
Catalog::index(RelId index_rel) const
{
    auto it = indices_.find(index_rel);
    if (it == indices_.end())
        throw std::out_of_range("Catalog: unknown index");
    return *it->second;
}

BTree &
Catalog::indexMut(RelId index_rel)
{
    auto it = indices_.find(index_rel);
    if (it == indices_.end())
        throw std::out_of_range("Catalog: unknown index");
    return *it->second;
}

std::vector<std::pair<std::size_t, BTree *>>
Catalog::indicesOf(RelId table)
{
    std::vector<std::pair<std::size_t, BTree *>> out;
    auto it = indicesByTable_.find(table);
    if (it == indicesByTable_.end())
        return out;
    for (const auto &[attr, rel] : it->second)
        out.emplace_back(attr, &indexMut(rel));
    return out;
}

} // namespace db
} // namespace dss
