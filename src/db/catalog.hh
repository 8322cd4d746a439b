/**
 * @file
 * Catalog: relations, their heap blocks, and their indices.
 *
 * The catalog itself is host-side C++ state. Postgres95 keeps the system
 * catalog in per-process private software caches that essentially always
 * hit (paper Figure 4), so catalog lookups are deliberately untraced —
 * consistent with the paper's accounting.
 */

#ifndef DSS_DB_CATALOG_HH
#define DSS_DB_CATALOG_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/btree.hh"
#include "db/bufmgr.hh"
#include "db/common.hh"
#include "db/lockmgr.hh"
#include "db/schema.hh"

namespace dss {
namespace db {

/** One table: schema plus its buffer-resident heap blocks. */
struct Relation
{
    RelId id = 0;
    std::string name;
    Schema schema;
    std::vector<BlockNo> blocks; ///< heap blocks, in insertion order
    std::uint64_t numTuples = 0;

    // Bulk-load state.
    BlockNo currentBlock = -1;
    sim::Addr currentPage = 0;
};

class Catalog
{
  public:
    Catalog(BufferManager &bufmgr, LockManager &lockmgr)
        : bufmgr_(bufmgr), lockmgr_(lockmgr)
    {}

    /** Create an empty table. */
    RelId createTable(TracedMemory &setup, std::string name, Schema schema);

    /** Append one row (bulk load; setup time). */
    Tid insert(TracedMemory &setup, RelId rel,
               const std::vector<Datum> &values);

    /**
     * Build a B-tree on attribute @p attr_idx of @p table (setup time).
     * Non-unique keys are allowed; keys come from datumToKey().
     * @return the index's relation id.
     */
    RelId createIndex(TracedMemory &setup, std::string name, RelId table,
                      std::size_t attr_idx);

    Relation &relation(RelId id);
    const Relation &relation(RelId id) const;

    /** Name of table or index @p id; "rel<id>" if unregistered. */
    std::string nameOf(RelId id) const;

    /**
     * Every lockable relation id — tables and indices — in ascending id
     * order. The stream workload pre-warms the lock manager's hash with
     * these so a query instance's probe sequence is independent of
     * whether an earlier instance touched the relation first.
     */
    std::vector<RelId> allRelIds() const;

    /**
     * Register every catalog-managed structure with the memory profiler's
     * symbol map: heap blocks and buffer metadata via the buffer manager,
     * the lock tables, and every B-tree page with its level.
     */
    void describeRegions(obs::RegionMap &map) const;

    const BTree &index(RelId index_rel) const;

    /** Mutable index access (runtime inserts by update queries). */
    BTree &indexMut(RelId index_rel);

    /** All indices over @p table, with the attribute each one keys on
     * (update queries maintain them on insert). */
    std::vector<std::pair<std::size_t, BTree *>> indicesOf(RelId table);

    BufferManager &bufmgr() { return bufmgr_; }
    LockManager &lockmgr() { return lockmgr_; }

    std::size_t numTables() const { return tables_.size(); }
    std::size_t numIndices() const { return indices_.size(); }

  private:
    BufferManager &bufmgr_;
    LockManager &lockmgr_;
    RelId nextRel_ = 1;
    std::map<RelId, Relation> tables_;
    std::map<RelId, std::unique_ptr<BTree>> indices_;
    std::map<RelId, std::vector<std::pair<std::size_t, RelId>>>
        indicesByTable_; ///< table -> [(attr, index rel)]
    std::map<std::string, RelId> byName_;
};

} // namespace db
} // namespace dss

#endif // DSS_DB_CATALOG_HH
