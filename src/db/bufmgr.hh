/**
 * @file
 * Buffer Cache Module, after Postgres95 (paper Figure 4): 8 KB Buffer
 * Blocks holding database data and indices, Buffer Descriptors (control
 * structures), a Buffer Lookup Hash to find descriptors, and the global
 * BufMgrLock spinlock protecting them.
 *
 * The database is memory resident: every block is allocated at load time
 * and never evicted, but the *metadata discipline* is live — every page
 * access pins and unpins through the lookup hash under the spinlock, which
 * is exactly what produces the BufDesc/BufLook coherence misses and the
 * metalock traffic the paper measures.
 */

#ifndef DSS_DB_BUFMGR_HH
#define DSS_DB_BUFMGR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/common.hh"
#include "db/mem.hh"

namespace dss {
namespace obs {
class RegionMap;
} // namespace obs

namespace db {

class BufferManager
{
  public:
    /**
     * Allocate the shared metadata in @p setup's shared arena.
     * @param max_blocks Capacity of the descriptor array / lookup hash.
     */
    BufferManager(TracedMemory &setup, unsigned max_blocks);

    /**
     * Create and register a buffer block for (@p rel, @p blk), tagged
     * @p cls (Data for heap pages, Index for B-tree pages). Setup time.
     * @return simulated address of the 8 KB block.
     */
    sim::Addr allocBlock(TracedMemory &setup, RelId rel, BlockNo blk,
                         sim::DataClass cls);

    /**
     * Pin the block of (@p rel, @p blk): take BufMgrLock, probe the lookup
     * hash, bump the descriptor pin count, release.
     * @return simulated address of the block.
     */
    sim::Addr pinPage(TracedMemory &mem, RelId rel, BlockNo blk);

    /** Drop a pin (same metadata discipline as pinPage). */
    void unpinPage(TracedMemory &mem, RelId rel, BlockNo blk);

    /** The BufMgrLock word (a metalock; LockSLock class). */
    sim::Addr lockAddr() const { return lock_; }

    unsigned numBlocks() const { return numBlocks_; }
    unsigned maxBlocks() const { return maxBlocks_; }

    /** Host-side pin count of a descriptor, for tests. */
    std::int32_t pinCountOf(TracedMemory &mem, RelId rel, BlockNo blk);

    /**
     * Host-side address of an allocated block, for symbolization (no
     * traced references). Throws if (@p rel, @p blk) was never allocated.
     */
    sim::Addr blockAddr(RelId rel, BlockNo blk) const;

    /**
     * Register this manager's shared structures with the memory
     * profiler's symbol map: the BufMgrLock, the descriptor array, the
     * lookup hash, and every Data-class heap block as
     * "<relation> heap blk N" (via @p rel_name). Index-class blocks are
     * left for the owning BTree to label (describeRegions there).
     */
    void describeRegions(
        obs::RegionMap &map,
        const std::function<std::string(RelId)> &rel_name) const;

  private:
    static constexpr std::size_t kDescBytes = 32;
    static constexpr std::size_t kHashEntryBytes = 16;

    /** Find the lookup-hash slot of (@p rel, @p blk), traced probes. */
    std::uint32_t probeHash(TracedMemory &mem, RelId rel, BlockNo blk,
                            bool for_insert);

    sim::Addr descAddr(std::uint32_t idx) const
    {
        return descs_ + idx * kDescBytes;
    }

    sim::Addr hashAddr(std::uint32_t slot) const
    {
        return hash_ + slot * kHashEntryBytes;
    }

    /** Host-side record of every allocated block (symbolization). */
    struct BlockInfo
    {
        sim::Addr page = 0;
        RelId rel = -1;
        BlockNo blk = -1;
        sim::DataClass cls = sim::DataClass::Data;
    };

    unsigned maxBlocks_;
    unsigned numBlocks_ = 0;
    std::vector<BlockInfo> blocks_; ///< in allocation order
    std::uint32_t hashSize_; ///< power of two
    sim::Addr lock_ = 0;     ///< BufMgrLock
    sim::Addr descs_ = 0;    ///< BufferDesc[maxBlocks]
    sim::Addr hash_ = 0;     ///< lookup hash entries
};

} // namespace db
} // namespace dss

#endif // DSS_DB_BUFMGR_HH
