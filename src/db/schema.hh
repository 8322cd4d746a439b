/**
 * @file
 * Relational schemas and tuple access.
 *
 * Tuples are fixed-length records laid out in pages; attributes are read
 * and written through TracedMemory so each attribute touch appears in the
 * trace with the right DataClass (Data for heap pages, Priv for private
 * copies). Values are materialized into Datum for host-side computation.
 */

#ifndef DSS_DB_SCHEMA_HH
#define DSS_DB_SCHEMA_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "db/mem.hh"

namespace dss {
namespace db {

/** Attribute storage type. Date is days since 1992-01-01 (int32). */
enum class AttrType : std::uint8_t { Int32, Int64, Double, Date, Char };

/** One column of a schema. */
struct Attribute
{
    std::string name;
    AttrType type = AttrType::Int32;
    std::uint16_t len = 4;    ///< bytes (Char: declared width)
    std::uint16_t offset = 0; ///< byte offset within the tuple
};

/** A fixed-length tuple layout. */
class Schema
{
  public:
    Schema() = default;

    /** Append a column; @p len is required for Char. */
    Schema &add(std::string name, AttrType type, std::uint16_t len = 0);

    std::size_t numAttrs() const { return attrs_.size(); }
    const Attribute &attr(std::size_t i) const { return attrs_.at(i); }

    /** Index of @p name; throws if absent. */
    std::size_t indexOf(const std::string &name) const;

    /** Tuple length in bytes (8-byte aligned). */
    std::size_t tupleLen() const { return tupleLen_; }

  private:
    std::vector<Attribute> attrs_;
    std::size_t rawLen_ = 0;   ///< packed length before final padding
    std::size_t tupleLen_ = 0; ///< rawLen_ rounded up to 8
};

/** A runtime value: integer (Int32/Int64/Date), real, or string. */
using Datum = std::variant<std::int64_t, double, std::string>;

/** Three-way comparison of same-kind datums. */
int compareDatum(const Datum &a, const Datum &b);

std::int64_t datumInt(const Datum &d);
double datumReal(const Datum &d);
const std::string &datumStr(const Datum &d);

/** Read attribute @p idx of the tuple at @p base (traced). */
Datum readAttr(TracedMemory &mem, sim::Addr base, const Schema &schema,
               std::size_t idx);

/** Write attribute @p idx of the tuple at @p base (traced). */
void writeAttr(TracedMemory &mem, sim::Addr base, const Schema &schema,
               std::size_t idx, const Datum &value);

/** Host-side tuple image from a row of datums (bulk loading). */
std::vector<std::uint8_t> encodeTuple(const Schema &schema,
                                      const std::vector<Datum> &values);

/** Sort key encoding of a datum into a signed 64-bit key. Integers and
 * dates map directly; doubles are scaled by 100 (money); strings use their
 * first 8 bytes, big-endian, preserving lexicographic order. */
std::int64_t datumToKey(const Datum &d);

} // namespace db
} // namespace dss

#endif // DSS_DB_SCHEMA_HH
