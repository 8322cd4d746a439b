/**
 * @file
 * Unit and property tests for schemas, tuple encode/decode, datum
 * comparison and sort-key encoding.
 */

#include <gtest/gtest.h>

#include "db_test_util.hh"

namespace {

using namespace dss;
using namespace dss::db;
using dss::test::MemFixture;

TEST(Schema, ColumnsPackAtNaturalAlignment)
{
    Schema s;
    s.add("a", AttrType::Int32)
        .add("b", AttrType::Char, 1)
        .add("c", AttrType::Char, 1)
        .add("d", AttrType::Int32)
        .add("e", AttrType::Double);
    EXPECT_EQ(s.attr(0).offset, 0);
    EXPECT_EQ(s.attr(1).offset, 4);
    EXPECT_EQ(s.attr(2).offset, 5);
    EXPECT_EQ(s.attr(3).offset, 8);  // back to 4-byte alignment
    EXPECT_EQ(s.attr(4).offset, 16); // 8-byte alignment
    EXPECT_EQ(s.tupleLen(), 24u);
}

TEST(Schema, TupleLenIsEightByteAligned)
{
    Schema s;
    s.add("a", AttrType::Int32);
    EXPECT_EQ(s.tupleLen(), 8u);
    s.add("b", AttrType::Char, 3);
    EXPECT_EQ(s.tupleLen(), 8u);
    s.add("c", AttrType::Char, 2);
    EXPECT_EQ(s.tupleLen(), 16u);
}

TEST(Schema, TpcdLineitemIs128Bytes)
{
    // The lineitem stride matters for prefetch reach; pin it down.
    Schema sl;
    sl.add("l_orderkey", AttrType::Int32)
        .add("l_partkey", AttrType::Int32)
        .add("l_suppkey", AttrType::Int32)
        .add("l_linenumber", AttrType::Int32)
        .add("l_quantity", AttrType::Double)
        .add("l_extendedprice", AttrType::Double)
        .add("l_discount", AttrType::Double)
        .add("l_tax", AttrType::Double)
        .add("l_returnflag", AttrType::Char, 1)
        .add("l_linestatus", AttrType::Char, 1)
        .add("l_shipdate", AttrType::Date)
        .add("l_commitdate", AttrType::Date)
        .add("l_receiptdate", AttrType::Date)
        .add("l_shipinstruct", AttrType::Char, 25)
        .add("l_shipmode", AttrType::Char, 10)
        .add("l_comment", AttrType::Char, 27);
    EXPECT_EQ(sl.tupleLen(), 128u);
}

TEST(Schema, IndexOfFindsAndThrows)
{
    Schema s;
    s.add("x", AttrType::Int32).add("y", AttrType::Double);
    EXPECT_EQ(s.indexOf("y"), 1u);
    EXPECT_THROW(s.indexOf("z"), std::out_of_range);
}

TEST(Schema, CharRequiresLength)
{
    Schema s;
    EXPECT_THROW(s.add("bad", AttrType::Char), std::invalid_argument);
}

TEST(Datum, CompareInts)
{
    EXPECT_LT(compareDatum(Datum{std::int64_t{1}}, Datum{std::int64_t{2}}),
              0);
    EXPECT_EQ(compareDatum(Datum{std::int64_t{5}}, Datum{std::int64_t{5}}),
              0);
    EXPECT_GT(compareDatum(Datum{std::int64_t{9}}, Datum{std::int64_t{2}}),
              0);
}

TEST(Datum, CompareMixedNumericCoercesToDouble)
{
    EXPECT_LT(compareDatum(Datum{1.5}, Datum{std::int64_t{2}}), 0);
    EXPECT_GT(compareDatum(Datum{2.5}, Datum{std::int64_t{2}}), 0);
}

TEST(Datum, CompareStrings)
{
    EXPECT_LT(compareDatum(Datum{std::string("AIR")},
                           Datum{std::string("RAIL")}),
              0);
    EXPECT_EQ(compareDatum(Datum{std::string("x")},
                           Datum{std::string("x")}),
              0);
}

TEST(Datum, KeyEncodingPreservesIntOrder)
{
    EXPECT_LT(datumToKey(Datum{std::int64_t{-5}}),
              datumToKey(Datum{std::int64_t{3}}));
    EXPECT_LT(datumToKey(Datum{std::int64_t{3}}),
              datumToKey(Datum{std::int64_t{400}}));
}

TEST(Datum, KeyEncodingPreservesStringOrder)
{
    const char *segs[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                          "HOUSEHOLD", "MACHINERY"};
    for (int i = 0; i + 1 < 5; ++i) {
        EXPECT_LT(datumToKey(Datum{std::string(segs[i])}),
                  datumToKey(Datum{std::string(segs[i + 1])}))
            << segs[i] << " vs " << segs[i + 1];
    }
}

TEST(Datum, KeyEncodingScalesMoney)
{
    EXPECT_EQ(datumToKey(Datum{1.25}), 125);
    EXPECT_LT(datumToKey(Datum{0.05}), datumToKey(Datum{0.06}));
}

TEST(TupleCodec, EncodeThenReadAttrRoundTrips)
{
    MemFixture f;
    Schema s;
    s.add("k", AttrType::Int32)
        .add("d", AttrType::Date)
        .add("v", AttrType::Double)
        .add("big", AttrType::Int64)
        .add("name", AttrType::Char, 12);
    std::vector<Datum> row{Datum{std::int64_t{-7}}, Datum{std::int64_t{900}},
                           Datum{3.25}, Datum{std::int64_t{1} << 40},
                           Datum{std::string("hello world")}};
    std::vector<std::uint8_t> img = encodeTuple(s, row);
    ASSERT_EQ(img.size(), s.tupleLen());

    sim::Addr a = f.space.shared().alloc(img.size(), sim::DataClass::Data);
    f.mem.storeBytes(a, img.data(), img.size());
    EXPECT_EQ(datumInt(readAttr(f.mem, a, s, 0)), -7);
    EXPECT_EQ(datumInt(readAttr(f.mem, a, s, 1)), 900);
    EXPECT_DOUBLE_EQ(datumReal(readAttr(f.mem, a, s, 2)), 3.25);
    EXPECT_EQ(datumInt(readAttr(f.mem, a, s, 3)), std::int64_t{1} << 40);
    EXPECT_EQ(datumStr(readAttr(f.mem, a, s, 4)), "hello world");
}

TEST(TupleCodec, WriteAttrUpdatesInPlace)
{
    MemFixture f;
    Schema s;
    s.add("k", AttrType::Int32).add("name", AttrType::Char, 8);
    sim::Addr a =
        f.space.shared().alloc(s.tupleLen(), sim::DataClass::Data);
    writeAttr(f.mem, a, s, 0, Datum{std::int64_t{11}});
    writeAttr(f.mem, a, s, 1, Datum{std::string("abc")});
    EXPECT_EQ(datumInt(readAttr(f.mem, a, s, 0)), 11);
    EXPECT_EQ(datumStr(readAttr(f.mem, a, s, 1)), "abc");
    writeAttr(f.mem, a, s, 1, Datum{std::string("xy")});
    EXPECT_EQ(datumStr(readAttr(f.mem, a, s, 1)), "xy");
}

TEST(TupleCodec, EncodeArityMismatchThrows)
{
    Schema s;
    s.add("k", AttrType::Int32);
    EXPECT_THROW(encodeTuple(s, {}), std::invalid_argument);
}

TEST(TupleCodec, CharTruncatesToDeclaredWidth)
{
    MemFixture f;
    Schema s;
    s.add("c", AttrType::Char, 4);
    sim::Addr a =
        f.space.shared().alloc(s.tupleLen(), sim::DataClass::Data);
    writeAttr(f.mem, a, s, 0, Datum{std::string("abcdefgh")});
    EXPECT_EQ(datumStr(readAttr(f.mem, a, s, 0)), "abcd");
}

/** Property: every attribute written via encodeTuple reads back equal,
 * across a sweep of generated schemas. */
class SchemaRoundTrip : public ::testing::TestWithParam<int>
{};

TEST_P(SchemaRoundTrip, AllAttrsRoundTrip)
{
    const int variant = GetParam();
    MemFixture f;
    Schema s;
    std::vector<Datum> row;
    std::uint64_t rng = 0x9e3779b9u * (variant + 1);
    auto next = [&]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    const int nattrs = 3 + variant % 9;
    for (int i = 0; i < nattrs; ++i) {
        switch (next() % 4) {
          case 0:
            s.add("a" + std::to_string(i), AttrType::Int32);
            row.push_back(
                Datum{static_cast<std::int64_t>(
                    static_cast<std::int32_t>(next()))});
            break;
          case 1:
            s.add("a" + std::to_string(i), AttrType::Int64);
            row.push_back(Datum{static_cast<std::int64_t>(next())});
            break;
          case 2:
            s.add("a" + std::to_string(i), AttrType::Double);
            row.push_back(Datum{static_cast<double>(next() % 100000) / 7});
            break;
          default: {
            auto len = static_cast<std::uint16_t>(1 + next() % 30);
            s.add("a" + std::to_string(i), AttrType::Char, len);
            std::string v(next() % len, 'a' + i % 26);
            row.push_back(Datum{v});
            break;
          }
        }
    }
    std::vector<std::uint8_t> img = encodeTuple(s, row);
    sim::Addr a = f.space.shared().alloc(img.size(), sim::DataClass::Data);
    f.mem.storeBytes(a, img.data(), img.size());
    for (int i = 0; i < nattrs; ++i) {
        EXPECT_EQ(compareDatum(readAttr(f.mem, a, s, i), row[i]), 0)
            << "attr " << i << " of variant " << variant;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, SchemaRoundTrip, ::testing::Range(0, 24));

} // namespace
