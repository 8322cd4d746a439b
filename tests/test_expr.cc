/**
 * @file
 * Unit tests for the expression layer: literals, attribute references,
 * comparisons, logic, arithmetic, and the traced reads they perform.
 */

#include <gtest/gtest.h>

#include "db_test_util.hh"

namespace {

using namespace dss;
using namespace dss::db;
using dss::test::MemFixture;

struct ExprFixture : MemFixture
{
    Schema schema;
    sim::Addr tuple = 0;

    ExprFixture()
    {
        schema.add("k", AttrType::Int32)
            .add("v", AttrType::Double)
            .add("d", AttrType::Date)
            .add("s", AttrType::Char, 8);
        tuple = space.shared().alloc(schema.tupleLen(),
                                     sim::DataClass::Data);
        writeAttr(mem, tuple, schema, 0, Datum{std::int64_t{10}});
        writeAttr(mem, tuple, schema, 1, Datum{2.5});
        writeAttr(mem, tuple, schema, 2, Datum{std::int64_t{700}});
        writeAttr(mem, tuple, schema, 3, Datum{std::string("AIR")});
    }

    Row
    row()
    {
        return Row{&mem, tuple, &schema};
    }
};

TEST(Expr, LiteralsEvaluateToThemselves)
{
    ExprFixture f;
    EXPECT_EQ(datumInt(litInt(5)->eval(f.row())), 5);
    EXPECT_DOUBLE_EQ(datumReal(litReal(1.25)->eval(f.row())), 1.25);
    EXPECT_EQ(datumStr(litStr("x")->eval(f.row())), "x");
}

TEST(Expr, AttrReadsTupleThroughTracedMemory)
{
    ExprFixture f;
    f.stream.clear();
    EXPECT_EQ(datumInt(attr(0)->eval(f.row())), 10);
    EXPECT_EQ(f.countOps(sim::Op::Read, sim::DataClass::Data), 1u);
}

TEST(Expr, ColResolvesByName)
{
    ExprFixture f;
    EXPECT_DOUBLE_EQ(datumReal(col(f.schema, "v")->eval(f.row())), 2.5);
    EXPECT_THROW(col(f.schema, "nope"), std::out_of_range);
}

TEST(Expr, IntComparisons)
{
    ExprFixture f;
    EXPECT_TRUE(cmp(CmpOp::Eq, attr(0), litInt(10))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Ne, attr(0), litInt(9))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Lt, attr(0), litInt(11))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Le, attr(0), litInt(10))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Gt, attr(0), litInt(9))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Ge, attr(0), litInt(10))->evalBool(f.row()));
    EXPECT_FALSE(cmp(CmpOp::Lt, attr(0), litInt(10))->evalBool(f.row()));
}

TEST(Expr, MixedNumericComparisonCoerces)
{
    ExprFixture f;
    // k (int 10) > 9.5 (double)
    EXPECT_TRUE(cmp(CmpOp::Gt, attr(0), litReal(9.5))->evalBool(f.row()));
    EXPECT_FALSE(cmp(CmpOp::Gt, attr(0), litReal(10.5))->evalBool(f.row()));
}

TEST(Expr, StringComparison)
{
    ExprFixture f;
    EXPECT_TRUE(cmp(CmpOp::Eq, attr(3), litStr("AIR"))->evalBool(f.row()));
    EXPECT_TRUE(cmp(CmpOp::Lt, attr(3), litStr("RAIL"))->evalBool(f.row()));
}

TEST(Expr, LogicOperators)
{
    ExprFixture f;
    ExprPtr t = cmp(CmpOp::Eq, litInt(1), litInt(1));
    ExprPtr fa = cmp(CmpOp::Eq, litInt(1), litInt(2));
    EXPECT_TRUE(logic(LogicOp::And, t, t)->evalBool(f.row()));
    EXPECT_FALSE(logic(LogicOp::And, t, fa)->evalBool(f.row()));
    EXPECT_TRUE(logic(LogicOp::Or, fa, t)->evalBool(f.row()));
    EXPECT_FALSE(logic(LogicOp::Or, fa, fa)->evalBool(f.row()));
    EXPECT_TRUE(logic(LogicOp::Not, fa, nullptr)->evalBool(f.row()));
    EXPECT_FALSE(logic(LogicOp::Not, t, nullptr)->evalBool(f.row()));
}

TEST(Expr, AndShortCircuitSkipsRhsReads)
{
    ExprFixture f;
    ExprPtr never = cmp(CmpOp::Eq, litInt(1), litInt(2));
    ExprPtr reads_attr = cmp(CmpOp::Eq, attr(0), litInt(10));
    f.stream.clear();
    EXPECT_FALSE(
        logic(LogicOp::And, never, reads_attr)->evalBool(f.row()));
    EXPECT_EQ(f.countOps(sim::Op::Read), 0u); // rhs never evaluated
}

TEST(Expr, ArithmeticIntAndDouble)
{
    ExprFixture f;
    EXPECT_EQ(datumInt(arith(ArithOp::Add, litInt(2), litInt(3))
                           ->eval(f.row())),
              5);
    EXPECT_EQ(datumInt(arith(ArithOp::Sub, litInt(2), litInt(3))
                           ->eval(f.row())),
              -1);
    EXPECT_EQ(datumInt(arith(ArithOp::Mul, litInt(4), litInt(3))
                           ->eval(f.row())),
              12);
    EXPECT_DOUBLE_EQ(
        datumReal(arith(ArithOp::Mul, attr(1), litInt(4))->eval(f.row())),
        10.0);
}

TEST(Expr, RevenueExpression)
{
    ExprFixture f;
    // v * (1 - 0.1) = 2.5 * 0.9
    ExprPtr rev = arith(ArithOp::Mul, attr(1),
                        arith(ArithOp::Sub, litReal(1.0), litReal(0.1)));
    EXPECT_DOUBLE_EQ(datumReal(rev->eval(f.row())), 2.25);
}

TEST(Expr, AndAllChainsTerms)
{
    ExprFixture f;
    ExprPtr e = andAll({cmp(CmpOp::Gt, attr(0), litInt(5)),
                        cmp(CmpOp::Lt, attr(0), litInt(15)),
                        cmp(CmpOp::Eq, attr(3), litStr("AIR"))});
    EXPECT_TRUE(e->evalBool(f.row()));
    EXPECT_THROW(andAll({}), std::invalid_argument);
}

TEST(Expr, EvalOnPrivateCopyReadsPrivClass)
{
    ExprFixture f;
    sim::Addr copy = f.space.priv(0).alloc(f.schema.tupleLen(),
                                           sim::DataClass::Priv);
    f.mem.copy(copy, f.tuple, f.schema.tupleLen());
    f.stream.clear();
    Row prow{&f.mem, copy, &f.schema};
    EXPECT_EQ(datumInt(attr(0)->eval(prow)), 10);
    EXPECT_EQ(f.countOps(sim::Op::Read, sim::DataClass::Priv), 1u);
    EXPECT_EQ(f.countOps(sim::Op::Read, sim::DataClass::Data), 0u);
}

} // namespace
