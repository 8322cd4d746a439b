/**
 * @file
 * Typed expression trees for predicates and arithmetic.
 *
 * Expressions evaluate against a Row, which reads attributes through
 * TracedMemory — so every attribute an expression touches shows up in the
 * trace against the tuple's DataClass (Data on heap pages, Priv on private
 * copies), exactly the access structure the paper analyzes.
 */

#ifndef DSS_DB_EXPR_HH
#define DSS_DB_EXPR_HH

#include <memory>
#include <vector>

#include "db/schema.hh"

namespace dss {
namespace db {

/** A tuple being evaluated: memory handle + address + layout. */
struct Row
{
    TracedMemory *mem = nullptr;
    sim::Addr base = 0;
    const Schema *schema = nullptr;

    Datum
    get(std::size_t idx) const
    {
        return readAttr(*mem, base, *schema, idx);
    }
};

enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };
enum class LogicOp { And, Or, Not };
enum class ArithOp { Add, Sub, Mul };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/** Immutable expression node. Build with the factory functions below. */
class Expr
{
  public:
    enum class Kind { Attr, Const, Cmp, Logic, Arith };

    /** Evaluate; numeric results are int64 or double, booleans int64 0/1. */
    Datum eval(const Row &row) const;

    /** Evaluate as a predicate. */
    bool evalBool(const Row &row) const;

    Kind kind() const { return kind_; }
    std::size_t attrIndex() const { return attr_; }

  private:
    friend ExprPtr attr(std::size_t idx);
    friend ExprPtr lit(Datum v);
    friend ExprPtr cmp(CmpOp op, ExprPtr l, ExprPtr r);
    friend ExprPtr logic(LogicOp op, ExprPtr l, ExprPtr r);
    friend ExprPtr arith(ArithOp op, ExprPtr l, ExprPtr r);

    Expr() = default;

    Kind kind_ = Kind::Const;
    std::size_t attr_ = 0;
    Datum value_;
    CmpOp cmp_ = CmpOp::Eq;
    LogicOp logic_ = LogicOp::And;
    ArithOp arith_ = ArithOp::Add;
    ExprPtr lhs_;
    ExprPtr rhs_;
};

/** Attribute reference by position. */
ExprPtr attr(std::size_t idx);

/** Attribute reference by name (resolved against @p schema now). */
ExprPtr col(const Schema &schema, const std::string &name);

/** Literal. */
ExprPtr lit(Datum v);
ExprPtr litInt(std::int64_t v);
ExprPtr litReal(double v);
ExprPtr litStr(std::string v);

ExprPtr cmp(CmpOp op, ExprPtr l, ExprPtr r);
ExprPtr logic(LogicOp op, ExprPtr l, ExprPtr r);
ExprPtr arith(ArithOp op, ExprPtr l, ExprPtr r);

/** a && b (convenience). */
ExprPtr andAll(std::vector<ExprPtr> terms);

} // namespace db
} // namespace dss

#endif // DSS_DB_EXPR_HH
