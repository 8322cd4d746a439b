#include "db/expr.hh"

#include <stdexcept>

namespace dss {
namespace db {

namespace {

/** Numeric coercion: any int/double pair compares/computes as double. */
bool
bothInt(const Datum &a, const Datum &b)
{
    return std::holds_alternative<std::int64_t>(a) &&
           std::holds_alternative<std::int64_t>(b);
}

} // namespace

Datum
Expr::eval(const Row &row) const
{
    switch (kind_) {
      case Kind::Attr:
        return row.get(attr_);
      case Kind::Const:
        return value_;
      case Kind::Cmp: {
        Datum a = lhs_->eval(row);
        Datum b = rhs_->eval(row);
        int c;
        if (std::holds_alternative<std::string>(a)) {
            c = datumStr(a).compare(datumStr(b));
        } else if (bothInt(a, b)) {
            std::int64_t x = datumInt(a), y = datumInt(b);
            c = x < y ? -1 : x > y ? 1 : 0;
        } else {
            double x = datumReal(a), y = datumReal(b);
            c = x < y ? -1 : x > y ? 1 : 0;
        }
        bool v = false;
        switch (cmp_) {
          case CmpOp::Eq: v = c == 0; break;
          case CmpOp::Ne: v = c != 0; break;
          case CmpOp::Lt: v = c < 0; break;
          case CmpOp::Le: v = c <= 0; break;
          case CmpOp::Gt: v = c > 0; break;
          case CmpOp::Ge: v = c >= 0; break;
        }
        return Datum{static_cast<std::int64_t>(v)};
      }
      case Kind::Logic: {
        if (logic_ == LogicOp::Not)
            return Datum{static_cast<std::int64_t>(!lhs_->evalBool(row))};
        bool l = lhs_->evalBool(row);
        if (logic_ == LogicOp::And)
            return Datum{static_cast<std::int64_t>(l && rhs_->evalBool(row))};
        return Datum{static_cast<std::int64_t>(l || rhs_->evalBool(row))};
      }
      case Kind::Arith: {
        Datum a = lhs_->eval(row);
        Datum b = rhs_->eval(row);
        if (bothInt(a, b)) {
            std::int64_t x = datumInt(a), y = datumInt(b);
            switch (arith_) {
              case ArithOp::Add: return Datum{x + y};
              case ArithOp::Sub: return Datum{x - y};
              case ArithOp::Mul: return Datum{x * y};
            }
        }
        double x = datumReal(a), y = datumReal(b);
        switch (arith_) {
          case ArithOp::Add: return Datum{x + y};
          case ArithOp::Sub: return Datum{x - y};
          case ArithOp::Mul: return Datum{x * y};
        }
        break;
      }
    }
    throw std::logic_error("Expr::eval: bad node");
}

bool
Expr::evalBool(const Row &row) const
{
    Datum d = eval(row);
    if (std::holds_alternative<std::int64_t>(d))
        return datumInt(d) != 0;
    return datumReal(d) != 0.0;
}

ExprPtr
attr(std::size_t idx)
{
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Expr::Kind::Attr;
    e->attr_ = idx;
    return e;
}

ExprPtr
col(const Schema &schema, const std::string &name)
{
    return attr(schema.indexOf(name));
}

ExprPtr
lit(Datum v)
{
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Expr::Kind::Const;
    e->value_ = std::move(v);
    return e;
}

ExprPtr
litInt(std::int64_t v)
{
    return lit(Datum{v});
}

ExprPtr
litReal(double v)
{
    return lit(Datum{v});
}

ExprPtr
litStr(std::string v)
{
    return lit(Datum{std::move(v)});
}

ExprPtr
cmp(CmpOp op, ExprPtr l, ExprPtr r)
{
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Expr::Kind::Cmp;
    e->cmp_ = op;
    e->lhs_ = std::move(l);
    e->rhs_ = std::move(r);
    return e;
}

ExprPtr
logic(LogicOp op, ExprPtr l, ExprPtr r)
{
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Expr::Kind::Logic;
    e->logic_ = op;
    e->lhs_ = std::move(l);
    e->rhs_ = std::move(r);
    return e;
}

ExprPtr
arith(ArithOp op, ExprPtr l, ExprPtr r)
{
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Expr::Kind::Arith;
    e->arith_ = op;
    e->lhs_ = std::move(l);
    e->rhs_ = std::move(r);
    return e;
}

ExprPtr
andAll(std::vector<ExprPtr> terms)
{
    if (terms.empty())
        throw std::invalid_argument("andAll: empty");
    ExprPtr acc = terms[0];
    for (std::size_t i = 1; i < terms.size(); ++i)
        acc = logic(LogicOp::And, acc, terms[i]);
    return acc;
}

} // namespace db
} // namespace dss
