#include "db/schema.hh"

#include <cstring>
#include <stdexcept>

namespace dss {
namespace db {

namespace {

std::uint16_t
typeSize(AttrType t, std::uint16_t declared)
{
    switch (t) {
      case AttrType::Int32:
      case AttrType::Date:
        return 4;
      case AttrType::Int64:
        return 8;
      case AttrType::Double:
        return 8;
      case AttrType::Char:
        if (declared == 0)
            throw std::invalid_argument("Char attribute needs a length");
        return declared;
    }
    return 4;
}

std::uint16_t
typeAlign(AttrType t)
{
    switch (t) {
      case AttrType::Int32:
      case AttrType::Date:
        return 4;
      case AttrType::Int64:
      case AttrType::Double:
        return 8;
      case AttrType::Char:
        return 1;
    }
    return 4;
}

} // namespace

Schema &
Schema::add(std::string name, AttrType type, std::uint16_t len)
{
    Attribute a;
    a.name = std::move(name);
    a.type = type;
    a.len = typeSize(type, len);
    std::uint16_t align = typeAlign(type);
    a.offset = static_cast<std::uint16_t>(
        (rawLen_ + align - 1) & ~static_cast<std::size_t>(align - 1));
    rawLen_ = a.offset + a.len;
    attrs_.push_back(std::move(a));
    // Tuples are 8-byte aligned overall; columns pack at their natural
    // alignment only.
    tupleLen_ = (rawLen_ + 7) & ~std::size_t{7};
    return *this;
}

std::size_t
Schema::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < attrs_.size(); ++i) {
        if (attrs_[i].name == name)
            return i;
    }
    throw std::out_of_range("Schema: no attribute named " + name);
}

int
compareDatum(const Datum &a, const Datum &b)
{
    if (std::holds_alternative<std::int64_t>(a)) {
        std::int64_t x = datumInt(a), y = datumInt(b);
        return x < y ? -1 : x > y ? 1 : 0;
    }
    if (std::holds_alternative<double>(a)) {
        double x = datumReal(a), y = datumReal(b);
        return x < y ? -1 : x > y ? 1 : 0;
    }
    return datumStr(a).compare(datumStr(b));
}

std::int64_t
datumInt(const Datum &d)
{
    return std::get<std::int64_t>(d);
}

double
datumReal(const Datum &d)
{
    if (std::holds_alternative<std::int64_t>(d))
        return static_cast<double>(std::get<std::int64_t>(d));
    return std::get<double>(d);
}

const std::string &
datumStr(const Datum &d)
{
    return std::get<std::string>(d);
}

std::vector<std::uint8_t>
encodeTuple(const Schema &schema, const std::vector<Datum> &values)
{
    if (values.size() != schema.numAttrs())
        throw std::invalid_argument("encodeTuple: arity mismatch");
    std::vector<std::uint8_t> out(schema.tupleLen(), 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const Attribute &a = schema.attr(i);
        std::uint8_t *dst = out.data() + a.offset;
        switch (a.type) {
          case AttrType::Int32:
          case AttrType::Date: {
            auto v = static_cast<std::int32_t>(datumInt(values[i]));
            std::memcpy(dst, &v, 4);
            break;
          }
          case AttrType::Int64: {
            std::int64_t v = datumInt(values[i]);
            std::memcpy(dst, &v, 8);
            break;
          }
          case AttrType::Double: {
            double v = datumReal(values[i]);
            std::memcpy(dst, &v, 8);
            break;
          }
          case AttrType::Char: {
            std::string s = datumStr(values[i]);
            s.resize(a.len, '\0');
            std::memcpy(dst, s.data(), a.len);
            break;
          }
        }
    }
    return out;
}

std::int64_t
datumToKey(const Datum &d)
{
    if (std::holds_alternative<std::int64_t>(d))
        return std::get<std::int64_t>(d);
    if (std::holds_alternative<double>(d))
        return static_cast<std::int64_t>(std::get<double>(d) * 100.0);
    const std::string &s = std::get<std::string>(d);
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        k <<= 8;
        if (i < s.size())
            k |= static_cast<std::uint8_t>(s[i]);
    }
    // Shift into the non-negative range while preserving order.
    return static_cast<std::int64_t>(k >> 1);
}

Datum
readAttr(TracedMemory &mem, sim::Addr base, const Schema &schema,
         std::size_t idx)
{
    const Attribute &a = schema.attr(idx);
    const sim::Addr addr = base + a.offset;
    switch (a.type) {
      case AttrType::Int32:
      case AttrType::Date:
        return Datum{static_cast<std::int64_t>(mem.load<std::int32_t>(addr))};
      case AttrType::Int64:
        return Datum{mem.load<std::int64_t>(addr)};
      case AttrType::Double:
        return Datum{mem.load<double>(addr)};
      case AttrType::Char: {
        std::string s(a.len, '\0');
        mem.loadBytes(addr, s.data(), a.len);
        s.resize(std::strlen(s.c_str()));
        return Datum{std::move(s)};
      }
    }
    return Datum{std::int64_t{0}};
}

void
writeAttr(TracedMemory &mem, sim::Addr base, const Schema &schema,
          std::size_t idx, const Datum &value)
{
    const Attribute &a = schema.attr(idx);
    const sim::Addr addr = base + a.offset;
    switch (a.type) {
      case AttrType::Int32:
      case AttrType::Date:
        mem.store<std::int32_t>(addr,
                                static_cast<std::int32_t>(datumInt(value)));
        break;
      case AttrType::Int64:
        mem.store<std::int64_t>(addr, datumInt(value));
        break;
      case AttrType::Double:
        mem.store<double>(addr, datumReal(value));
        break;
      case AttrType::Char: {
        std::string s = datumStr(value);
        s.resize(a.len, '\0');
        mem.storeBytes(addr, s.data(), a.len);
        break;
      }
    }
}

} // namespace db
} // namespace dss
