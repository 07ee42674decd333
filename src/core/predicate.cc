#include "core/predicate.h"

#include <sstream>

#include "util/string_util.h"

namespace ultraverse::core {

namespace {
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::Value;
}  // namespace

// ---------------------------------------------------------------------------
// ValueInterval
// ---------------------------------------------------------------------------

bool ValueInterval::Contains(const Value& v) const {
  if (lo) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_incl)) return false;
  }
  if (hi) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_incl)) return false;
  }
  return true;
}

namespace {

/// One bound of an interval, borrowed from the interval that owns it
/// (nullptr = unbounded).
struct Bound {
  const Value* v = nullptr;
  bool incl = false;
};

/// The tighter of two bounds on the same side: the greater lower bound
/// (`sign` = 1) or the lesser upper bound (`sign` = -1). Ties intersect
/// the inclusivity flags.
Bound Tighter(const std::optional<Value>& a, bool a_incl,
              const std::optional<Value>& b, bool b_incl, int sign) {
  if (!a) return {b ? &*b : nullptr, b_incl};
  if (!b) return {&*a, a_incl};
  int c = a->Compare(*b) * sign;
  if (c > 0) return {&*a, a_incl};
  if (c < 0) return {&*b, b_incl};
  return {&*a, a_incl && b_incl};
}

bool NonEmpty(const Bound& lo, const Bound& hi) {
  if (!lo.v || !hi.v) return true;
  int c = lo.v->Compare(*hi.v);
  return c < 0 || (c == 0 && lo.incl && hi.incl);
}

}  // namespace

std::optional<ValueInterval> ValueInterval::Meet(
    const ValueInterval& other) const {
  Bound l = Tighter(lo, lo_incl, other.lo, other.lo_incl, 1);
  Bound h = Tighter(hi, hi_incl, other.hi, other.hi_incl, -1);
  if (!NonEmpty(l, h)) return std::nullopt;
  ValueInterval r;
  if (l.v) r.lo = *l.v;
  if (h.v) r.hi = *h.v;
  r.lo_incl = l.incl;
  r.hi_incl = h.incl;
  return r;
}

bool ValueInterval::Intersects(const ValueInterval& other) const {
  return NonEmpty(Tighter(lo, lo_incl, other.lo, other.lo_incl, 1),
                  Tighter(hi, hi_incl, other.hi, other.hi_incl, -1));
}

bool ValueInterval::Covers(const ValueInterval& other) const {
  if (lo) {
    if (!other.lo) return false;
    int c = lo->Compare(*other.lo);
    if (c > 0) return false;
    if (c == 0 && !lo_incl && other.lo_incl) return false;
  }
  if (hi) {
    if (!other.hi) return false;
    int c = hi->Compare(*other.hi);
    if (c < 0) return false;
    if (c == 0 && !hi_incl && other.hi_incl) return false;
  }
  return true;
}

std::string ValueInterval::ToString() const {
  std::ostringstream os;
  os << (lo_incl ? '[' : '(');
  os << (lo ? lo->ToDisplayString() : std::string("-inf"));
  os << ", ";
  os << (hi ? hi->ToDisplayString() : std::string("+inf"));
  os << (hi_incl ? ']' : ')');
  return os.str();
}

// ---------------------------------------------------------------------------
// ValueRegion
// ---------------------------------------------------------------------------

void ValueRegion::MergeWith(const ValueRegion& other) {
  if (top) return;
  if (other.top) {
    WidenToTop();
    return;
  }
  points.insert(other.points.begin(), other.points.end());
  intervals.insert(intervals.end(), other.intervals.begin(),
                   other.intervals.end());
}

ValueRegion ValueRegion::MeetWith(const ValueRegion& other) const {
  if (top) return other;
  if (other.top) return *this;
  ValueRegion r = EmptySet();
  for (const auto& p : points) {
    if (other.ContainsEncoded(p)) r.points.insert(p);
  }
  for (const auto& p : other.points) {
    if (ContainsEncoded(p)) r.points.insert(p);
  }
  for (const auto& a : intervals) {
    for (const auto& b : other.intervals) {
      if (auto m = a.Meet(b)) r.intervals.push_back(*m);
    }
  }
  return r;
}

bool ValueRegion::Intersects(const ValueRegion& other) const {
  // ⊤ ∩ ∅ is empty: an empty region matches no row, whatever faces it.
  if (IsEmptySet() || other.IsEmptySet()) return false;
  if (top || other.top) return true;
  // The existence checks MeetWith encodes, without building the meet:
  // a point of either side in the other, or a pair of meeting intervals.
  for (const auto& p : points) {
    if (other.ContainsEncoded(p)) return true;
  }
  for (const auto& p : other.points) {
    if (ContainsEncoded(p)) return true;
  }
  for (const auto& a : intervals) {
    for (const auto& b : other.intervals) {
      if (a.Intersects(b)) return true;
    }
  }
  return false;
}

bool ValueRegion::Contains(const Value& v) const {
  if (top) return true;
  if (points.count(v.Encode())) return true;
  for (const auto& iv : intervals) {
    if (iv.Contains(v)) return true;
  }
  return false;
}

bool ValueRegion::ContainsEncoded(const std::string& enc) const {
  if (top) return true;
  if (points.count(enc)) return true;
  if (intervals.empty()) return false;
  Value v;
  if (!Value::Decode(enc, &v)) return true;  // conservative: assume member
  for (const auto& iv : intervals) {
    if (iv.Contains(v)) return true;
  }
  return false;
}

bool ValueRegion::ContainedIn(const ValueRegion& other) const {
  if (other.top) return true;
  if (top) return false;
  for (const auto& p : points) {
    if (!other.ContainsEncoded(p)) return false;
  }
  for (const auto& iv : intervals) {
    bool covered = false;
    for (const auto& ov : other.intervals) {
      if (ov.Covers(iv)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

std::string ValueRegion::ToString(size_t max_items) const {
  if (top) return "*";
  if (IsEmptySet()) return "{}";
  std::ostringstream os;
  size_t left = max_items;
  if (!points.empty()) {
    os << '{';
    bool first = true;
    for (const auto& p : points) {
      if (left == 0) break;
      --left;
      if (!first) os << ", ";
      first = false;
      Value v;
      os << (Value::Decode(p, &v) ? v.ToDisplayString() : std::string("?"));
    }
    os << '}';
  }
  bool first = points.empty();
  for (const auto& iv : intervals) {
    if (left == 0) break;
    --left;
    if (!first) os << " u ";
    first = false;
    os << iv.ToString();
  }
  if (points.size() + intervals.size() > max_items) os << " ...";
  return os.str();
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

namespace {

/// `v <op> col` reads as `col <flipped-op> v`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

ValueRegion IntervalsFor(BinaryOp op, const std::vector<Value>& candidates) {
  ValueRegion r = ValueRegion::EmptySet();
  for (const auto& v : candidates) {
    ValueInterval iv;
    switch (op) {
      case BinaryOp::kLt:
        iv.hi = v;
        break;
      case BinaryOp::kLe:
        iv.hi = v;
        iv.hi_incl = true;
        break;
      case BinaryOp::kGt:
        iv.lo = v;
        break;
      case BinaryOp::kGe:
        iv.lo = v;
        iv.lo_incl = true;
        break;
      default:
        return ValueRegion::Top();
    }
    r.intervals.push_back(std::move(iv));
  }
  return r;
}

}  // namespace

ValueRegion ExtractPredicateRegion(const Expr* where,
                                   const RiColumnScope& scope,
                                   const std::string& ri_column,
                                   const std::vector<std::string>& ri_aliases,
                                   const PredicateEvalFn& eval,
                                   const PredicateAliasFn& alias_lookup) {
  if (!where) return ValueRegion::Top();
  switch (where->kind) {
    case ExprKind::kBinary: {
      const BinaryOp op = where->binary_op;
      if (op == BinaryOp::kAnd) {
        ValueRegion l =
            ExtractPredicateRegion(where->children[0].get(), scope, ri_column,
                                   ri_aliases, eval, alias_lookup);
        ValueRegion r =
            ExtractPredicateRegion(where->children[1].get(), scope, ri_column,
                                   ri_aliases, eval, alias_lookup);
        return l.MeetWith(r);
      }
      if (op == BinaryOp::kOr) {
        ValueRegion l =
            ExtractPredicateRegion(where->children[0].get(), scope, ri_column,
                                   ri_aliases, eval, alias_lookup);
        ValueRegion r =
            ExtractPredicateRegion(where->children[1].get(), scope, ri_column,
                                   ri_aliases, eval, alias_lookup);
        l.MergeWith(r);
        return l;
      }
      if (op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe ||
          op == BinaryOp::kGt || op == BinaryOp::kGe) {
        const Expr* col = where->children[0].get();
        const Expr* val = where->children[1].get();
        BinaryOp eff = op;
        if (col->kind != ExprKind::kColumnRef) {
          std::swap(col, val);
          eff = FlipComparison(op);
        }
        if (col->kind != ExprKind::kColumnRef || !scope.Binds(*col)) {
          return ValueRegion::Top();
        }
        auto candidates = eval(*val);
        if (!candidates) return ValueRegion::Top();
        if (EqualsIgnoreCase(col->column, ri_column)) {
          if (eff != BinaryOp::kEq) return IntervalsFor(eff, *candidates);
          ValueRegion r = ValueRegion::EmptySet();
          for (const auto& v : *candidates) r.points.insert(v.Encode());
          return r;
        }
        for (const auto& alias : ri_aliases) {
          if (!EqualsIgnoreCase(col->column, alias)) continue;
          // Ranges over alias values don't translate through the
          // point-wise alias→RI map: widen.
          if (eff != BinaryOp::kEq) return ValueRegion::Top();
          ValueRegion r = ValueRegion::EmptySet();
          for (const auto& v : *candidates) {
            auto ri = alias_lookup(alias, v);
            if (!ri) return ValueRegion::Top();
            r.points.insert(ri->begin(), ri->end());
          }
          return r;
        }
        // A non-RI column constrains nothing at row granularity.
        return ValueRegion::Top();
      }
      return ValueRegion::Top();
    }
    case ExprKind::kInList: {
      const Expr* col = where->children[0].get();
      if (col->kind != ExprKind::kColumnRef || !scope.Binds(*col) ||
          !EqualsIgnoreCase(col->column, ri_column)) {
        return ValueRegion::Top();
      }
      ValueRegion r = ValueRegion::EmptySet();
      for (size_t i = 1; i < where->children.size(); ++i) {
        auto candidates = eval(*where->children[i]);
        if (!candidates) return ValueRegion::Top();
        for (const auto& v : *candidates) r.points.insert(v.Encode());
      }
      return r;
    }
    default:
      return ValueRegion::Top();
  }
}

}  // namespace ultraverse::core
