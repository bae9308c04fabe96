#include "mcs/resyn/sop.hpp"

#include <algorithm>
#include <cassert>

namespace mcs {

namespace {

/// Minato-Morreale ISOP.  Returns cubes covering at least \p lower and at
/// most \p upper; \p cover_out receives the exact function of the cubes.
std::vector<Cube> isop_rec(const TruthTable& lower, const TruthTable& upper,
                           int num_vars, int var, TruthTable& cover_out) {
  if (lower.is_const0()) {
    cover_out = TruthTable::constant(false, lower.num_vars());
    return {};
  }
  if (upper.is_const1()) {
    cover_out = TruthTable::constant(true, lower.num_vars());
    return {Cube{}};
  }
  assert(var >= 0 && "ISOP: bounds are inconsistent");

  // Find the top variable that matters.
  while (var >= 0 && !lower.depends_on(var) && !upper.depends_on(var)) --var;
  assert(var >= 0);

  const TruthTable l0 = lower.cofactor0(var);
  const TruthTable l1 = lower.cofactor1(var);
  const TruthTable u0 = upper.cofactor0(var);
  const TruthTable u1 = upper.cofactor1(var);

  TruthTable cover0, cover1, cover_star;
  // Cubes that must carry literal !var / var.
  auto g0 = isop_rec(l0 & ~u1, u0, num_vars, var - 1, cover0);
  auto g1 = isop_rec(l1 & ~u0, u1, num_vars, var - 1, cover1);
  // Remaining minterms, coverable without the variable.
  const TruthTable l_star = (l0 & ~cover0) | (l1 & ~cover1);
  auto gs = isop_rec(l_star, u0 & u1, num_vars, var - 1, cover_star);

  std::vector<Cube> result;
  result.reserve(g0.size() + g1.size() + gs.size());
  for (Cube c : g0) {
    c.mask |= (1u << var);
    result.push_back(c);
  }
  for (Cube c : g1) {
    c.mask |= (1u << var);
    c.polarity |= (1u << var);
    result.push_back(c);
  }
  for (const Cube& c : gs) result.push_back(c);

  const TruthTable xv = TruthTable::projection(var, lower.num_vars());
  cover_out = (~xv & cover0) | (xv & cover1) | cover_star;
  return result;
}

/// isop_rec on replicated single words (functions of <= 6 variables): the
/// same recursion and cube order, with no allocation but the cube list.
/// Cubes go to \p out (g0, then g1, then g*); returns the cover's function.
Tt6 isop6_rec(Tt6 lower, Tt6 upper, int var, std::vector<Cube>& out) {
  if (lower == 0) return 0;
  if (upper == ~0ull) {
    out.push_back(Cube{});
    return ~0ull;
  }
  assert(var >= 0 && "ISOP: bounds are inconsistent");
  while (var >= 0 && !tt6_has_var(lower, var) && !tt6_has_var(upper, var)) {
    --var;
  }
  assert(var >= 0);

  const Tt6 l0 = tt6_cofactor0(lower, var);
  const Tt6 l1 = tt6_cofactor1(lower, var);
  const Tt6 u0 = tt6_cofactor0(upper, var);
  const Tt6 u1 = tt6_cofactor1(upper, var);

  const std::size_t begin0 = out.size();
  const Tt6 cover0 = isop6_rec(l0 & ~u1, u0, var - 1, out);
  const std::size_t begin1 = out.size();
  const Tt6 cover1 = isop6_rec(l1 & ~u0, u1, var - 1, out);
  const std::size_t end1 = out.size();
  const Tt6 cover_star =
      isop6_rec((l0 & ~cover0) | (l1 & ~cover1), u0 & u1, var - 1, out);

  const std::uint32_t bit = 1u << var;
  for (std::size_t i = begin0; i < end1; ++i) out[i].mask |= bit;
  for (std::size_t i = begin1; i < end1; ++i) out[i].polarity |= bit;

  const Tt6 xv = tt6_var(var);
  return (~xv & cover0) | (xv & cover1) | cover_star;
}

}  // namespace

std::vector<Cube> compute_isop(const TruthTable& f) {
  if (f.num_vars() <= kTt6MaxVars) {
    const Tt6 t = f.to_tt6();
    std::vector<Cube> cubes;
    [[maybe_unused]] const Tt6 cover =
        isop6_rec(t, t, f.num_vars() - 1, cubes);
    assert(cover == t && "ISOP must cover the function exactly");
    return cubes;
  }
  TruthTable cover;
  auto cubes = isop_rec(f, f, f.num_vars(), f.num_vars() - 1, cover);
  assert(cover == f && "ISOP must cover the function exactly");
  return cubes;
}

TruthTable sop_to_truth_table(const std::vector<Cube>& cubes, int num_vars) {
  TruthTable r = TruthTable::constant(false, num_vars);
  for (const Cube& c : cubes) {
    TruthTable term = TruthTable::constant(true, num_vars);
    for (int v = 0; v < num_vars; ++v) {
      if (!c.has_literal(v)) continue;
      const TruthTable xv = TruthTable::projection(v, num_vars);
      term = term & (c.literal_positive(v) ? xv : ~xv);
    }
    r = r | term;
  }
  return r;
}

int FactoredForm::num_literals() const noexcept {
  int n = 0;
  for (const auto& fn : nodes) {
    if (fn.kind == Kind::kLiteral) ++n;
  }
  return n;
}

namespace {

class Factorer {
 public:
  explicit Factorer(int num_vars) : num_vars_(num_vars) {}

  FactoredForm run(std::vector<Cube> cubes) {
    if (cubes.empty()) {
      ff_.root = add({FactoredForm::Kind::kConst0});
      return std::move(ff_);
    }
    if (cubes.size() == 1 && cubes[0].mask == 0) {
      ff_.root = add({FactoredForm::Kind::kConst1});
      return std::move(ff_);
    }
    ff_.root = factor(std::move(cubes));
    return std::move(ff_);
  }

 private:
  int add(FactoredForm::FNode n) {
    ff_.nodes.push_back(n);
    return static_cast<int>(ff_.nodes.size()) - 1;
  }

  int literal(int var, bool positive) {
    FactoredForm::FNode n{FactoredForm::Kind::kLiteral};
    n.var = var;
    n.positive = positive;
    return add(n);
  }

  int combine(FactoredForm::Kind kind, int a, int b) {
    FactoredForm::FNode n{kind};
    n.left = a;
    n.right = b;
    return add(n);
  }

  /// AND-chain over a single cube's literals (balanced).
  int cube_tree(const Cube& c) {
    std::vector<int> lits;
    for (int v = 0; v < num_vars_; ++v) {
      if (c.has_literal(v)) lits.push_back(literal(v, c.literal_positive(v)));
    }
    assert(!lits.empty());
    return balanced(FactoredForm::Kind::kAnd, lits);
  }

  int balanced(FactoredForm::Kind kind, std::vector<int> items) {
    while (items.size() > 1) {
      std::vector<int> next;
      for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
        next.push_back(combine(kind, items[i], items[i + 1]));
      }
      if (items.size() % 2) next.push_back(items.back());
      items = std::move(next);
    }
    return items[0];
  }

  int factor(std::vector<Cube> cubes) {
    assert(!cubes.empty());
    if (cubes.size() == 1) return cube_tree(cubes[0]);

    // Most frequent literal (variable, polarity).
    std::vector<int> count(2 * num_vars_, 0);
    for (const Cube& c : cubes) {
      for (int v = 0; v < num_vars_; ++v) {
        if (c.has_literal(v)) {
          ++count[2 * v + (c.literal_positive(v) ? 1 : 0)];
        }
      }
    }
    int best = -1, best_count = 0;
    for (int i = 0; i < 2 * num_vars_; ++i) {
      if (count[i] > best_count) {
        best = i;
        best_count = count[i];
      }
    }
    assert(best >= 0);

    if (best_count <= 1) {
      // No sharing: plain OR of cube trees.
      std::vector<int> terms;
      terms.reserve(cubes.size());
      for (const Cube& c : cubes) terms.push_back(cube_tree(c));
      return balanced(FactoredForm::Kind::kOr, terms);
    }

    const int var = best / 2;
    const bool pos = (best % 2) == 1;

    // Divide: quotient = cubes containing the literal (literal removed),
    // remainder = the rest.
    std::vector<Cube> quotient, remainder;
    for (Cube c : cubes) {
      if (c.has_literal(var) && c.literal_positive(var) == pos) {
        c.mask &= ~(1u << var);
        c.polarity &= ~(1u << var);
        quotient.push_back(c);
      } else {
        remainder.push_back(c);
      }
    }

    // literal * factor(quotient)  [+ factor(remainder)]
    // If any quotient cube lost all its literals, the quotient covers
    // everything and the product collapses to the literal itself.
    const bool quotient_is_one =
        std::any_of(quotient.begin(), quotient.end(),
                    [](const Cube& c) { return c.mask == 0; });
    int node;
    if (quotient_is_one) {
      node = literal(var, pos);
    } else {
      node = combine(FactoredForm::Kind::kAnd, literal(var, pos),
                     factor(std::move(quotient)));
    }
    if (!remainder.empty()) {
      node = combine(FactoredForm::Kind::kOr, node,
                     factor(std::move(remainder)));
    }
    return node;
  }

  FactoredForm ff_;
  int num_vars_;
};

}  // namespace

FactoredForm factor_sop(const std::vector<Cube>& cubes, int num_vars) {
  return Factorer(num_vars).run(cubes);
}

TruthTable factored_to_truth_table(const FactoredForm& ff, int num_vars) {
  std::vector<TruthTable> value(ff.nodes.size());
  for (std::size_t i = 0; i < ff.nodes.size(); ++i) {
    const auto& n = ff.nodes[i];
    switch (n.kind) {
      case FactoredForm::Kind::kConst0:
        value[i] = TruthTable::constant(false, num_vars);
        break;
      case FactoredForm::Kind::kConst1:
        value[i] = TruthTable::constant(true, num_vars);
        break;
      case FactoredForm::Kind::kLiteral: {
        TruthTable xv = TruthTable::projection(n.var, num_vars);
        value[i] = n.positive ? xv : ~xv;
        break;
      }
      case FactoredForm::Kind::kAnd:
        value[i] = value[n.left] & value[n.right];
        break;
      case FactoredForm::Kind::kOr:
        value[i] = value[n.left] | value[n.right];
        break;
    }
  }
  return value[ff.root];
}

}  // namespace mcs
