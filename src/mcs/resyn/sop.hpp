/// \file sop.hpp
/// \brief Sum-of-products extraction (irredundant, Minato-Morreale) and
/// algebraic factoring.
///
/// These form the area-oriented synthesis strategies of the MCH operator
/// (paper, Alg. 2 lines 9-13): MFFCs and cuts of non-critical nodes are
/// collapsed to truth tables, covered with an ISOP, factored, and rebuilt.

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/tt/truth_table.hpp"

namespace mcs {

/// A product term: literal i participates when bit i of `mask` is set;
/// it is positive when bit i of `polarity` is set.
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t polarity = 0;

  int num_literals() const noexcept { return std::popcount(mask); }
  bool has_literal(int var) const noexcept { return (mask >> var) & 1u; }
  bool literal_positive(int var) const noexcept {
    return (polarity >> var) & 1u;
  }

  friend bool operator==(const Cube&, const Cube&) = default;
};

/// Computes an irredundant sum of products covering exactly \p f
/// (Minato-Morreale ISOP over (f, f)).  Functions of <= 6 variables run
/// the recursion on single 64-bit words (Tt6); larger ones on TruthTables.
/// Both paths return the same cubes in the same order.
std::vector<Cube> compute_isop(const TruthTable& f);

/// Evaluates a cube list back to a truth table (test oracle and cover
/// bookkeeping).
TruthTable sop_to_truth_table(const std::vector<Cube>& cubes, int num_vars);

/// A factored form: a tree of literals, ANDs and ORs.
struct FactoredForm {
  enum class Kind { kLiteral, kAnd, kOr, kConst0, kConst1 };
  struct FNode {
    Kind kind;
    int var = -1;          ///< literal variable (kLiteral)
    bool positive = true;  ///< literal polarity (kLiteral)
    int left = -1;         ///< child index (kAnd/kOr)
    int right = -1;        ///< child index (kAnd/kOr)
  };
  std::vector<FNode> nodes;
  int root = -1;

  /// Number of literal leaves (the classic factored-form cost).
  int num_literals() const noexcept;
};

/// Algebraic factoring of a cube cover (literal-division quick factor).
FactoredForm factor_sop(const std::vector<Cube>& cubes, int num_vars);

/// Evaluates a factored form (test oracle).
TruthTable factored_to_truth_table(const FactoredForm& ff, int num_vars);

}  // namespace mcs
