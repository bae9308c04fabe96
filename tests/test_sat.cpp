/// Tests for the CDCL solver (vs. brute force) and the equivalence checker
/// (vs. the side-by-side reference miter in test_util.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "mcs/common/rng.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sat/cnf.hpp"
#include "mcs/sat/solver.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

using sat::Lit;
using sat::mk_lit;
using sat::Result;
using sat::Solver;

/// Brute-force SAT oracle for small variable counts.
bool brute_force_sat(int num_vars, const std::vector<std::vector<Lit>>& cls) {
  for (std::uint32_t m = 0; m < (1u << num_vars); ++m) {
    bool all = true;
    for (const auto& c : cls) {
      bool any = false;
      for (const Lit l : c) {
        const bool v = (m >> sat::var_of(l)) & 1;
        if (v != sat::sign_of(l)) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(SatSolver, TrivialCases) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_EQ(s.solve(), Result::kSat);
  s.add_clause(mk_lit(v));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_value(v));
  s.add_clause(mk_lit(v, true));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  std::vector<sat::Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_clause(mk_lit(v[i], true), mk_lit(v[i + 1]));  // v[i] -> v[i+1]
  }
  s.add_clause(mk_lit(v[0]));
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(SatSolver, PigeonHole) {
  // PHP(4,3): 4 pigeons, 3 holes -- classic small UNSAT instance.
  const int pigeons = 4, holes = 3;
  Solver s;
  std::vector<std::vector<sat::Var>> x(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(x[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause(mk_lit(x[p1][h], true), mk_lit(x[p2][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, AssumptionsBehaveLikeUnits) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause(mk_lit(a, true), mk_lit(b));  // a -> b
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b, true)}), Result::kUnsat);
  EXPECT_EQ(s.solve({mk_lit(a)}), Result::kSat);
  EXPECT_TRUE(s.model_value(b));
  // The solver must remain reusable after assumption-UNSAT.
  EXPECT_EQ(s.solve({mk_lit(b, true)}), Result::kSat);
  EXPECT_FALSE(s.model_value(a));
}

class SatRandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomCnf, AgreesWithBruteForce) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(7));
    const int num_clauses =
        static_cast<int>(rng.next_below(5 * num_vars)) + num_vars;
    std::vector<std::vector<Lit>> cls;
    Solver s;
    for (int i = 0; i < num_vars; ++i) s.new_var();
    bool root_conflict = false;
    for (int i = 0; i < num_clauses; ++i) {
      const int len = 1 + static_cast<int>(rng.next_below(3));
      std::vector<Lit> c;
      for (int j = 0; j < len; ++j) {
        c.push_back(mk_lit(static_cast<sat::Var>(rng.next_below(num_vars)),
                           rng.next_bool()));
      }
      cls.push_back(c);
      if (!s.add_clause(c)) root_conflict = true;
    }
    const bool expect_sat = brute_force_sat(num_vars, cls);
    if (root_conflict) {
      EXPECT_FALSE(expect_sat);
      continue;
    }
    const auto r = s.solve();
    EXPECT_EQ(r == Result::kSat, expect_sat) << "seed iteration " << iter;
    if (r == Result::kSat) {
      // The model must satisfy every clause.
      for (const auto& c : cls) {
        bool any = false;
        for (const Lit l : c) {
          if (s.model_value(sat::var_of(l)) != sat::sign_of(l)) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCnf, ::testing::Values(1, 2, 3, 4, 5));

TEST(Cnf, GateEncodingsMatchSemantics) {
  // For each gate type, assert SAT count of consistent assignments.
  for (const GateType t : {GateType::kAnd2, GateType::kXor2, GateType::kMaj3,
                           GateType::kXor3}) {
    const int arity = gate_arity(t);
    Solver s;
    const auto y = s.new_var();
    std::vector<sat::Var> in;
    for (int i = 0; i < arity; ++i) in.push_back(s.new_var());
    sat::encode_gate(s, t, mk_lit(y), mk_lit(in[0]), mk_lit(in[1]),
                     arity == 3 ? mk_lit(in[2]) : 0);
    // Every input assignment must force y to the gate's value.
    for (std::uint32_t m = 0; m < (1u << arity); ++m) {
      bool expected = false;
      const bool a = m & 1, b = m & 2, c = m & 4;
      switch (t) {
        case GateType::kAnd2: expected = a && b; break;
        case GateType::kXor2: expected = a != b; break;
        case GateType::kMaj3: expected = (a + b + c) >= 2; break;
        case GateType::kXor3: expected = a ^ b ^ c; break;
        default: break;
      }
      std::vector<Lit> assum;
      for (int i = 0; i < arity; ++i) {
        assum.push_back(mk_lit(in[i], !((m >> i) & 1)));
      }
      assum.push_back(mk_lit(y, !expected));  // assume y == expected
      EXPECT_EQ(s.solve(assum), Result::kSat);
      assum.back() = mk_lit(y, expected);     // assume y != expected
      EXPECT_EQ(s.solve(assum), Result::kUnsat);
    }
  }
}

TEST(Cec, IdenticalNetworksAreEquivalent) {
  const auto net = testing::random_network({.num_gates = 60, .seed = 9});
  EXPECT_EQ(check_equivalence(net, net), CecResult::kEquivalent);
}

TEST(Cec, RestructuredNetworksAreEquivalent) {
  // (a & b) & c vs a & (b & c) with an XOR on top.
  Network n1, n2;
  {
    const auto a = n1.create_pi(), b = n1.create_pi(), c = n1.create_pi();
    n1.create_po(n1.create_xor(n1.create_and(n1.create_and(a, b), c), a));
  }
  {
    const auto a = n2.create_pi(), b = n2.create_pi(), c = n2.create_pi();
    n2.create_po(n2.create_xor(n2.create_and(a, n2.create_and(b, c)), a));
  }
  EXPECT_EQ(check_equivalence(n1, n2), CecResult::kEquivalent);
}

TEST(Cec, MajVsAndOrExpansion) {
  Network n1, n2;
  {
    const auto a = n1.create_pi(), b = n1.create_pi(), c = n1.create_pi();
    n1.create_po(n1.create_maj(a, b, c));
  }
  {
    const auto a = n2.create_pi(), b = n2.create_pi(), c = n2.create_pi();
    n2.create_po(n2.create_or(n2.create_and(a, b),
                              n2.create_and(c, n2.create_or(a, b))));
  }
  EXPECT_EQ(check_equivalence(n1, n2), CecResult::kEquivalent);
}

TEST(Cec, DetectsInequivalence) {
  Network n1, n2;
  {
    const auto a = n1.create_pi(), b = n1.create_pi();
    n1.create_po(n1.create_and(a, b));
  }
  {
    const auto a = n2.create_pi(), b = n2.create_pi();
    n2.create_po(n2.create_or(a, b));
  }
  EXPECT_EQ(check_equivalence(n1, n2), CecResult::kNotEquivalent);
}

TEST(Cec, DetectsSubtleInequivalence) {
  // Difference in exactly one minterm of a 6-input function; random
  // simulation with shared seeds must not mask it.
  Network n1, n2;
  {
    std::vector<Signal> pis;
    for (int i = 0; i < 6; ++i) pis.push_back(n1.create_pi());
    Signal all = n1.constant(true);
    for (const auto s : pis) all = n1.create_and(all, s);
    n1.create_po(all);
  }
  {
    std::vector<Signal> pis;
    for (int i = 0; i < 6; ++i) pis.push_back(n2.create_pi());
    n2.create_po(n2.constant(false));
  }
  EXPECT_EQ(check_equivalence(n1, n2), CecResult::kNotEquivalent);
}

TEST(Cec, SignalEquivalenceInsideNetwork) {
  Network net;
  const auto a = net.create_pi(), b = net.create_pi(), c = net.create_pi();
  const auto r = net.create_and(net.create_and(a, b), c);
  const auto m = net.create_and(a, net.create_and(b, c));
  const auto other = net.create_or(a, c);
  net.create_po(r);
  EXPECT_EQ(check_signals_equivalent(net, r, m), CecResult::kEquivalent);
  EXPECT_EQ(check_signals_equivalent(net, r, !m), CecResult::kNotEquivalent);
  EXPECT_EQ(check_signals_equivalent(net, r, other),
            CecResult::kNotEquivalent);
}

TEST(Cec, RandomNetworkAgainstItsSimulation) {
  // Rebuild each PO function of a small random network as a fresh SOP
  // network; CEC must prove equivalence.
  const auto net = testing::random_network(
      {.num_pis = 5, .num_gates = 25, .num_pos = 3, .seed = 21});
  const auto pos = simulate_pos(net);
  (void)pos;
  EXPECT_EQ(check_equivalence(net, cleanup(net)), CecResult::kEquivalent);
}

/// Copy of \p net with one fanin of one PO-reachable gate complemented
/// (gate and fanin drawn from \p seed).  Usually, not always, a different
/// function -- the oracle decides.
Network flip_one_fanin(const Network& net, std::uint64_t seed) {
  std::vector<NodeId> gates;
  for (const NodeId n : topo_order(net)) {
    if (net.is_gate(n)) gates.push_back(n);
  }
  Rng rng(seed);
  const NodeId target = gates[rng.next_below(gates.size())];
  const int flipped = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(net.node(target).num_fanins)));
  Network dst;
  std::vector<Signal> map(net.size());
  map[0] = dst.constant(false);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = dst.create_pi();
  }
  for (NodeId n = 1; n < net.size(); ++n) {
    if (!net.is_gate(n)) continue;
    const Node& nd = net.node(n);
    std::array<Signal, 3> in{};
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = map[nd.fanin[i].node()] ^ nd.fanin[i].complemented() ^
              (n == target && i == flipped);
    }
    map[n] = dst.create_gate(nd.type, in);
  }
  for (const Signal s : net.pos()) {
    dst.create_po(map[s.node()] ^ s.complemented());
  }
  return dst;
}

TEST(Cec, EngineMatchesReferenceOracle) {
  // Differential check of the sweeping CEC against the side-by-side
  // reference miter: equivalent rewrites (cleanup, balance, fraig, LUT
  // round trip) and single-fanin mutations of seeded random networks, at 1
  // and 4 threads, under an unlimited and a finite conflict budget.  The
  // oracle itself is checked against exhaustive simulation.
  int equivalent = 0;
  int inequivalent = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Network net = testing::random_network(
        {.num_pis = 7, .num_gates = 70, .num_pos = 4, .seed = seed});
    const std::vector<Network> others{
        cleanup(net),
        balance(net),
        fraig(net),
        lut_network_to_network(lut_map(net)),
        flip_one_fanin(net, seed),
        flip_one_fanin(net, seed + 1000),
    };
    const std::vector<TruthTable> truth = simulate_pos(net);
    for (std::size_t k = 0; k < others.size(); ++k) {
      const Network& other = others[k];
      const CecResult expected = testing::reference_cec(net, other);
      ASSERT_NE(expected, CecResult::kUnknown);
      EXPECT_EQ(expected == CecResult::kEquivalent,
                simulate_pos(other) == truth)
          << "oracle vs exhaustive simulation, seed " << seed << " #" << k;
      (expected == CecResult::kEquivalent ? equivalent : inequivalent)++;
      for (const std::int64_t budget : {std::int64_t{-1}, std::int64_t{2000}}) {
        ASSERT_EQ(testing::reference_cec(net, other, budget), expected);
        for (const int threads : {1, 4}) {
          CecOptions opts;
          opts.num_threads = threads;
          opts.conflict_limit = budget;
          EXPECT_EQ(check_equivalence(net, other, opts), expected)
              << "seed " << seed << " #" << k << " budget " << budget
              << " threads " << threads;
        }
      }
    }
  }
  EXPECT_GE(equivalent + inequivalent, 50);
  EXPECT_GE(equivalent, 48);   // the four rewrites never change a function
  EXPECT_GE(inequivalent, 12);
}

}  // namespace
}  // namespace mcs
