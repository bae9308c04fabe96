/// Shared helpers for the test suite: random network generation and
/// brute-force oracles.

#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "mcs/common/rng.hpp"
#include "mcs/network/network.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/resyn/basis.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sat/cnf.hpp"
#include "mcs/sat/solver.hpp"

namespace mcs::testing {

struct RandomNetworkSpec {
  int num_pis = 6;
  int num_gates = 40;
  int num_pos = 4;
  GateBasis basis = GateBasis::xmg();
  std::uint64_t seed = 1;
};

/// Builds a random strashed network in the given basis.  Gates draw fanins
/// from all previously created signals (with random complementation), so the
/// result is a well-formed DAG exercising every gate type of the basis.
inline Network random_network(const RandomNetworkSpec& spec) {
  Network net;
  Rng rng(spec.seed);
  std::vector<Signal> pool;
  for (int i = 0; i < spec.num_pis; ++i) pool.push_back(net.create_pi());

  auto pick = [&]() {
    Signal s = pool[rng.next_below(pool.size())];
    return s ^ rng.next_bool();
  };

  for (int i = 0; i < spec.num_gates; ++i) {
    std::vector<GateType> types{GateType::kAnd2};
    if (spec.basis.use_xor) types.push_back(GateType::kXor2);
    if (spec.basis.use_maj) types.push_back(GateType::kMaj3);
    if (spec.basis.use_xor && spec.basis.use_maj) {
      types.push_back(GateType::kXor3);
    }
    const GateType t = types[rng.next_below(types.size())];
    const Signal s = net.create_gate(t, {pick(), pick(), pick()});
    if (net.is_gate(s.node())) pool.push_back(s);
  }

  // POs: prefer the most recently created signals so most logic is live.
  for (int i = 0; i < spec.num_pos; ++i) {
    const std::size_t idx =
        pool.size() - 1 - rng.next_below(std::min<std::size_t>(8, pool.size()));
    net.create_po(pool[idx] ^ rng.next_bool());
  }
  return net;
}

/// Proves every choice member of \p net equal to its representative, in
/// the member's phase, with check_signals_equivalent.  Whole-network CEC
/// never reaches members (they hang off no PO cone), so this is the formal
/// check of a choice network's classes.
inline ::testing::AssertionResult choices_proven(const Network& net) {
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!net.has_choice(n)) continue;
    for (NodeId m = net.node(n).next_choice; m != kNullNode;
         m = net.node(m).next_choice) {
      const Signal member(m, net.node(m).choice_phase);
      if (check_signals_equivalent(net, Signal(n, false), member) !=
          CecResult::kEquivalent) {
        return ::testing::AssertionFailure()
               << "member " << m << " of class " << n << " is not proven";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Encodes only the transitive fanin cones of \p roots (fanin edges; choice
/// lists are not followed).  Nodes already carrying a variable in
/// \p mapping keep it (PI sharing for miters); cone nodes without one get
/// fresh variables; the constant node is encoded iff some cone reaches it.
inline void encode_cone(const Network& net, const std::vector<Signal>& roots,
                        sat::Solver& solver, sat::CnfMapping& mapping) {
  std::vector<NodeId> root_nodes;
  root_nodes.reserve(roots.size());
  for (const Signal s : roots) root_nodes.push_back(s.node());
  std::vector<char> seen;
  const std::vector<NodeId> cone =
      collect_cone_nodes(net, root_nodes, /*follow_choices=*/false, seen);
  for (const NodeId n : cone) {
    if (mapping.has_var(n)) continue;
    const sat::Var v = solver.new_var();
    mapping.set_var(n, v);
    if (net.is_const0(n)) solver.add_clause(sat::mk_lit(v, true));
  }
  for (const NodeId n : cone) {
    if (!net.is_gate(n)) continue;
    const Node& nd = net.node(n);
    sat::encode_gate(solver, nd.type, sat::mk_lit(mapping.var_of_node(n)),
                     mapping.lit(nd.fanin[0]), mapping.lit(nd.fanin[1]),
                     nd.num_fanins == 3 ? mapping.lit(nd.fanin[2])
                                        : sat::Lit{0});
  }
}

/// Reference CEC oracle, independent of the sweeping engine that
/// check_equivalence runs on: the two networks are encoded side by side
/// (never strashed together) over shared PI variables, and one monolithic
/// miter -- an OR over per-PO difference literals -- is solved under
/// \p conflict_limit (< 0 = unlimited).  No simulation, no sweeping.
inline CecResult reference_cec(const Network& a, const Network& b,
                               std::int64_t conflict_limit = -1) {
  sat::Solver solver;
  sat::CnfMapping ma(a.size());
  sat::CnfMapping mb(b.size());
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    const sat::Var v = solver.new_var();
    ma.set_var(a.pi_at(i), v);
    mb.set_var(b.pi_at(i), v);
  }
  encode_cone(a, a.pos(), solver, ma);
  encode_cone(b, b.pos(), solver, mb);
  std::vector<sat::Lit> diffs;
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const sat::Lit x = ma.lit(a.po_at(i));
    const sat::Lit y = mb.lit(b.po_at(i));
    // Fresh t with t <-> (x != y); the OR over all t asks for any
    // distinguishing input.
    const sat::Lit t = sat::mk_lit(solver.new_var());
    solver.add_clause(sat::negate(t), x, y);
    solver.add_clause(sat::negate(t), sat::negate(x), sat::negate(y));
    solver.add_clause(t, sat::negate(x), y);
    solver.add_clause(t, x, sat::negate(y));
    diffs.push_back(t);
  }
  solver.add_clause(std::move(diffs));
  switch (solver.solve({}, conflict_limit)) {
    case sat::Result::kUnsat:
      return CecResult::kEquivalent;
    case sat::Result::kSat:
      return CecResult::kNotEquivalent;
    default:
      return CecResult::kUnknown;
  }
}

}  // namespace mcs::testing
