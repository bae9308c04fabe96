/// Tests for the MCH operator (Algorithms 1-2) and the DCH baseline:
/// functional correctness of every choice class, acyclicity of the
/// augmented dependency graph, path classification, and heterogeneity of
/// the candidates.

#include <gtest/gtest.h>

#include "mcs/choice/dch.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/cut/enumeration.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/sat/cec.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

/// The augmented dependency order must exist and respect both edge kinds.
void expect_choice_order_valid(const Network& net) {
  const auto order = choice_topo_order(net);
  std::vector<int> pos(net.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = (int)i;
  for (const NodeId n : order) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      ASSERT_LT(pos[nd.fanin[i].node()], pos[n]);
    }
    if (net.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net.node(m).next_choice) {
        ASSERT_GE(pos[m], 0);
        ASSERT_LT(pos[m], pos[n]) << "member must precede representative";
      }
    }
  }
}

TEST(CollectCritical, MarksLongestPaths) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal g1 = net.create_and(a, b);   // level 1
  const Signal g2 = net.create_and(g1, c);  // level 2
  const Signal g3 = net.create_and(g2, a);  // level 3 -- critical path
  const Signal h = net.create_and(b, c);    // level 1, off-path
  net.create_po(g3);
  net.create_po(h);
  const auto critical = collect_critical_nodes(net, 0.9);
  EXPECT_TRUE(critical[g3.node()]);
  EXPECT_TRUE(critical[g2.node()]);
  EXPECT_TRUE(critical[g1.node()]);
  EXPECT_FALSE(critical[h.node()]);
  // Lowering the ratio below h's relative depth makes h critical too.
  const auto all = collect_critical_nodes(net, 0.2);
  EXPECT_TRUE(all[h.node()]);
}

class MchOnRandomNetworks
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MchOnRandomNetworks, ChoicesAreValidAndOrderable) {
  const auto [seed, basis_id] = GetParam();
  const GateBasis bases[] = {GateBasis::aig(), GateBasis::xag(),
                             GateBasis::mig(), GateBasis::xmg()};
  const auto input = testing::random_network(
      {.num_pis = 6,
       .num_gates = 60,
       .num_pos = 4,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(seed)});

  MchParams params;
  params.candidate_basis = bases[basis_id];
  MchStats stats;
  const Network mch = build_mch(input, params, &stats);

  // Interface preserved, function preserved.
  ASSERT_EQ(mch.num_pis(), input.num_pis());
  ASSERT_EQ(mch.num_pos(), input.num_pos());
  EXPECT_EQ(check_equivalence(input, mch), CecResult::kEquivalent);

  // A meaningful number of choices is expected on random logic.
  EXPECT_GT(stats.num_choices_added, 0u);
  EXPECT_EQ(stats.num_choices_added, mch.num_choices());

  EXPECT_TRUE(testing::choices_proven(mch));
  expect_choice_order_valid(mch);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndBases, MchOnRandomNetworks,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Mch, CandidatesAreHeterogeneous) {
  // An AIG input with XMG candidates must contain MAJ/XOR choice nodes.
  const auto input = testing::random_network({.num_pis = 6,
                                              .num_gates = 80,
                                              .num_pos = 4,
                                              .basis = GateBasis::aig(),
                                              .seed = 5});
  ASSERT_TRUE(input.is_aig());
  MchParams params;
  params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(input, params);
  const auto stats = network_stats(mch);
  EXPECT_GT(stats.num_xor2 + stats.num_xor3 + stats.num_maj3, 0u)
      << "XMG candidates should introduce non-AND structure";
}

TEST(Mch, RespectsPerNodeCap) {
  const auto input = testing::random_network({.num_gates = 60, .seed = 11});
  MchParams params;
  params.max_choices_per_node = 2;
  const Network mch = build_mch(input, params);
  for (NodeId n = 0; n < mch.size(); ++n) {
    if (!mch.has_choice(n)) continue;
    int k = 0;
    for (NodeId m = mch.node(n).next_choice; m != kNullNode;
         m = mch.node(m).next_choice) {
      ++k;
    }
    EXPECT_LE(k, 2);
  }
}

TEST(Mch, RatioControlsCriticalCoverage) {
  const auto input = testing::random_network(
      {.num_pis = 8, .num_gates = 120, .num_pos = 6, .seed = 13});
  const Network flat = cleanup(input);
  const auto strict = collect_critical_nodes(flat, 1.0);
  const auto loose = collect_critical_nodes(flat, 0.3);
  const auto count = [](const std::vector<bool>& v) {
    return std::count(v.begin(), v.end(), true);
  };
  EXPECT_LE(count(strict), count(loose));
  EXPECT_GT(count(strict), 0);
}

TEST(Dch, MergesSnapshotsIntoValidChoices) {
  // Snapshot 0: original; snapshot 1: structurally different equivalent.
  Network n1, n2;
  {
    const auto a = n1.create_pi(), b = n1.create_pi(), c = n1.create_pi();
    n1.create_po(n1.create_and(n1.create_and(a, b), c));
    n1.create_po(n1.create_xor(n1.create_and(a, b), c));
  }
  {
    const auto a = n2.create_pi(), b = n2.create_pi(), c = n2.create_pi();
    n2.create_po(n2.create_and(a, n2.create_and(b, c)));
    // XOR via its AND expansion: (ab)^c.
    const auto ab = n2.create_and(a, b);
    n2.create_po(n2.create_or(n2.create_and(ab, !c),
                              n2.create_and(!ab, c)));
  }
  DchStats stats;
  const Network dch = build_dch({n1, n2}, {}, &stats);
  EXPECT_EQ(check_equivalence(n1, dch), CecResult::kEquivalent);
  EXPECT_GT(stats.num_proven, 0u);
  EXPECT_GT(dch.num_choices(), 0u);
  EXPECT_TRUE(testing::choices_proven(dch));
  expect_choice_order_valid(dch);
}

TEST(Dch, RandomNetworkWithRestructuredSnapshot) {
  const auto base = testing::random_network({.num_pis = 6,
                                             .num_gates = 50,
                                             .num_pos = 4,
                                             .basis = GateBasis::xmg(),
                                             .seed = 17});
  // A second snapshot: the AND-expanded version (different structure).
  const Network expanded = expand_to_aig(base);
  ASSERT_EQ(check_equivalence(base, expanded), CecResult::kEquivalent);

  DchStats stats;
  const Network dch = build_dch({base, expanded}, {}, &stats);
  EXPECT_EQ(check_equivalence(base, dch), CecResult::kEquivalent);
  EXPECT_TRUE(testing::choices_proven(dch));
  expect_choice_order_valid(dch);
}

/// The nodes that depend directly on each node under choice_reaches's
/// relation: a gate on its fanins, a representative on its members.
std::vector<std::vector<NodeId>> dependents(const Network& net) {
  std::vector<std::vector<NodeId>> users(net.size());
  for (NodeId x = 0; x < net.size(); ++x) {
    const Node& nd = net.node(x);
    for (int i = 0; i < nd.num_fanins; ++i) {
      users[nd.fanin[i].node()].push_back(x);
    }
    if (!net.is_repr(x)) continue;
    for (NodeId m = nd.next_choice; m != kNullNode;
         m = net.node(m).next_choice) {
      users[m].push_back(x);
    }
  }
  return users;
}

/// Marks every node from which \p target is reachable, by a breadth-first
/// sweep over the reversed edges: an oracle that shares no code with
/// choice_reaches.
std::vector<char> reaching(const std::vector<std::vector<NodeId>>& users,
                           NodeId target) {
  std::vector<char> reached(users.size(), 0);
  std::vector<NodeId> queue{target};
  reached[target] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId u : users[queue[head]]) {
      if (!reached[u]) {
        reached[u] = 1;
        queue.push_back(u);
      }
    }
  }
  return reached;
}

/// For every representative gate n and every non-trivial 4-cut of n, the
/// walk bounded by the cut leaves must agree with the unbounded walk and
/// with the reaching() oracle, on n itself, the leaves, up to four nodes of n's
/// fanout cone and four other nodes.
::testing::AssertionResult bounded_guard_agrees(const Network& net,
                                                std::uint64_t seed) {
  // Ascending ids put fanins first, so this enumerates every node's cuts
  // over its fanin cone, choice members and their cones included.
  std::vector<NodeId> order(net.size());
  for (NodeId x = 0; x < net.size(); ++x) order[x] = x;
  CutEnumerator cuts(net, {.cut_size = 4, .cut_limit = 8});
  cuts.run(order);
  const auto users = dependents(net);
  Rng rng(seed);
  std::size_t checks = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!net.is_gate(n) || !net.is_repr(n)) continue;
    const std::vector<char> reaches_n = reaching(users, n);
    std::vector<NodeId> cone;
    for (NodeId x = 0; x < net.size(); ++x) {
      if (reaches_n[x] && x != n) cone.push_back(x);
    }
    for (const Cut& cut : cuts.cuts(n)) {
      if (cut.is_trivial()) continue;
      std::vector<Signal> leaves;
      for (int i = 0; i < cut.size; ++i) {
        leaves.emplace_back(cut.leaves[i], false);
      }
      std::vector<NodeId> sample{n};
      for (const Signal l : leaves) sample.push_back(l.node());
      for (int i = 0; i < 4 && !cone.empty(); ++i) {
        sample.push_back(cone[rng.next_below(cone.size())]);
      }
      for (int i = 0; i < 4; ++i) {
        sample.push_back(static_cast<NodeId>(rng.next_below(net.size())));
      }
      for (const NodeId c : sample) {
        const bool bounded = choice_reaches(net, c, n, leaves);
        const bool full = choice_reaches(net, c, n);
        ++checks;
        if (bounded != full || full != static_cast<bool>(reaches_n[c])) {
          return ::testing::AssertionFailure()
                 << "from " << c << " to " << n << ": bounded " << bounded
                 << ", unbounded " << full << ", oracle " << int(reaches_n[c]);
        }
      }
    }
  }
  if (checks == 0) return ::testing::AssertionFailure() << "nothing checked";
  return ::testing::AssertionSuccess() << checks << " walks agree";
}

TEST(ChoiceReaches, BoundedWalkMatchesUnboundedOnMchOutputs) {
  for (const GateBasis basis : {GateBasis::aig(), GateBasis::xmg()}) {
    for (const std::uint64_t seed : {31, 32, 33}) {
      const Network input = testing::random_network({.num_pis = 7,
                                                     .num_gates = 90,
                                                     .num_pos = 5,
                                                     .basis = basis,
                                                     .seed = seed});
      MchParams params;
      params.candidate_basis = basis;
      const Network mch = build_mch(input, params);
      ASSERT_GT(mch.num_choices(), 0u);
      EXPECT_TRUE(bounded_guard_agrees(mch, seed)) << basis.name() << seed;
      EXPECT_TRUE(testing::choices_proven(mch)) << basis.name() << seed;
    }
  }
}

TEST(ChoiceReaches, BoundedWalkMatchesUnboundedOverInheritedClasses) {
  // DCH classes first, then MCH candidates stacked on them.
  const Network base = testing::random_network({.num_pis = 6,
                                                .num_gates = 60,
                                                .num_pos = 4,
                                                .basis = GateBasis::xmg(),
                                                .seed = 37});
  const Network dch = build_dch({base, expand_to_aig(base)}, {});
  ASSERT_GT(dch.num_choices(), 0u);
  const Network mch = build_mch(dch, {});
  ASSERT_GT(mch.num_choices(), dch.num_choices());
  EXPECT_TRUE(bounded_guard_agrees(mch, 37));
  EXPECT_TRUE(testing::choices_proven(mch));
}

TEST(ChoiceReaches, BoundedWalkMatchesUnboundedOnSuiteCircuits) {
  const Network inputs[] = {expand_to_aig(circuits::multiplier(5)),
                            expand_to_aig(circuits::ctrl_like())};
  for (const Network& input : inputs) {
    const Network mch = build_mch(input, {});
    ASSERT_GT(mch.num_choices(), 0u);
    EXPECT_TRUE(bounded_guard_agrees(mch, 41));
    EXPECT_TRUE(testing::choices_proven(mch));
  }
}

TEST(ChoiceReaches, WalkStopsAtKnownNodes) {
  // n = ((a & b) & c) & d over the cut {a & b, c, d}; cand = (a & b) ^ c
  // is built over two of those leaves.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal n = net.create_and(net.create_and(ab, c), d);
  const Signal cand = net.create_xor(ab, c);
  net.create_po(n);
  const std::vector<Signal> leaves{ab, c, d};
  // The walk from the candidate stops at a & b: its fanins stay unvisited.
  EXPECT_FALSE(choice_reaches(net, cand.node(), n.node(), leaves));
  EXPECT_FALSE(net.marked(a.node()));
  EXPECT_FALSE(net.marked(b.node()));
  // A candidate that is one of the leaves returns without walking.
  EXPECT_FALSE(choice_reaches(net, ab.node(), n.node(), leaves));
  EXPECT_FALSE(net.marked(a.node()));
  EXPECT_FALSE(net.marked(b.node()));
  // The unbounded walk goes down to the PIs.
  EXPECT_FALSE(choice_reaches(net, cand.node(), n.node()));
  EXPECT_TRUE(net.marked(a.node()));
  EXPECT_TRUE(choice_reaches(net, n.node(), n.node(), leaves));
}

#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
TEST(Mch, CountersAddTheReturnedStats) {
  const auto input = testing::random_network(
      {.num_pis = 8, .num_gates = 120, .num_pos = 6, .seed = 43});
  const char* names[] = {"mch.critical_nodes", "mch.candidates_tried",
                         "mch.choices_added",  "mch.rejected_cycle",
                         "mch.rejected_class", "mch.rejected_cap"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(obs::counter(name).value());
  MchParams params;
  params.max_choices_per_node = 2;  // so the cap counter moves too
  MchStats stats;
  build_mch(input, params, &stats);
  const std::size_t expected[] = {
      stats.num_critical_nodes, stats.num_candidates_tried,
      stats.num_choices_added,  stats.num_rejected_cycle,
      stats.num_rejected_class, stats.num_rejected_cap};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i])
        << names[i];
  }
  EXPECT_GT(stats.num_choices_added, 0u);
  EXPECT_GT(stats.num_rejected_cap, 0u);
}
#endif

TEST(Convert, BasisRoundTripsPreserveFunction) {
  const auto net = testing::random_network({.num_pis = 6,
                                            .num_gates = 60,
                                            .num_pos = 4,
                                            .basis = GateBasis::xmg(),
                                            .seed = 23});
  for (const GateBasis basis : {GateBasis::aig(), GateBasis::xag(),
                                GateBasis::mig(), GateBasis::xmg()}) {
    const Network conv = convert_basis(net, basis);
    EXPECT_EQ(check_equivalence(net, conv), CecResult::kEquivalent)
        << basis.name();
    const auto stats = network_stats(conv);
    if (!basis.use_xor) {
      EXPECT_EQ(stats.num_xor2 + stats.num_xor3, 0u);
    }
    if (!basis.use_maj) {
      EXPECT_EQ(stats.num_maj3, 0u);
    }
  }
}

TEST(Convert, DetectXorsFindsThePattern) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  // XOR(a, b) as OR(AND(a,!b), AND(!a,b)) in pure AIG form.
  const Signal x = net.create_or(net.create_and(a, !b),
                                 net.create_and(!a, b));
  net.create_po(x);
  ASSERT_TRUE(net.is_aig());
  const Network xag = detect_xors(net);
  EXPECT_EQ(check_equivalence(net, xag), CecResult::kEquivalent);
  EXPECT_EQ(network_stats(xag).num_xor2, 1u);
  EXPECT_EQ(xag.num_gates(), 1u);
}

TEST(Convert, DetectXorsOnAdderLikeLogic) {
  // Chain of XORs expanded to AIG, then recovered.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 5; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 5; ++i) {
    acc = net.create_or(net.create_and(acc, !pis[i]),
                        net.create_and(!acc, pis[i]));
  }
  net.create_po(acc);
  const Network xag = detect_xors(net);
  EXPECT_EQ(check_equivalence(net, xag), CecResult::kEquivalent);
  EXPECT_EQ(network_stats(xag).num_xor2, 4u);
}

}  // namespace
}  // namespace mcs
