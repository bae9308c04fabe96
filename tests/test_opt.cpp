/// Tests for the technology-independent optimization passes (the
/// compress2rs-like baseline infrastructure) and the graph mapper.

#include <gtest/gtest.h>

#include "mcs/circuits/circuits.hpp"
#include "mcs/map/graph_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sat/cec.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

class OptPassesPreserveFunction : public ::testing::TestWithParam<int> {};

TEST_P(OptPassesPreserveFunction, AllPasses) {
  const auto net = testing::random_network(
      {.num_pis = 7,
       .num_gates = 100,
       .num_pos = 5,
       .basis = GateBasis::xmg(),
       .seed = static_cast<std::uint64_t>(GetParam())});

  const Network b = balance(net);
  EXPECT_EQ(check_equivalence(net, b), CecResult::kEquivalent) << "balance";

  const Network rf = refactor(net);
  EXPECT_EQ(check_equivalence(net, rf), CecResult::kEquivalent) << "refactor";

  const Network sw = sweep(net);
  EXPECT_EQ(check_equivalence(net, sw), CecResult::kEquivalent) << "sweep";

  const Network rw = rewrite(net);
  EXPECT_EQ(check_equivalence(net, rw), CecResult::kEquivalent) << "rewrite";

  const Network all = compress2rs_like(net, GateBasis::xmg(), 2);
  EXPECT_EQ(check_equivalence(net, all), CecResult::kEquivalent) << "script";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptPassesPreserveFunction,
                         ::testing::Values(1, 2, 3, 4));

TEST(Balance, ReducesChainDepth) {
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 16; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 16; ++i) acc = net.create_and(acc, pis[i]);
  net.create_po(acc);
  ASSERT_EQ(net.depth(), 15u);
  const Network b = balance(net);
  EXPECT_EQ(b.depth(), 4u);
  EXPECT_EQ(check_equivalence(net, b), CecResult::kEquivalent);
}

TEST(Balance, BalancesXorChains) {
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 8; ++i) acc = net.create_xor(acc, pis[i]);
  net.create_po(acc);
  const Network b = balance(net);
  EXPECT_EQ(b.depth(), 3u);
}

TEST(Refactor, FactorsRedundantSop) {
  // (abc d) | (ab ce) | (a bcf) with no sharing: refactoring recovers
  // abc & (d|e|f).
  Network net;
  std::vector<Signal> in;
  for (int i = 0; i < 6; ++i) in.push_back(net.create_pi());
  auto and4 = [&](Signal w, Signal x, Signal y, Signal z) {
    return net.create_and(net.create_and(w, x), net.create_and(y, z));
  };
  const Signal t1 = and4(in[0], in[1], in[2], in[3]);
  const Signal t2 = net.create_and(net.create_and(in[0], in[1]),
                                   net.create_and(in[2], in[4]));
  const Signal t3 = net.create_and(in[0], net.create_and(in[1],
                                   net.create_and(in[2], in[5])));
  net.create_po(net.create_or(net.create_or(t1, t2), t3));
  const std::size_t before = net.num_gates();
  const Network rf = refactor(net);
  EXPECT_LT(rf.num_gates(), before);
  EXPECT_EQ(check_equivalence(net, rf), CecResult::kEquivalent);
}

TEST(Sweep, MergesDuplicatedStructure) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // Same function built twice with different structure.
  const Signal f1 = net.create_and(net.create_and(a, b), c);
  const Signal f2 = net.create_and(a, net.create_and(b, c));
  net.create_po(net.create_xor(f1, net.create_pi("d")));
  net.create_po(net.create_or(f2, net.create_pi("e")));
  const Network sw = sweep(net);
  EXPECT_LT(sw.num_gates(), net.num_gates());
  EXPECT_EQ(check_equivalence(net, sw), CecResult::kEquivalent);
}

TEST(Resub, LeavesUnsharedAndXorLogicUnchanged) {
  // f = (a&c)&b and g = ((a&b)&a)^d compute a&b without sharing it.  Only
  // AND/XOR nodes: every node's first divisor pair is its own fanins, so
  // its first candidate is its own gate and resub replaces nothing.  Once
  // divisor_window draws divisors from outside the MFFC (ROADMAP F), resub
  // should share a&b here, and this test should expect fewer gates.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  // Deliberately skewed structures so strashing cannot share.
  const Signal f = net.create_and(net.create_and(a, c), b);
  const Signal g = net.create_xor(net.create_and(net.create_and(a, b), a), d);
  net.create_po(f);
  net.create_po(g);
#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
  const std::uint64_t replaced_before =
      obs::counter("opt.resub.replaced").value();
#endif
  const Network rs = resub(net);
  EXPECT_TRUE(structurally_identical(rs, cleanup(net)));
#ifndef MCS_OBS_DISABLE
  EXPECT_EQ(obs::counter("opt.resub.replaced").value(), replaced_before);
#endif
}

TEST(Resub, PreservesFunctionOnSuiteCircuit) {
  for (const GateBasis basis : {GateBasis::aig(), GateBasis::xmg()}) {
    for (const std::uint64_t seed : {91, 92, 93, 94, 95}) {
      const Network net = cleanup(testing::random_network(
          {.num_pis = 8, .num_gates = 150, .basis = basis, .seed = seed}));
      ResubParams params;
      params.basis = basis;
      const Network rs = resub(net, params);
      EXPECT_LE(rs.num_gates(), net.num_gates()) << "seed " << seed;
      EXPECT_EQ(testing::reference_cec(net, rs), CecResult::kEquivalent)
          << "seed " << seed;
    }
  }
}

TEST(Resub, LeavesAnAdderUntouchedWithoutSat) {
  // Every AND node's first divisor pair is its own fanin pair, which
  // strashes onto the node itself: no candidate reaches SAT and nothing
  // is replaced.
  const Network net = expand_to_aig(circuits::adder(16));
#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
  const std::uint64_t calls_before =
      obs::counter("opt.resub.sat_calls").value();
  const std::uint64_t replaced_before =
      obs::counter("opt.resub.replaced").value();
#endif
  const Network rs = resub(net);
  EXPECT_TRUE(structurally_identical(rs, cleanup(net)));
#ifndef MCS_OBS_DISABLE
  EXPECT_EQ(obs::counter("opt.resub.sat_calls").value(), calls_before);
  EXPECT_EQ(obs::counter("opt.resub.replaced").value(), replaced_before);
#endif
}

TEST(Resub, ReplacesGatesOverTwoDivisors) {
  // XOR3(a, b, a&b) == a|b and MAJ(c, d, c&d) == c&d: each node is one
  // 2-input gate over two of its divisors, and replacing it frees the
  // AND that only it reads.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  net.create_po(net.create_xor3(a, b, net.create_and(a, b)));
  net.create_po(net.create_maj(c, d, net.create_and(c, d)));
  ASSERT_EQ(net.num_gates(), 4u);
#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
  const std::uint64_t calls_before =
      obs::counter("opt.resub.sat_calls").value();
  const std::uint64_t replaced_before =
      obs::counter("opt.resub.replaced").value();
#endif
  const Network rs = resub(net);
  EXPECT_LT(rs.num_gates(), net.num_gates());
  EXPECT_EQ(testing::reference_cec(net, rs), CecResult::kEquivalent);
#ifndef MCS_OBS_DISABLE
  EXPECT_GE(obs::counter("opt.resub.sat_calls").value(), calls_before + 2);
  EXPECT_EQ(obs::counter("opt.resub.replaced").value(), replaced_before + 2);
#endif
}

TEST(Compress2rsLike, ImprovesRandomLogic) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 200, .num_pos = 6,
       .basis = GateBasis::aig(), .seed = 51});
  ScriptStats stats;
  const Network opt = compress2rs_like(net, GateBasis::aig(), 3, &stats);
  EXPECT_LE(opt.num_gates(), net.num_gates());
  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(check_equivalence(net, opt), CecResult::kEquivalent);
}

class GraphMapOnRandomNets : public ::testing::TestWithParam<int> {};

TEST_P(GraphMapOnRandomNets, PreservesFunctionAcrossBases) {
  const auto net = testing::random_network(
      {.num_pis = 7,
       .num_gates = 80,
       .num_pos = 4,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(GetParam() + 60)});
  for (const GateBasis target : {GateBasis::aig(), GateBasis::mig(),
                                 GateBasis::xmg()}) {
    GraphMapParams params;
    params.target = target;
    GraphMapStats stats;
    const Network mapped = graph_map(net, params, &stats);
    EXPECT_EQ(check_equivalence(net, mapped), CecResult::kEquivalent)
        << target.name();
    EXPECT_GT(stats.num_cuts_selected, 0u);
    if (!target.use_xor) {
      const auto s = network_stats(mapped);
      EXPECT_EQ(s.num_xor2 + s.num_xor3, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphMapOnRandomNets,
                         ::testing::Values(1, 2, 3));

TEST(GraphMap, XmgTargetCompressesParity) {
  // An AIG parity tree collapses dramatically when graph-mapped into XMG.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(net.create_pi());
  std::vector<Signal> layer = pis;
  while (layer.size() > 1) {
    std::vector<Signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const Signal a = layer[i], b = layer[i + 1];
      next.push_back(net.create_or(net.create_and(a, !b),
                                   net.create_and(!a, b)));
    }
    layer = next;
  }
  net.create_po(layer[0]);
  GraphMapParams params;
  params.target = GateBasis::xmg();
  const Network mapped = graph_map(net, params);
  EXPECT_LT(mapped.num_gates(), net.num_gates() / 2);
  EXPECT_EQ(check_equivalence(net, mapped), CecResult::kEquivalent);
}

TEST(GraphMap, IterationReachesFixpointAndMchEscapesIt) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 150, .num_pos = 5,
       .basis = GateBasis::aig(), .seed = 71});

  GraphMapParams params;
  params.target = GateBasis::xmg();
  int iters = 0;
  const Network local_opt = iterate_graph_map(net, params, 16, &iters);
  EXPECT_GT(iters, 0);
  EXPECT_EQ(check_equivalence(net, local_opt), CecResult::kEquivalent);
  // One more plain pass must not improve (fixpoint).
  const Network again = graph_map(local_opt, params);
  EXPECT_GE(again.num_gates(), local_opt.num_gates());

  // The MCH-based variant may keep improving past the local optimum.
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network escaped =
      iterate_mch_graph_map(local_opt, params, mch_params);
  EXPECT_EQ(check_equivalence(net, escaped), CecResult::kEquivalent);
  EXPECT_LE(escaped.num_gates(), local_opt.num_gates());
}

}  // namespace
}  // namespace mcs
