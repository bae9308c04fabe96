/// Tests for the synthesis strategy library: ISOP, factoring, DSD, Shannon,
/// NPN database -- each strategy must rebuild arbitrary functions correctly
/// in every gate basis.

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <tuple>

#include "mcs/common/rng.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/resyn/npn_db.hpp"
#include "mcs/resyn/sop.hpp"
#include "mcs/resyn/strategies.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
  TruthTable t(num_vars);
  for (auto& w : t.words()) w = rng.next();
  if (num_vars < 6) {
    t.words()[0] = tt6_replicate(t.words()[0], num_vars);
  }
  return t;
}

/// Instantiates every 97th 4-input function through \p db into one fresh
/// network, one PO each.
Network instantiate_spread(const NpnDatabase& db) {
  Network net;
  std::vector<Signal> leaves;
  for (int i = 0; i < 4; ++i) leaves.push_back(net.create_pi());
  for (std::uint32_t f = 0; f < (1u << 16); f += 97) {
    const auto root = db.instantiate(net, f, 4, leaves);
    if (root) net.create_po(*root);
  }
  return net;
}

// Defined first in the file so that, in the default order, it makes the
// process's first NpnDatabase::shared calls: 8 threads released at once
// race on the one-time builds of 4 keys (2 threads per key), so both the
// same-key and the different-key initializations overlap.
TEST(NpnDatabase, RacingFirstCallsShareOneInstancePerKey) {
  const std::pair<GateBasis, NpnDatabase::Objective> keys[] = {
      {GateBasis::xmg(), NpnDatabase::Objective::kLevel},
      {GateBasis::xmg(), NpnDatabase::Objective::kArea},
      {GateBasis::aig(), NpnDatabase::Objective::kArea},
      {GateBasis::mig(), NpnDatabase::Objective::kLevel},
  };
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const NpnDatabase*> seen(kThreads);
  std::vector<Network> built(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& [basis, objective] = keys[t % 4];
      start.arrive_and_wait();
      const NpnDatabase& db = NpnDatabase::shared(basis, objective);
      seen[t] = &db;
      built[t] = instantiate_spread(db);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& [basis, objective] = keys[t % 4];
    const NpnDatabase& db = NpnDatabase::shared(basis, objective);
    EXPECT_EQ(seen[t], &db) << "thread " << t;
    EXPECT_EQ(db.num_classes(), 222u);
    EXPECT_TRUE(structurally_identical(built[t], instantiate_spread(db)))
        << "thread " << t << " built a different network";
  }
  for (int t = 0; t < 4; ++t) {
    for (int u = t + 1; u < 4; ++u) EXPECT_NE(seen[t], seen[u]);
  }
}

class IsopRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(IsopRoundTrip, CoversExactly) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(8));
    const TruthTable f = random_tt(n, rng);
    const auto cubes = compute_isop(f);
    EXPECT_EQ(sop_to_truth_table(cubes, n), f);
  }
}

TEST_P(IsopRoundTrip, IsIrredundant) {
  Rng rng(GetParam() + 50);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(6));
    const TruthTable f = random_tt(n, rng);
    const auto cubes = compute_isop(f);
    // Removing any single cube must lose coverage.
    for (std::size_t skip = 0; skip < cubes.size(); ++skip) {
      std::vector<Cube> reduced;
      for (std::size_t i = 0; i < cubes.size(); ++i) {
        if (i != skip) reduced.push_back(cubes[i]);
      }
      EXPECT_FALSE(sop_to_truth_table(reduced, n) == f)
          << "cube " << skip << " is redundant";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsopRoundTrip, ::testing::Values(1, 2, 3));

TEST(Isop, SpecialFunctions) {
  EXPECT_TRUE(compute_isop(TruthTable::constant(false, 4)).empty());
  const auto one = compute_isop(TruthTable::constant(true, 4));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].mask, 0u);
  // XOR needs 2^(n-1) cubes.
  const auto x =
      TruthTable::projection(0, 3) ^ TruthTable::projection(1, 3) ^
      TruthTable::projection(2, 3);
  EXPECT_EQ(compute_isop(x).size(), 4u);
}

TEST(Factoring, RoundTripsOnRandomFunctions) {
  Rng rng(7);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    const TruthTable f = random_tt(n, rng);
    const auto ff = factor_sop(compute_isop(f), n);
    EXPECT_EQ(factored_to_truth_table(ff, n), f);
  }
}

TEST(Factoring, SharesLiterals) {
  // f = a&b | a&c | a&d factors as a & (b | c | d): 4 literals, not 6.
  const int n = 4;
  const auto a = TruthTable::projection(0, n);
  const auto b = TruthTable::projection(1, n);
  const auto c = TruthTable::projection(2, n);
  const auto d = TruthTable::projection(3, n);
  const auto f = (a & b) | (a & c) | (a & d);
  const auto ff = factor_sop(compute_isop(f), n);
  EXPECT_EQ(factored_to_truth_table(ff, n), f);
  EXPECT_LE(ff.num_literals(), 4);
}

struct StrategyCase {
  const char* strategy;
  GateBasis basis;
};

class StrategySynthesis
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static std::unique_ptr<ResynStrategy> make(int which) {
    switch (which) {
      case 0: return std::make_unique<SopStrategy>();
      case 1: return std::make_unique<DsdStrategy>();
      case 2: return std::make_unique<ShannonStrategy>();
      case 3:
        return std::make_unique<NpnStrategy>(NpnDatabase::Objective::kLevel);
      default:
        return std::make_unique<NpnStrategy>(NpnDatabase::Objective::kArea);
    }
  }
  static GateBasis basis_of(int which) {
    switch (which) {
      case 0: return GateBasis::aig();
      case 1: return GateBasis::xag();
      case 2: return GateBasis::mig();
      default: return GateBasis::xmg();
    }
  }
};

TEST_P(StrategySynthesis, RebuildsRandomFunctions) {
  const auto [strategy_id, basis_id] = GetParam();
  const auto strategy = make(strategy_id);
  const GateBasis basis = basis_of(basis_id);
  Rng rng(1000 * strategy_id + basis_id);

  for (int iter = 0; iter < 25; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(4));  // up to 4 vars
    const TruthTable f = random_tt(n, rng);

    Network net;
    std::vector<Signal> leaves;
    for (int i = 0; i < n; ++i) leaves.push_back(net.create_pi());
    const auto root = strategy->synthesize(net, basis, f, leaves);
    ASSERT_TRUE(root.has_value()) << strategy->name();
    net.create_po(*root);

    const auto pos = simulate_pos(net);
    EXPECT_EQ(pos[0], f) << strategy->name() << " in basis " << basis.name();

    // Basis restrictions must be respected.
    const auto stats = network_stats(net);
    if (!basis.use_xor) {
      EXPECT_EQ(stats.num_xor2 + stats.num_xor3, 0u);
    }
    if (!basis.use_maj) {
      EXPECT_EQ(stats.num_maj3, 0u);
    }
  }
}

TEST_P(StrategySynthesis, RebuildsLargerFunctionsWhenSupported) {
  const auto [strategy_id, basis_id] = GetParam();
  if (strategy_id >= 3) GTEST_SKIP() << "NPN database is 4-input only";
  const auto strategy = make(strategy_id);
  const GateBasis basis = basis_of(basis_id);
  Rng rng(77 + strategy_id * 13 + basis_id);

  for (int iter = 0; iter < 10; ++iter) {
    const int n = 5 + static_cast<int>(rng.next_below(3));  // 5..7 vars
    const TruthTable f = random_tt(n, rng);
    Network net;
    std::vector<Signal> leaves;
    for (int i = 0; i < n; ++i) leaves.push_back(net.create_pi());
    const auto root = strategy->synthesize(net, basis, f, leaves);
    ASSERT_TRUE(root.has_value());
    net.create_po(*root);
    EXPECT_EQ(simulate_pos(net)[0], f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllBases, StrategySynthesis,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0, 1, 2, 3)));

TEST(DsdStrategy, UsesXorNodesForXorFunctions) {
  Network net;
  std::vector<Signal> leaves;
  for (int i = 0; i < 4; ++i) leaves.push_back(net.create_pi());
  const auto f = TruthTable::projection(0, 4) ^ TruthTable::projection(1, 4) ^
                 TruthTable::projection(2, 4) ^ TruthTable::projection(3, 4);
  const DsdStrategy dsd;
  const auto root = dsd.synthesize(net, GateBasis::xmg(), f, leaves);
  ASSERT_TRUE(root.has_value());
  const auto stats = network_stats(net);
  EXPECT_EQ(stats.num_and2, 0u) << "a pure XOR chain needs no ANDs in XMG";
  EXPECT_GE(stats.num_xor2 + stats.num_xor3, 1u);
}

TEST(DsdStrategy, DetectsMajorityTop) {
  Network net;
  std::vector<Signal> leaves;
  for (int i = 0; i < 3; ++i) leaves.push_back(net.create_pi());
  const auto a = TruthTable::projection(0, 3);
  const auto b = TruthTable::projection(1, 3);
  const auto c = TruthTable::projection(2, 3);
  const auto f = (a & b) | (a & c) | (b & c);
  const DsdStrategy dsd;
  const auto root = dsd.synthesize(net, GateBasis::mig(), f, leaves);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(network_stats(net).num_maj3, 1u);
  EXPECT_EQ(net.num_gates(), 1u) << "MAJ(a,b,c) is a single MIG node";
}

TEST(NpnDatabase, CoversAllClassesAndFunctions) {
  const std::pair<GateBasis, NpnDatabase::Objective> keys[] = {
      {GateBasis::xmg(), NpnDatabase::Objective::kLevel},
      {GateBasis::aig(), NpnDatabase::Objective::kArea},
  };
  for (const auto& [basis, objective] : keys) {
    const NpnDatabase& db = NpnDatabase::shared(basis, objective);
    EXPECT_EQ(db.num_classes(), 222u) << "4-input NPN classes, built up front";
    Network net;
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(net.create_pi());
    for (std::uint32_t f = 0; f < (1u << 16); ++f) {
      const auto root = db.instantiate(net, f, 4, leaves);
      ASSERT_TRUE(root.has_value());
      net.create_po(*root);
    }
    const auto pos = simulate_pos(net);
    for (std::uint32_t f = 0; f < (1u << 16); ++f) {
      ASSERT_EQ(pos[f], TruthTable::from_tt6(f, 4))
          << basis.name() << " f=" << f;
    }
    EXPECT_EQ(db.num_classes(), 222u);
  }
}

TEST(StrategyLibrary, BundlesAreNonEmpty) {
  EXPECT_FALSE(StrategyLibrary::level_oriented().empty());
  EXPECT_FALSE(StrategyLibrary::area_oriented().empty());
}

}  // namespace
}  // namespace mcs
