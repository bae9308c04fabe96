#include "mcs/resyn/npn_db.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <mutex>

#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/resyn/sop.hpp"
#include "mcs/resyn/strategies.hpp"

namespace mcs {

NpnDatabase::NpnDatabase(GateBasis basis, Objective objective)
    : classes_(build_classes(basis, objective)) {}

NpnDatabase::ClassMap NpnDatabase::build_classes(GateBasis basis,
                                                 Objective objective) {
  // The build is shared by every later caller -- it is not work of the job
  // whose call happens to come first.  Detach metric attribution for it so
  // per-job deltas stay bit-identical whoever triggers it (the process-wide
  // registry still sees the counters).
  obs::Scope detached(nullptr);

  const SopStrategy sop;
  const DsdStrategy dsd;
  const ShannonStrategy shannon;
  const ResynStrategy* candidates[] = {&sop, &dsd, &shannon};
  const auto cost = [objective](const Entry& x) {
    return objective == Objective::kLevel
               ? std::make_pair(static_cast<std::size_t>(x.depth), x.size)
               : std::make_pair(x.size, static_cast<std::size_t>(x.depth));
  };

  ClassMap classes;
  std::vector<char> seen;
  for (std::uint32_t key = 0; key < (1u << 16); ++key) {
    const Tt6 canon = npn4_canonicalize(key).canon;
    if ((canon & tt6_mask(4)) != key) continue;  // not a class minimum

    // Synthesize the canonical function with each candidate strategy into
    // its own scratch network; keep the best under the objective.
    const TruthTable f = TruthTable::from_tt6(canon, 4);
    std::optional<Entry> best;
    for (const ResynStrategy* strat : candidates) {
      Entry e;
      std::vector<Signal> leaves;
      for (int i = 0; i < 4; ++i) leaves.push_back(e.net.create_pi());
      const auto root = strat->synthesize(e.net, basis, f, leaves);
      assert(root.has_value());
      e.root = *root;
      e.depth = e.net.node(e.root.node()).level;  // scratch levels are exact
      const auto cone = collect_cone_nodes(e.net, {e.root.node()}, false, seen);
      e.size = std::count_if(cone.begin(), cone.end(),
                             [&](NodeId n) { return e.net.is_gate(n); });
      if (!best || cost(e) < cost(*best)) best = std::move(e);
    }
    classes.emplace(static_cast<std::uint16_t>(key), std::move(*best));
  }
  return classes;
}

std::optional<Signal> NpnDatabase::instantiate(
    Network& net, Tt6 f, int num_vars,
    const std::vector<Signal>& leaves) const {
  assert(static_cast<int>(leaves.size()) == num_vars);
  if (num_vars > 4) return std::nullopt;

  // Work in the 4-variable space (pad with vacuous variables).
  const auto& canon = npn4_canonicalize(tt6_replicate(f, num_vars));
  const Entry& entry =
      classes_.at(static_cast<std::uint16_t>(canon.canon & tt6_mask(4)));

  // f(u) = out ^ canon(z) with z_j = u[perm[j]] ^ flips[perm[j]]
  // (composition of the canonicalizing transform with the identity).
  NpnTransform identity;
  identity.num_vars = 4;
  const NpnMatch m = npn_match(canon.transform, identity);

  std::vector<Signal> pi_map(4);
  for (int j = 0; j < 4; ++j) {
    const int leaf = m.pin_to_leaf[j];
    // Vacuous positions (beyond num_vars) can be fed anything.
    Signal s = leaf < num_vars ? leaves[leaf] : net.constant(false);
    if (m.pin_negation & (1u << j)) s = !s;
    pi_map[j] = s;
  }
  Signal out = copy_cone(entry.net, net, entry.root, pi_map);
  if (m.output_negation) out = !out;
  return out;
}

NpnDatabase& NpnDatabase::shared(GateBasis basis, Objective objective) {
  // Two basis flags and two objectives make eight keys, each built once.
  static std::array<std::once_flag, 8> once;
  static std::array<std::optional<NpnDatabase>, 8> instances;
  const int key = (basis.use_xor ? 1 : 0) | (basis.use_maj ? 2 : 0) |
                  (objective == Objective::kArea ? 4 : 0);
  std::call_once(once[key],
                 [&] { instances[key].emplace(basis, objective); });
  return *instances[key];
}

}  // namespace mcs
