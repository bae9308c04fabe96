#include "mcs/choice/mch.hpp"

#include <algorithm>
#include <span>

#include "mcs/cut/enumeration.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

std::vector<bool> collect_critical_nodes(const Network& net, double ratio) {
  std::vector<bool> critical(net.size(), false);
  const std::uint32_t depth = net.depth();
  if (depth == 0) return critical;
  const auto threshold =
      static_cast<std::uint32_t>(static_cast<double>(depth) * ratio);

  // Required times seeded by critical POs; a node is critical when its
  // level equals its required time (zero slack on a path to a critical PO).
  std::vector<std::uint32_t> required(net.size(), 0);
  for (const Signal s : net.pos()) {
    const NodeId n = s.node();
    if (net.level(n) >= threshold) {
      required[n] = std::max(required[n], net.level(n));
    }
  }
  // Nodes are stored in topological order; sweep backwards.
  for (NodeId n = static_cast<NodeId>(net.size()); n-- > 0;) {
    if (required[n] == 0 || required[n] != net.level(n)) continue;
    critical[n] = true;
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId c = nd.fanin[i].node();
      required[c] = std::max(required[c], required[n] - 1);
    }
  }
  return critical;
}

namespace {

/// Attempts to attach the candidate rooted at \p cand, synthesized over
/// \p leaves, as a choice of \p n.
void try_attach(Network& net, NodeId n, Signal cand,
                std::span<const Signal> leaves, MchStats& stats) {
  ++stats.num_candidates_tried;
  const NodeId c = cand.node();
  if (c == n) {
    ++stats.num_rejected_same;
    return;
  }
  if (!net.is_gate(c)) return;  // degenerate candidate (constant or leaf)
  if (!net.is_repr(c) || net.node(c).next_choice != kNullNode) {
    // Already a member elsewhere, or heads its own class.
    ++stats.num_rejected_class;
    return;
  }
  if (!net.is_repr(n)) return;
  // Acyclicity guard: n must not be a dependency of the candidate cone.
  // The leaves lie in n's fanin cone, so the walk stops at them.
  if (choice_reaches(net, c, n, leaves)) {
    ++stats.num_rejected_cycle;
    return;
  }
  const bool phase = cand.complemented();
  net.add_choice(n, c, phase);
  ++stats.num_choices_added;
}

/// Counts current members of a class.
int class_size(const Network& net, NodeId repr) {
  int k = 0;
  for (NodeId m = net.node(repr).next_choice; m != kNullNode;
       m = net.node(m).next_choice) {
    ++k;
  }
  return k;
}

}  // namespace

Network build_mch(const Network& input, const MchParams& params,
                  MchStats* stats_out) {
  obs::Span span("mch:build");
  MchStats stats;

  // Line 1 of Algorithm 1: one-to-one mapping into the (mixed) network that
  // will host heterogeneous candidates.  cleanup() gives a compact verbatim
  // copy whose node array is topologically ordered.  Pre-existing choice
  // classes (e.g. from a DCH pass) are preserved: MCH subsumes traditional
  // structural choices and stacks heterogeneous candidates on top.
  Network net = cleanup(input, {.keep_choices = true});
  const NodeId original_size = static_cast<NodeId>(net.size());

  // Line 2: critical-path collection controlled by the ratio r.
  const auto critical = collect_critical_nodes(net, params.critical_ratio);
  stats.num_critical_nodes = static_cast<std::size_t>(
      std::count(critical.begin(), critical.end(), true));

  // Line 3: cut enumeration on the original nodes (no choices exist yet).
  CutEnumerator cuts(net, {.cut_size = params.cut_size,
                           .cut_limit = params.cut_limit});
  cuts.run(topo_order(net));

  const StrategyLibrary default_level = StrategyLibrary::level_oriented();
  const StrategyLibrary default_area = StrategyLibrary::area_oriented();
  const StrategyLibrary& level_lib =
      params.level_lib ? *params.level_lib : default_level;
  const StrategyLibrary& area_lib =
      params.area_lib ? *params.area_lib : default_area;

  // Lines 4 (Algorithm 2): multi-strategy structural choices.
  for (NodeId n = 1; n < original_size; ++n) {
    if (!net.is_gate(n)) continue;
    if (!net.is_repr(n)) continue;  // members of inherited classes
    const bool is_critical = critical[n];
    const StrategyLibrary& lib = is_critical ? level_lib : area_lib;

    auto synthesize_from = [&](const TruthTable& f,
                               const std::vector<Signal>& leaves) {
      for (const auto& strategy : lib.strategies()) {
        if (class_size(net, n) >= params.max_choices_per_node) {
          ++stats.num_rejected_cap;
          return;
        }
        const auto cand =
            strategy->synthesize(net, params.candidate_basis, f, leaves);
        if (!cand) continue;
        try_attach(net, n, *cand, leaves, stats);
      }
    };

    // Candidates from the node's cuts (critical and non-critical alike;
    // the strategy bundle differs).
    for (const Cut& cut : cuts.cuts(n)) {
      if (cut.is_trivial() || cut.size < 2) continue;
      if (class_size(net, n) >= params.max_choices_per_node) break;
      std::vector<Signal> leaves;
      leaves.reserve(cut.size);
      bool usable = true;
      for (int i = 0; i < cut.size; ++i) {
        const NodeId leaf = cut.leaves[i];
        if (!net.is_repr(leaf)) {
          usable = false;  // leaf became a member; skip this cut
          break;
        }
        leaves.emplace_back(leaf, false);
      }
      if (!usable) continue;
      synthesize_from(TruthTable::from_tt6(cut.function, cut.size), leaves);
    }

    // Lines 8-11: non-critical nodes additionally resynthesize their MFFC
    // (a larger area-recovery window than any single cut).
    if (!is_critical &&
        class_size(net, n) < params.max_choices_per_node) {
      const Cone mffc = compute_mffc(net, n, params.mffc_max_pi);
      if (mffc.inner.size() >= 2 && !mffc.leaves.empty() &&
          static_cast<int>(mffc.leaves.size()) <= params.mffc_max_pi) {
        const TruthTable f =
            cone_function(net, Signal(n, false), mffc.leaves);
        std::vector<Signal> leaves;
        leaves.reserve(mffc.leaves.size());
        for (const NodeId leaf : mffc.leaves) leaves.emplace_back(leaf, false);
        synthesize_from(f, leaves);
      }
    }
  }

  // One flush per call, as CutEnumerator::run does for cut.*.
  static obs::Counter& critical_nodes = obs::counter("mch.critical_nodes");
  static obs::Counter& tried = obs::counter("mch.candidates_tried");
  static obs::Counter& added = obs::counter("mch.choices_added");
  static obs::Counter& rejected_cycle = obs::counter("mch.rejected_cycle");
  static obs::Counter& rejected_class = obs::counter("mch.rejected_class");
  static obs::Counter& rejected_cap = obs::counter("mch.rejected_cap");
  critical_nodes.add(stats.num_critical_nodes);
  tried.add(stats.num_candidates_tried);
  added.add(stats.num_choices_added);
  rejected_cycle.add(stats.num_rejected_cycle);
  rejected_class.add(stats.num_rejected_class);
  rejected_cap.add(stats.num_rejected_cap);

  if (stats_out) *stats_out = stats;
  return net;
}

}  // namespace mcs
