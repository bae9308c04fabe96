/// \file network_utils.hpp
/// \brief Traversal, cone and cleanup utilities over the mixed network.

#pragma once

#include <span>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/tt/truth_table.hpp"

namespace mcs {

/// Topological order of all nodes reachable from the POs through fanin edges
/// only (choice members not reachable this way are excluded).
std::vector<NodeId> topo_order(const Network& net);

/// Choice-aware topological order covering every node reachable from the POs
/// through fanins *or* choice lists.  Guarantees:
///   - fanins precede their fanouts,
///   - every choice-class member precedes its representative.
/// This is the processing order required by choice-aware cut enumeration
/// (paper, Alg. 3): when the representative is reached, the cut sets of all
/// its members are already available for merging.
std::vector<NodeId> choice_topo_order(const Network& net);

/// All nodes reachable from \p roots through fanin edges (and, with
/// \p follow_choices, the choice members of reached representatives,
/// including the members' own cones), as an ascending-id list.  Ascending
/// node ids are a valid topological order for fanin edges (fanins always
/// precede their fanouts in a strashed Network).
///
/// \p seen is caller-owned scratch (cleared here).  The network's shared
/// traversal marks are deliberately NOT used, so concurrent calls on the
/// same network -- the parallel shard-construction and CNF-encoding
/// phases -- are safe.
std::vector<NodeId> collect_cone_nodes(const Network& net,
                                       const std::vector<NodeId>& roots,
                                       bool follow_choices,
                                       std::vector<char>& seen);

/// True iff \p target is reachable from \p from by following fanin edges
/// (i.e. target is in the TFI cone of from, or equals it).
bool reaches(const Network& net, NodeId from, NodeId target);

/// Like reaches(), but follows the full *dependency* relation used by
/// choice-aware algorithms: fanins plus choice-class members (a
/// representative depends on its members, since their cut sets must be
/// computed first).  Inserting a choice (repr = target, member = from) is
/// safe exactly when this returns false -- it is the acyclicity guard of
/// the MCH construction (paper, Sec. III-A: candidates must not create
/// covering cycles).
///
/// \p known_not_reaching bounds the walk: its nodes are marked visited
/// before it starts, so it stops at them, and a \p from among them returns
/// false at once.  \pre Each of these nodes lies in \p target's fanin cone
/// and the choice network is acyclic, so none of them can reach \p target.
/// MCH passes the cut or MFFC leaves a candidate was synthesized over.
bool choice_reaches(const Network& net, NodeId from, NodeId target,
                    std::span<const Signal> known_not_reaching = {});

/// A fanout-free cone rooted at some node.
struct Cone {
  std::vector<NodeId> inner;   ///< gates inside the cone (topological order)
  std::vector<NodeId> leaves;  ///< boundary nodes (inputs of the cone)
};

/// Maximum fanout-free cone of \p root.  Gates whose entire fanout lies
/// inside the cone are included.  Returns an empty cone (no inner nodes)
/// when the leaf count would exceed \p max_leaves.
Cone compute_mffc(const Network& net, NodeId root, int max_leaves);

/// Computes the local function of \p root in terms of \p leaves by
/// simulating the cone with truth tables.  All cone paths must terminate at
/// \p leaves (or constants).  \pre leaves.size() <= TruthTable::kMaxVars.
TruthTable cone_function(const Network& net, Signal root,
                         const std::vector<NodeId>& leaves);

/// Copies the cone of \p root from \p src into \p dst, substituting the i-th
/// PI of \p src with \p pi_map[i].  Returns the signal implementing root's
/// function in \p dst.  Gates are re-strashed on the way.
Signal copy_cone(const Network& src, Network& dst, Signal root,
                 const std::vector<Signal>& pi_map);

/// Options for cleanup().
struct CleanupOptions {
  bool keep_choices = false;  ///< preserve choice classes in the copy
};

/// Returns a compacted copy of \p net: only nodes reachable from the POs
/// (plus, with keep_choices, their choice cones) survive; nodes are
/// re-strashed, which can merge structurally duplicate logic.
Network cleanup(const Network& net, const CleanupOptions& opts = {});

/// Per-node fanout lists (indexed by NodeId; includes gate fanouts only,
/// not PO references).
std::vector<std::vector<NodeId>> fanout_lists(const Network& net);

/// Recomputes node levels assuming unit gate delays; returns network depth.
/// (Levels are maintained incrementally on construction; this is used by
/// tests and by algorithms that temporarily invalidate levels.)
std::uint32_t recompute_levels(Network& net);

/// Sums of structural statistics used all over the benches.
struct NetworkStats {
  std::size_t num_gates = 0;
  std::size_t num_and2 = 0;
  std::size_t num_xor2 = 0;
  std::size_t num_maj3 = 0;
  std::size_t num_xor3 = 0;
  std::uint32_t depth = 0;
  std::size_t num_choices = 0;
};

NetworkStats network_stats(const Network& net);

/// True iff the two networks are structurally bit-identical: same node
/// table (types, fanins, choice links and phases) and the same PI/PO
/// interface.  Mutable traversal scratch state is ignored.  This is the
/// check behind the mcs::par determinism contract (results must not depend
/// on the thread count); it is stricter than functional equivalence.
bool structurally_identical(const Network& a, const Network& b);

}  // namespace mcs
