/// \file sweep.hpp
/// \brief mcs::sweep -- the cascading SAT-sweeping (fraiging) engine.
///
/// The one proof engine behind the `fraig` pass, `sweep()` (opt/optimize.hpp,
/// used by compress2rs_like), the DCH choice construction and
/// check_equivalence (sat/cec.hpp, which sweeps a strashed miter of the two
/// networks).  It proves functional node equivalences on one network with
/// the simulate / prove / refine loop of FRAIGs (Mishchenko et al., 2005):
///
///   1. *Seed* candidate equivalence classes from random-simulation
///      signatures (RandomSimulation; seed-derived PI words).  Nodes whose
///      value words are all-0/all-1 form the constant-candidate class.
///      Each member is paired with its class representative (the smallest
///      node id).
///   2. *Prove* the pairs in topological waves.  Each round builds a
///      strashed representative network F wave by wave in level order: a
///      node is re-created in F over its fanins' representatives, and a
///      pair is decided in the wave of its deeper node.  A member that
///      strashes onto the F signal of its representative is proven with no
///      SAT call.  The rest go to SAT in fixed 32-pair batches on the
///      read-only F, fanned out on ThreadPool::global(); batch b of every
///      wave runs on proof slot b, a sat::IncrementalMiter that lives
///      across the round's waves and cascades its own proofs.  Proven
///      pairs are merged into F serially, in pair order, before the next
///      wave is built -- so every proof cascades structurally into all
///      deeper logic, and a deep pair's miter only sees the logic that is
///      still distinct.
///   3. *Refine*: SAT answers yield counterexample input assignments; they
///      are packed 64-per-word, injected into the simulation
///      (RandomSimulation::add_pattern_words) at the end of the round and
///      split every candidate class they distinguish.  Iterate until no
///      counterexample is found (fixpoint) or the round / pair budgets run
///      out; conflict-limited (kUnknown) pairs are never retried, since no
///      refinement can change their class.
///
/// Determinism contract (same as mcs::par): the proven set, and therefore
/// the fraig()ed network, is bit-identical for any thread count, under any
/// conflict_limit.  F is built serially; a wave's batches depend only on
/// its pair list and are solved by independent solvers into indexed slots;
/// merges and counterexample harvesting follow the (wave, member, repr)
/// pair order -- threads only change wall-clock time.

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs {

struct FraigParams {
  /// Worker threads for simulation and the proof batches; values < 1
  /// resolve through ThreadPool::resolve_threads (MCS_THREADS / hardware).
  int num_threads = 1;
  int sim_words = 16;                  ///< random words seeding the classes
  std::uint64_t sim_seed = 0xdead5eed;
  std::int64_t conflict_limit = 300;   ///< SAT budget per candidate pair
  int max_rounds = 16;                 ///< simulate/prove/refine iterations
  std::size_t max_pairs = 1u << 20;    ///< overall SAT-attempt budget
  /// Also sweep nodes whose simulated values are constant into the
  /// constant node.  Off for choice construction (a constant makes no
  /// sense as a choice-class member).
  bool sweep_constants = true;
  /// Consider nodes not reachable from the POs as candidates too.  Off for
  /// fraig() (merging into a dangling node would be meaningless); on for
  /// DCH, whose merged snapshots keep candidate structures as dangling
  /// cones.
  bool include_dangling = false;
};

struct FraigStats {
  std::size_t num_rounds = 0;
  std::size_t num_candidate_pairs = 0;  ///< SAT proof attempts
  std::size_t num_proven = 0;           ///< UNSAT: equality holds
  /// Equalities merged with no SAT call: the member strashed onto its
  /// representative in F.
  std::size_t num_struct_merged = 0;
  std::size_t num_disproven = 0;        ///< SAT: counterexample found
  std::size_t num_unknown = 0;          ///< conflict limit hit
  std::size_t num_patterns_added = 0;   ///< cex words injected into the sim
  std::size_t num_threads = 0;
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;  ///< set by fraig(); 0 from sweep_equivalences
};

/// One proven functional equality: function(node) == function(repr) ^ phase,
/// with repr < node (repr is the smallest member of the candidate class;
/// 0 = the constant node) -- also for equalities the engine found through
/// F's structure rather than a SAT call.  A non-constant repr can itself be proven
/// constant (one-level chain); rebuilding in ascending id order resolves
/// that for free.  With sweep_constants off (DCH), representatives are
/// never themselves proven equal to anything, so no chains exist.
struct ProvenEquiv {
  NodeId node;
  NodeId repr;
  bool phase;
};

/// Runs the engine and returns every proven equivalence, sorted by node id.
/// The network is not modified.
std::vector<ProvenEquiv> sweep_equivalences(const Network& net,
                                            const FraigParams& params = {},
                                            FraigStats* stats = nullptr);

/// SAT sweeping: proves equivalences and merges them -- the network is
/// rebuilt with every proven node redirected onto its representative (the
/// strash rewires the fanouts) and cleaned up.  CEC-equivalent to the
/// input; bit-identical for any thread count.
Network fraig(const Network& net, const FraigParams& params = {},
              FraigStats* stats = nullptr);

}  // namespace mcs
