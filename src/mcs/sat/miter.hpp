/// \file miter.hpp
/// \brief Incremental, assumption-based equivalence miters over one network.
///
/// The SAT-sweeping engine (mcs/sweep), CEC and resubstitution (mcs/opt)
/// prove many candidate equalities against the same network.  Encoding the
/// whole network up front makes every proof carry the whole circuit;
/// paying a fresh solver per pair throws the learnt clauses away.
/// IncrementalMiter is the middle ground: cones are Tseitin-encoded lazily (a
/// node is encoded at most once, shared cones are shared), each query is
/// activated through a fresh assumption literal that is retired
/// afterwards, and proven equalities can be asserted permanently so later
/// miters over the same cone collapse (proof cascading).  The network may
/// grow between calls (append-only, as the sweep's representative network
/// does wave by wave and resub's working copy candidate by candidate); new
/// nodes are picked up on the next encode.

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/sat/cnf.hpp"
#include "mcs/sat/solver.hpp"

namespace mcs::sat {

class IncrementalMiter {
 public:
  explicit IncrementalMiter(const Network& net)
      : net_(net), cnf_(net.size()) {}

  /// Encodes the fanin cone of \p s (no-op for already-encoded nodes; the
  /// constant node gets a variable forced to 0, PIs stay free).
  void encode(Signal s);

  /// Encodes the union of the fanin cones of all \p roots in a single
  /// traversal that stops at already-encoded nodes, and returns the newly
  /// encoded nodes as an ascending node-id list.  This is the batch
  /// preamble of the sweeping engine: encode once, then look equalities up
  /// by new cone node.
  std::vector<NodeId> encode(const std::vector<Signal>& roots);

  bool encoded(NodeId n) const noexcept {
    return n < cnf_.size() && cnf_.has_var(n);
  }

  /// Proves a == b: encodes both cones, activates a one-shot miter
  /// (t -> a != b) under assumption t and solves with \p conflict_limit
  /// conflicts (< 0 = unlimited).  kUnsat means the equality holds; kSat
  /// leaves a distinguishing model readable through pi_model().  The
  /// activation literal is retired after the query either way, so learnt
  /// clauses never block later queries.
  Result prove_equal(Signal a, Signal b, std::int64_t conflict_limit);

  /// Permanently asserts a == b (both cones are encoded if needed).  Sound
  /// only for proven facts; used for cascading within and across batches.
  void assert_equal(Signal a, Signal b);

  /// After a kSat prove_equal(): the model value of interface PI \p i.
  /// PIs outside every encoded cone read as 0 -- together with the solver
  /// this makes the returned counterexample a deterministic total input
  /// assignment.
  bool pi_model(std::size_t i) const noexcept;

  std::size_t num_clauses() const noexcept { return solver_.num_clauses(); }
  /// Network nodes encoded so far (excludes activation variables).
  std::size_t num_encoded() const noexcept { return num_encoded_; }

  /// Total solver conflicts over this miter's lifetime (effort metric; the
  /// sweep engine folds it into the sweep.conflicts counter per batch).
  std::int64_t num_conflicts() const noexcept {
    return solver_.num_conflicts();
  }

 private:
  const Network& net_;
  Solver solver_;
  CnfMapping cnf_;
  std::vector<char> seen_;  ///< cone-collection scratch (kept all-zero)
  std::size_t num_encoded_ = 0;
};

}  // namespace mcs::sat
