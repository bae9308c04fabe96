/// \file cec.hpp
/// \brief Combinational equivalence checking (the role of ABC's `cec`).
///
/// Every experiment in the paper is formally verified; check_equivalence
/// gives the same guarantee as a four-step pipeline: word-parallel random
/// simulation for fast falsification, one strashed miter of both networks
/// with shared PIs, the cascading SAT-sweeping engine (mcs/sweep) on that
/// miter, and SAT proofs for only the PO pairs the sweep left apart.

#pragma once

#include <cstddef>
#include <cstdint>

#include "mcs/network/network.hpp"

namespace mcs {

enum class CecResult { kEquivalent, kNotEquivalent, kUnknown };

struct CecOptions {
  int sim_words = 16;                  ///< random words per node (sim + sweep)
  std::uint64_t sim_seed = 0xc0ffee;   ///< simulation seed
  std::int64_t conflict_limit = -1;    ///< SAT budget; < 0 means unlimited

  /// Worker threads for the simulation, the sweep and the PO proofs;
  /// values < 1 resolve through ThreadPool::resolve_threads (MCS_THREADS /
  /// hardware).  The sweep is bit-identical for any thread count, and the
  /// remaining PO pairs are proven in fixed batches that depend only on
  /// which pairs remain, with an order-independent verdict merge (any SAT
  /// => kNotEquivalent, else any kUnknown => kUnknown).  The verdict is
  /// therefore identical for every thread count under any conflict_limit.
  /// conflict_limit bounds each PO proof; the sweep's internal pairs run
  /// under the engine's default per-pair budget, or conflict_limit when
  /// that is smaller.
  int num_threads = 1;
};

/// Checks combinational equivalence of two networks with identical PI/PO
/// counts (POs are compared positionally).
CecResult check_equivalence(const Network& a, const Network& b,
                            const CecOptions& opts = {});

/// Checks functional equality of two signals of the same network
/// (used to validate choice classes).
CecResult check_signals_equivalent(const Network& net, Signal x, Signal y,
                                   const CecOptions& opts = {});

}  // namespace mcs
