/// \file npn_db.hpp
/// \brief Databases of optimized structures for all 4-input NPN classes.
///
/// This is the "4-input NPN library" used by the level-oriented synthesis
/// strategy of the paper (Sec. III-A, citing fast NPN-based Boolean
/// matching).  For each canonical class we synthesize several candidate
/// structures (DSD, SOP factoring, Shannon) in the requested gate basis,
/// keep the best one under the chosen objective, and replay it whenever an
/// NPN-equivalent cut function must be realized.  The 4-input space has only
/// 222 classes, so each (basis, objective) database is built in full once
/// per process (~15 ms) and is immutable afterwards: every thread reads the
/// same instance, with no lock and no per-thread copy.

#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/resyn/basis.hpp"
#include "mcs/tt/npn.hpp"

namespace mcs {

class NpnDatabase {
 public:
  enum class Objective { kLevel, kArea };

  /// Synthesizes all 222 classes for \p basis under \p objective.
  NpnDatabase(GateBasis basis, Objective objective);

  /// Realizes the (<= 4 variable) function \p f over \p leaves in \p net.
  /// Returns std::nullopt for functions of more than 4 support variables.
  std::optional<Signal> instantiate(Network& net, Tt6 f, int num_vars,
                                    const std::vector<Signal>& leaves) const;

  /// The process-wide instance per (basis, objective), built on the first
  /// call for its key (thread-safe one-time initialization) and never
  /// changed afterwards.  Concurrent jobs and pool workers share it
  /// read-only: instantiate() only reads the class networks through
  /// copy_cone, which touches none of their mutable traversal state.
  static NpnDatabase& shared(GateBasis basis, Objective objective);

  std::size_t num_classes() const noexcept { return classes_.size(); }

 private:
  /// Replayable optimized structure: a 4-PI scratch network + output.
  struct Entry {
    Network net;
    Signal root;
    std::uint32_t depth = 0;
    std::size_t size = 0;
  };
  using ClassMap = std::unordered_map<std::uint16_t, Entry>;

  static ClassMap build_classes(GateBasis basis, Objective objective);

  const ClassMap classes_;  ///< canonical function (16 bits) -> structure
};

}  // namespace mcs
