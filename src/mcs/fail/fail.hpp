/// \file fail.hpp
/// \brief mcs::fail -- deterministic, seed-driven fault injection.
///
/// A server meant to survive worker crashes, stalled SAT calls, malformed
/// traffic and mid-write disconnects needs a way to *make* those things
/// happen on demand.  This subsystem compiles named injection sites into
/// the hot layers of the stack (flow engine, thread pool, sweep/SAT, io
/// readers, server transport); each site is a single relaxed atomic load
/// when no fault spec is armed, and a rule-matching probe when one is.
///
/// **Arming.**  A fault spec comes from the `MCS_FAULTS` environment
/// variable (read once via init_from_env(), which the flow runner and the
/// server daemon call at startup) or programmatically via configure()
/// (the `faults` flow pass exposes that to flow specs and the shell).
///
/// **Spec grammar.**  Semicolon-separated clauses, each
///
///     site=kind[,option=value...]
///
///   site    injection-site name (e.g. `flow.stage`); a trailing `*`
///           makes it a prefix match (`sweep.*`).
///   kind    throw | abort | delay | short | alloc
///   options every=N   fire on every Nth matching hit (default 1)
///           after=N   ignore the first N hits (default 0)
///           count=M   stop after M fires (default unlimited)
///           p=P       fire with probability P in (0,1] -- deterministic,
///                     derived from `seed` and the per-rule hit counter,
///                     never from wall-clock entropy (default 1)
///           seed=S    the probability stream seed (default 1)
///           ms=D      delay duration for kind=delay (default 1)
///
/// Example: MCS_FAULTS="flow.stage=throw,every=7;sat.solve=delay,ms=5;
/// server.read=short,every=3,p=0.5,seed=42".
///
/// **Kinds.**  `throw` raises fail::InjectedFault (derived from
/// std::runtime_error -- every layer that contains user errors contains
/// it); `alloc` raises std::bad_alloc (allocation-failure paths); `abort`
/// calls std::abort() (crash-recovery drills -- this is how the supervisor
/// integration test kills a worker from the inside); `delay` sleeps `ms`
/// milliseconds (stall simulation); `short` only acts through
/// short_read(), clipping a byte count so transports and readers see
/// partial data.
///
/// **Determinism.**  Same spec + same sequence of site hits = same faults.
/// Nothing here consults wall-clock randomness; the probability stream is
/// a hash of (seed, hit index).  Every fired fault is counted in mcs::obs
/// (`fail.injected.<kind>`), so tests and the CI fault-soak job can assert
/// exact accounting.
///
/// **Disabled cost.**  With no spec armed, point()/short_read() are one
/// relaxed atomic load -- measured <1% on the mult64 paper flow.
/// fail is independent of obs and stays live in every build; only its
/// counters degrade to no-ops under -DMCS_OBS_DISABLE.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>

namespace mcs::fail {

/// Raised by kind=throw fault points.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by configure() on malformed fault specs.
class FaultSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

extern std::atomic<bool> g_armed;

/// Slow path of point(): matches \p site against the armed rules and acts
/// (throw / abort / sleep).  Only called while armed.
void fire(const char* site);

/// Slow path of short_read(): returns the possibly-clipped byte count.
std::size_t clip(const char* site, std::size_t n);

}  // namespace detail

/// True while a fault spec is armed.  One relaxed load.
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// A named injection site for throw/abort/delay/alloc faults.  No-op
/// (single relaxed load) when nothing is armed.
inline void point(const char* site) {
  if (armed()) detail::fire(site);
}

/// A named injection site for short-read faults: returns \p n, or a
/// smaller (but nonzero, unless n == 0) count when a `short` rule fires.
/// Also honours throw/abort/delay/alloc rules bound to the same site.
inline std::size_t short_read(const char* site, std::size_t n) {
  return armed() ? detail::clip(site, n) : n;
}

/// Parses and arms \p spec; an empty spec disarms everything.  Throws
/// FaultSpecError on grammar/option errors (leaving the previous spec
/// armed).  Thread-safe; rule hit counters restart from zero.
void configure(const std::string& spec);

/// Disarms all fault rules (equivalent to configure("")).
void disable();

/// The currently armed spec ("" when disarmed).
std::string active_spec();

/// Arms from the MCS_FAULTS environment variable.  Idempotent -- only the
/// first call reads the environment; later calls (and calls when the
/// variable is unset) do nothing.  A malformed MCS_FAULTS value is
/// reported on stderr and ignored rather than thrown: a typo in an env
/// var must not take down a daemon at startup.
void init_from_env();

/// Total faults fired since the last configure() (all kinds; also broken
/// out per kind in the obs counters `fail.injected.<kind>`).
std::uint64_t injected_total();

}  // namespace mcs::fail
