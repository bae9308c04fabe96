#include "mcs/sweep/sweep.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>
#include <utility>

#include "mcs/fail/fail.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {

namespace {

/// SAT pairs per proof batch.  Batch b of a wave runs on proof slot b (one
/// IncrementalMiter); the size trades encode reuse (bigger batches share
/// cones and cascade more proofs through one solver) against fan-out
/// granularity.
constexpr std::size_t kPairBatch = 32;

/// A proof slot's solver is replaced by a fresh one once it has encoded
/// this many nodes.  Every query pays for decisions over the whole solver,
/// so a slot that keeps all of a deep network slows each local proof down;
/// re-encoding after a recycle costs one cone.  Measured on the 256-bit
/// adder miter (bench_micro --json-sweep, 4-core x86): 1000 takes 0.028 s,
/// 250/500/2000/4000 take 0.05/0.04/0.05/0.09 s, never recycling 0.08 s.
constexpr std::size_t kRecycleNodes = 1000;

/// Counterexample words injected per refinement round (64 patterns each).
/// Surplus counterexamples are dropped; their pairs re-prove next round,
/// and every injected pattern is guaranteed to split the class it came
/// from, so rounds strictly refine.
constexpr int kMaxCexWordsPerRound = 8;

/// Cap on the simulation words reserved for refinement, decoupling the
/// up-front values_ allocation from max_rounds (rounds can be huge; most
/// runs reach fixpoint in 1-3 rounds).  When the reserve runs dry the
/// engine simply stops refining -- sound, just fewer rounds.
constexpr int kMaxReserveWords = 4 * kMaxCexWordsPerRound;

struct Candidate {
  NodeId member;
  NodeId repr;
  bool phase;  ///< function(member) == function(repr) ^ phase (per sim)
};

enum class Verdict : std::uint8_t { kProven, kCex, kUnknown };

struct PairResult {
  Verdict verdict = Verdict::kUnknown;
  std::vector<std::uint8_t> cex;  ///< PI assignment, kCex only
};

/// True iff all \p num_words value words equal \p fill.
bool words_are(const std::uint64_t* w, int num_words, std::uint64_t fill) {
  for (int i = 0; i < num_words; ++i) {
    if (w[i] != fill) return false;
  }
  return true;
}

/// The representative network F of one round.  Every eligible node of the
/// swept network is re-created in F over its fanins' representatives, so
/// the strash identifies structurally equal logic on its own; proven
/// equalities are folded in as redirects between F nodes (always from the
/// larger F id to the smaller, so chains are acyclic and the constant
/// always wins).  Invariant: sig(n) is functionally equal to node n.
class ReprNetwork {
 public:
  /// \p max_nodes bounds the nodes this round builds (F never holds more
  /// than the swept network).
  ReprNetwork(const Network& net, std::size_t max_nodes)
      : net_(net), sig_(net.size()) {
    // Every build probes F's strash table; at half the usual load factor
    // the probe sequences stay short.
    f_.reserve(2 * max_nodes);
    redirect_.assign(max_nodes, kNoRedirect);
    sig_[0] = f_.constant(false);
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      sig_[net.pi_at(i)] = f_.create_pi();
    }
  }

  const Network& net() const noexcept { return f_; }

  /// Re-creates gate \p n of the swept network over its fanins'
  /// representatives.
  void build(NodeId n) {
    const Node& nd = net_.node(n);
    std::array<Signal, 3> in{};
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = sig(nd.fanin[i].node()) ^ nd.fanin[i].complemented();
    }
    sig_[n] = f_.create_gate(nd.type, in);
  }

  /// Sets node \p n's F signal directly (a member merged in an earlier
  /// round whose representative is already built).
  void alias(NodeId n, Signal s) { sig_[n] = s; }

  /// The current representative F signal of swept-network node \p n.
  Signal sig(NodeId n) const noexcept { return find(sig_[n]); }

  /// The F signal that F node \p f is redirected to, if any (one step,
  /// not resolved).
  bool redirected(NodeId f, Signal* to) const noexcept {
    if (redirect_[f] == kNoRedirect) return false;
    *to = Signal::from_raw(redirect_[f]);
    return true;
  }

  /// Records the proven equality a == b between F signals.
  void unite(Signal a, Signal b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    assert(a.node() != b.node() && "proven equality is a complement");
    if (a.node() < b.node()) std::swap(a, b);
    redirect_[a.node()] = (b ^ a.complemented()).raw();
    log_.push_back(a.node());
  }

  /// F nodes in the order they were redirected (proof slots replay it).
  const std::vector<NodeId>& redirect_log() const noexcept { return log_; }

 private:
  static constexpr std::uint32_t kNoRedirect = 0xffffffffu;

  Signal find(Signal s) const noexcept {
    while (redirect_[s.node()] != kNoRedirect) {
      s = Signal::from_raw(redirect_[s.node()]) ^ s.complemented();
    }
    return s;
  }

  const Network& net_;
  Network f_;
  std::vector<Signal> sig_;             ///< swept node -> F signal
  std::vector<std::uint32_t> redirect_;  ///< F node -> raw F signal
  std::vector<NodeId> log_;
};

/// One proof slot of a round: batch b of every wave runs on slot b, whose
/// incremental solver persists across the round's waves (F only grows)
/// until it is recycled, so a deep pair re-uses the encoding and learnt
/// clauses of the shallower pairs before it.  Slot contents depend on the
/// wave pair lists alone.
struct ProofSlot {
  explicit ProofSlot(const Network& f) : miter(f) {}
  sat::IncrementalMiter miter;
  std::size_t log_pos = 0;  ///< redirect_log() prefix already replayed
  /// Encoded redirected F nodes whose target is not encoded yet; each is
  /// asserted once a later batch encodes the target.
  std::vector<NodeId> pending;
};

}  // namespace

std::vector<ProvenEquiv> sweep_equivalences(const Network& net,
                                            const FraigParams& params,
                                            FraigStats* stats_out) {
  obs::Span sweep_span("sweep:equivalences");
  FraigStats stats;
  const std::size_t threads = ThreadPool::resolve_threads(params.num_threads);
  stats.num_threads = threads;
  stats.initial_gates = net.num_gates();

  // Nodes eligible as candidates: gates, and (unless include_dangling)
  // only those reachable from the POs -- merging a PO cone onto a dangling
  // representative would redirect onto logic the rebuild drops.  Either
  // way the set is closed under fanins, so F can be built from it alone.
  std::vector<std::uint8_t> eligible(net.size(), 0);
  if (params.include_dangling) {
    for (NodeId n = 1; n < net.size(); ++n) eligible[n] = net.is_gate(n);
  } else {
    for (const NodeId n : topo_order(net)) eligible[n] = net.is_gate(n);
  }
  // Topological waves: eligible gates bucketed by level, ascending ids
  // within a level (gates have level >= 1; wave 0 holds no gates).
  std::vector<std::vector<NodeId>> wave_nodes(1);
  for (NodeId n = 1; n < net.size(); ++n) {
    if (!eligible[n]) continue;
    const std::uint32_t l = net.level(n);
    if (l >= wave_nodes.size()) wave_nodes.resize(l + 1);
    wave_nodes[l].push_back(n);
  }

  const int max_rounds = std::max(1, params.max_rounds);
  RandomSimulation sim(
      net, params.sim_words, params.sim_seed, params.num_threads,
      /*reserve_extra_words=*/
      max_rounds <= 4 ? max_rounds * kMaxCexWordsPerRound : kMaxReserveWords);

  std::vector<ProvenEquiv> proven;
  // proven_at[n] = index into `proven` of n's equality, or -1.
  std::vector<std::int32_t> proven_at(net.size(), -1);
  // Pairs that hit the conflict limit are never retried: refinement cannot
  // change a class that produced no counterexample.
  std::unordered_set<std::uint64_t> unknown_pairs;
  const auto pair_key = [](const Candidate& c) {
    return (static_cast<std::uint64_t>(c.member) << 32) | c.repr;
  };
  // A pair is decided in the wave where both of its nodes exist in F.
  const auto wave_of = [&](NodeId a, NodeId b) {
    return std::max(net.level(a), net.level(b));
  };
  static obs::Counter& sat_calls = obs::counter("sweep.sat_calls");
  static obs::Counter& conflicts = obs::counter("sweep.conflicts");
  static obs::Counter& cascades = obs::counter("sweep.cascade_asserts");
  static obs::Counter& waves_run = obs::counter("sweep.waves");

  for (int round = 0; round < max_rounds; ++round) {
    // --- 1. candidate classes from the current signatures ----------------
    std::vector<Candidate> pairs;
    {
      const int words = sim.num_words();
      // (class key, node) sorted: a class is a run of equal keys, its
      // members in ascending id order.
      std::vector<std::pair<std::uint64_t, NodeId>> keyed;
      for (NodeId n = 1; n < net.size(); ++n) {
        if (!eligible[n] || proven_at[n] >= 0) continue;
        const std::uint64_t* w = sim.node_values(n);
        if (params.sweep_constants) {
          // All-0 / all-1 values: candidate for the constant class.  The
          // node still joins its signature group below -- if the constant
          // proof hits the conflict limit, the node-vs-node pair may still
          // be provable (near-identical cones make easy miters), so
          // routing constants exclusively would lose merges.
          if (words_are(w, words, 0ull)) {
            pairs.push_back({n, 0, false});
          } else if (words_are(w, words, ~0ull)) {
            pairs.push_back({n, 0, true});
          }
        }
        const std::uint64_t h0 = sim.signature(Signal(n, false));
        const std::uint64_t h1 = sim.signature(Signal(n, true));
        keyed.push_back({std::min(h0, h1), n});
      }
      std::sort(keyed.begin(), keyed.end());
      for (std::size_t begin = 0, end = 0; begin < keyed.size();
           begin = end) {
        while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
          ++end;
        }
        // Smallest id is the representative: every merge then points from
        // a later node to an earlier one, so redirections never chase
        // chains or create cycles.
        const NodeId repr = keyed[begin].second;
        for (std::size_t i = begin + 1; i < end; ++i) {
          const NodeId m = keyed[i].second;
          // Establish the phase from the values; signature collisions are
          // filtered here (values must match exactly in one phase).
          bool phase;
          if (sim.values_equal(Signal(m, false), Signal(repr, false))) {
            phase = false;
          } else if (sim.values_equal(Signal(m, false), Signal(repr, true))) {
            phase = true;
          } else {
            continue;
          }
          pairs.push_back({m, repr, phase});
        }
      }
    }
    // (member, repr) order is the canonical pair order: a member appears in
    // at most two pairs (constant first -- repr 0 sorts lowest -- then its
    // class repr).
    std::sort(pairs.begin(), pairs.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.member != b.member ? a.member < b.member
                                            : a.repr < b.repr;
              });
    pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                               [&](const Candidate& c) {
                                 return unknown_pairs.count(pair_key(c)) > 0;
                               }),
                pairs.end());
    if (pairs.empty()) break;
    ++stats.num_rounds;

    // Bucket the pairs by wave (stable: canonical order within a wave), and
    // the equalities of earlier rounds whose representative is built after
    // their member (those are united once both exist).  Copied, not
    // pointed to: this round's merges grow `proven`.
    std::vector<std::vector<Candidate>> wave_pairs(wave_nodes.size());
    for (const Candidate& c : pairs) {
      wave_pairs[wave_of(c.member, c.repr)].push_back(c);
    }
    std::vector<std::vector<ProvenEquiv>> late_facts(wave_nodes.size());
    for (const ProvenEquiv& e : proven) {
      if (net.level(e.repr) > net.level(e.node)) {
        late_facts[net.level(e.repr)].push_back(e);
      }
    }
    std::size_t last_wave = 0;
    std::size_t num_built = 1 + net.num_pis();  // constant and PIs
    for (std::size_t l = 0; l < wave_pairs.size(); ++l) {
      if (!wave_pairs[l].empty()) last_wave = l;
    }
    for (std::size_t l = 1; l <= last_wave; ++l) {
      num_built += wave_nodes[l].size();
    }

    ReprNetwork F(net, num_built);
    std::vector<std::unique_ptr<ProofSlot>> slots;
    std::vector<std::vector<std::uint8_t>> cexes;  // harvested in pair order
    const std::size_t cex_cap =
        std::min(static_cast<std::size_t>(kMaxCexWordsPerRound),
                 static_cast<std::size_t>(sim.spare_words())) *
        64;
    const auto accept = [&](const Candidate& c) {
      proven_at[c.member] = static_cast<std::int32_t>(proven.size());
      proven.push_back({c.member, c.repr, c.phase});
      F.unite(F.sig(c.member), F.sig(c.repr) ^ c.phase);
    };
    const auto structurally_equal = [&](const Candidate& c) {
      return F.sig(c.member) == (F.sig(c.repr) ^ c.phase);
    };

    for (std::size_t wave = 1; wave <= last_wave; ++wave) {
      // --- 2a. extend F by this wave's nodes -----------------------------
      for (const NodeId n : wave_nodes[wave]) {
        const std::int32_t idx = proven_at[n];
        if (idx >= 0 && net.level(proven[idx].repr) <= wave) {
          F.alias(n, F.sig(proven[idx].repr) ^ proven[idx].phase);
        } else {
          F.build(n);
        }
      }
      for (const ProvenEquiv& e : late_facts[wave]) {
        F.unite(F.sig(e.node), F.sig(e.repr) ^ e.phase);
      }
      std::vector<Candidate>& cands = wave_pairs[wave];
      if (cands.empty()) continue;
      waves_run.increment();

      // --- 2b. structural proofs: the member strashed onto its head ------
      std::vector<Candidate> open;  // the wave's SAT pairs
      for (const Candidate& c : cands) {
        if (proven_at[c.member] >= 0) continue;  // already merged (constant)
        if (structurally_equal(c)) {
          accept(c);
          ++stats.num_struct_merged;
        } else if (stats.num_candidate_pairs + open.size() <
                   params.max_pairs) {  // overall proof budget
          open.push_back(c);
        }
      }
      if (open.empty()) continue;

      // --- 2c. parallel batched SAT on the read-only F --------------------
      // Batches are fixed-size slices of the wave's SAT pair list -- a
      // function of the candidates alone, never of the thread count --
      // batch b always runs on slot b, and results land in indexed slots,
      // so the outcome is identical for 1 and N threads (submit_bulk's
      // min-index determinism covers exceptions).
      const std::size_t num_batches =
          (open.size() + kPairBatch - 1) / kPairBatch;
      if (slots.size() < num_batches) slots.resize(num_batches);
      for (std::size_t b = 0; b < num_batches; ++b) {
        if (!slots[b] || slots[b]->miter.num_encoded() > kRecycleNodes) {
          slots[b] = std::make_unique<ProofSlot>(F.net());
        }
      }
      std::vector<PairResult> results(open.size());
      ThreadPool::global().submit_bulk(
          num_batches,
          [&](std::size_t b) {
            obs::Span batch_span("sweep:batch");
            // Propagates via the pool's min-index exception capture: the
            // whole fraig pass fails deterministically, never the process.
            fail::point("sweep.batch");
            const std::size_t begin = b * kPairBatch;
            const std::size_t end = std::min(open.size(), begin + kPairBatch);
            ProofSlot& slot = *slots[b];
            sat::IncrementalMiter& miter = slot.miter;
            const std::int64_t conflicts_before = miter.num_conflicts();
            // Assert the redirects whose both ends the slot encodes: F
            // nodes built before their merge still feed some fanouts, and
            // each redirect is a proven fact.  A redirect out of an encoded
            // node waits in `pending` until its target is encoded too;
            // cascade(n) returns true while n's redirect has to wait.
            std::uint64_t num_cascades = 0;
            const auto cascade = [&](NodeId n) {
              Signal to;
              if (!F.redirected(n, &to)) return false;
              if (!miter.encoded(to.node())) return true;
              miter.assert_equal(Signal(n, false), to);
              ++num_cascades;
              return false;
            };
            const std::vector<NodeId>& log = F.redirect_log();
            for (; slot.log_pos < log.size(); ++slot.log_pos) {
              const NodeId n = log[slot.log_pos];
              if (miter.encoded(n) && cascade(n)) slot.pending.push_back(n);
            }
            std::vector<Signal> queries;
            queries.reserve(2 * (end - begin));
            for (std::size_t i = begin; i < end; ++i) {
              queries.push_back(F.sig(open[i].member));
              queries.push_back(F.sig(open[i].repr) ^ open[i].phase);
            }
            const std::vector<NodeId> fresh = miter.encode(queries);
            std::size_t num_pending = 0;
            for (const NodeId n : slot.pending) {
              if (cascade(n)) slot.pending[num_pending++] = n;
            }
            slot.pending.resize(num_pending);
            for (const NodeId n : fresh) {
              if (cascade(n)) slot.pending.push_back(n);
            }
            for (std::size_t i = begin; i < end; ++i) {
              const Signal a = queries[2 * (i - begin)];
              const Signal b_sig = queries[2 * (i - begin) + 1];
              switch (miter.prove_equal(a, b_sig, params.conflict_limit)) {
                case sat::Result::kUnsat:
                  results[i].verdict = Verdict::kProven;
                  // In-slot cascading: deeper miters of this slot collapse.
                  miter.assert_equal(a, b_sig);
                  ++num_cascades;
                  break;
                case sat::Result::kSat: {
                  results[i].verdict = Verdict::kCex;
                  std::vector<std::uint8_t>& cex = results[i].cex;
                  cex.resize(net.num_pis());
                  for (std::size_t p = 0; p < net.num_pis(); ++p) {
                    cex[p] = miter.pi_model(p) ? 1 : 0;
                  }
                  break;
                }
                default:
                  results[i].verdict = Verdict::kUnknown;
                  break;
              }
            }
            // Flushed once per batch (owner-thread cells; cheap but tidy).
            sat_calls.add(end - begin);
            conflicts.add(static_cast<std::uint64_t>(miter.num_conflicts() -
                                                     conflicts_before));
            cascades.add(num_cascades);
          },
          threads);

      // --- 2d. ordered merge into F before the next wave -----------------
      for (std::size_t i = 0; i < open.size(); ++i) {
        const Candidate& c = open[i];
        ++stats.num_candidate_pairs;
        switch (results[i].verdict) {
          case Verdict::kProven:
            if (proven_at[c.member] >= 0) break;  // constant won already
            accept(c);
            ++stats.num_proven;
            break;
          case Verdict::kCex:
            ++stats.num_disproven;
            if (cexes.size() < cex_cap) {
              cexes.push_back(std::move(results[i].cex));
            }
            break;
          case Verdict::kUnknown:
            ++stats.num_unknown;
            unknown_pairs.insert(pair_key(c));
            break;
        }
      }
    }

    // --- 3. counterexample refinement ------------------------------------
    if (cexes.empty()) {
      // Fixpoint, or the word reserve ran dry: no class can refine
      // further -- everything left is merged or permanently undecided.
      break;
    }
    if (round + 1 == max_rounds) break;  // nobody would consume the words
    // Pack the counterexamples 64 per word (bit j of word w = pattern
    // w*64+j; unused bits stay 0 -- the all-zero input is just one more
    // valid simulation vector) and re-simulate all new words in one
    // incremental sweep.
    const std::size_t num_new_words = (cexes.size() + 63) / 64;
    std::vector<std::uint64_t> pi_words(num_new_words * net.num_pis(), 0ull);
    for (std::size_t k = 0; k < cexes.size(); ++k) {
      const std::vector<std::uint8_t>& cex = cexes[k];
      std::uint64_t* words = pi_words.data() + (k / 64) * net.num_pis();
      for (std::size_t p = 0; p < net.num_pis(); ++p) {
        if (cex[p]) words[p] |= 1ull << (k % 64);
      }
    }
    sim.add_pattern_words(pi_words, static_cast<int>(num_new_words));
    stats.num_patterns_added += num_new_words;
    obs::counter("sweep.cex_words").add(num_new_words);
  }
  obs::counter("sweep.proven").add(stats.num_proven);
  obs::counter("sweep.struct_merged").add(stats.num_struct_merged);
  obs::counter("sweep.disproven").add(stats.num_disproven);
  obs::counter("sweep.unknown").add(stats.num_unknown);
  obs::counter("sweep.rounds").add(stats.num_rounds);

  // Canonical order for consumers (rounds and waves interleave ids).
  std::sort(proven.begin(), proven.end(),
            [](const ProvenEquiv& a, const ProvenEquiv& b) {
              return a.node < b.node;
            });
  if (stats_out) *stats_out = stats;
  return proven;
}

Network fraig(const Network& net, const FraigParams& params,
              FraigStats* stats_out) {
  FraigStats stats;
  const std::vector<ProvenEquiv> proven =
      sweep_equivalences(net, params, &stats);

  // merge[n] = (target, phase): n is functionally target ^ phase.  A
  // target (class minimum) can itself be merged only onto the constant
  // node; the ascending-id rebuild below resolves such one-level chains
  // naturally (map[target] is final before any member reads it).
  std::vector<std::pair<NodeId, bool>> merge(net.size(), {kNullNode, false});
  for (const ProvenEquiv& e : proven) merge[e.node] = {e.repr, e.phase};

  // Rebuild, redirecting merged nodes; the strash rewires the fanouts.
  // Ascending node ids are a valid topological order in a strashed Network
  // AND guarantee every merge target (repr < node) is rebuilt before its
  // members -- a DFS post-order from the POs guarantees neither for
  // representatives living in a different PO cone.  Dangling nodes rebuilt
  // along the way are dropped by the cleanup below.
  Network dst;
  dst.reserve(net.size());
  std::vector<Signal> map(net.size());
  map[0] = dst.constant(false);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = dst.create_pi(net.pi_name(i));
  }
  for (NodeId n = 1; n < net.size(); ++n) {
    if (!net.is_gate(n)) continue;
    if (merge[n].first != kNullNode) {
      map[n] = map[merge[n].first] ^ merge[n].second;
      continue;
    }
    const Node& nd = net.node(n);
    std::array<Signal, 3> in{};
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = map[nd.fanin[i].node()] ^ nd.fanin[i].complemented();
    }
    map[n] = dst.create_gate(nd.type, in);
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = net.po_at(i);
    dst.create_po(map[s.node()] ^ s.complemented(), net.po_name(i));
  }
  Network result = cleanup(dst);
  stats.final_gates = result.num_gates();
  if (stats_out) *stats_out = stats;
  return result;
}

}  // namespace mcs
