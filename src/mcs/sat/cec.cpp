#include "mcs/sat/cec.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <vector>

#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"

namespace mcs {

namespace {

/// PO pairs per proof batch of the final stage (one IncrementalMiter each).
constexpr std::size_t kPoPairBatch = 8;

/// Copies the PO cones of \p src into \p dst over the PI signals \p pis and
/// appends the copied POs to \p dst.
void append_cones(const Network& src, Network& dst,
                  const std::vector<Signal>& pis) {
  std::vector<Signal> map(src.size());
  map[0] = dst.constant(false);
  for (std::size_t i = 0; i < src.num_pis(); ++i) map[src.pi_at(i)] = pis[i];
  for (const NodeId n : topo_order(src)) {
    if (!src.is_gate(n)) continue;
    const Node& nd = src.node(n);
    std::array<Signal, 3> in{};
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = map[nd.fanin[i].node()] ^ nd.fanin[i].complemented();
    }
    map[n] = dst.create_gate(nd.type, in);
  }
  for (const Signal s : src.pos()) {
    dst.create_po(map[s.node()] ^ s.complemented());
  }
}

CecResult to_cec(sat::Result r) {
  switch (r) {
    case sat::Result::kUnsat:
      return CecResult::kEquivalent;
    case sat::Result::kSat:
      return CecResult::kNotEquivalent;
    default:
      return CecResult::kUnknown;
  }
}

}  // namespace

CecResult check_equivalence(const Network& a, const Network& b,
                            const CecOptions& opts) {
  assert(a.num_pis() == b.num_pis());
  assert(a.num_pos() == b.num_pos());
  obs::Span cec_span("cec:check");
  obs::counter("cec.checks").increment();
  const std::size_t threads = ThreadPool::resolve_threads(opts.num_threads);

  // 1. Random-simulation falsification (level-blocked parallel; PI words
  // are seed-derived per interface index, so both networks see the same
  // vectors and any thread count sees the same values).
  if (sim_falsify(a, b, opts.sim_words, opts.sim_seed, opts.num_threads) >=
      0) {
    obs::counter("cec.sim_refuted").increment();
    return CecResult::kNotEquivalent;
  }

  // 2. One strashed miter with shared PIs: a's POs, then b's.
  const std::size_t num_pos = a.num_pos();
  Network miter;
  miter.reserve(a.size() + b.size());
  std::vector<Signal> pis;
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    pis.push_back(miter.create_pi());
  }
  append_cones(a, miter, pis);
  append_cones(b, miter, pis);

  // 3. Sweep it: the cascading engine merges every internal equivalence it
  // can prove within the engine's per-pair budget (never more than the
  // caller's), and the rebuild strashes the merged miter.
  FraigParams fp;
  fp.num_threads = opts.num_threads;
  fp.sim_words = opts.sim_words;
  fp.sim_seed = opts.sim_seed;
  if (opts.conflict_limit >= 0) {
    fp.conflict_limit = std::min(fp.conflict_limit, opts.conflict_limit);
  }
  const Network swept = fraig(miter, fp);

  // 4. Prove the PO pairs the sweep left apart, in fixed batches.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < num_pos; ++i) {
    if (swept.po_at(i) != swept.po_at(num_pos + i)) open.push_back(i);
  }
  static obs::Counter& po_proofs = obs::counter("cec.po_proofs");
  static obs::Counter& batches_run = obs::counter("cec.batches");
  po_proofs.add(open.size());
  // Each batch solves every pair unless one is refuted; the verdict merge
  // is order-independent (SAT dominates Unknown), and the batches depend
  // on the open list alone, so the verdict is thread-count independent
  // under any conflict budget.
  const std::size_t num_batches =
      (open.size() + kPoPairBatch - 1) / kPoPairBatch;
  std::atomic<bool> found_sat{false};
  std::atomic<bool> found_unknown{false};
  ThreadPool::global().submit_bulk(
      num_batches,
      [&](std::size_t batch) {
        obs::Span batch_span("cec:batch");
        batches_run.increment();
        const std::size_t begin = batch * kPoPairBatch;
        const std::size_t end = std::min(open.size(), begin + kPoPairBatch);
        sat::IncrementalMiter m(swept);
        for (std::size_t k = begin; k < end; ++k) {
          const Signal x = swept.po_at(open[k]);
          const Signal y = swept.po_at(num_pos + open[k]);
          switch (m.prove_equal(x, y, opts.conflict_limit)) {
            case sat::Result::kUnsat:
              m.assert_equal(x, y);
              break;
            case sat::Result::kSat:
              found_sat.store(true, std::memory_order_relaxed);
              return;
            default:
              found_unknown.store(true, std::memory_order_relaxed);
              break;
          }
        }
      },
      threads);
  if (found_sat.load()) return CecResult::kNotEquivalent;
  if (found_unknown.load()) return CecResult::kUnknown;
  return CecResult::kEquivalent;
}

CecResult check_signals_equivalent(const Network& net, Signal x, Signal y,
                                   const CecOptions& opts) {
  if (x == y) return CecResult::kEquivalent;

  {
    RandomSimulation sim(net, opts.sim_words, opts.sim_seed, opts.num_threads);
    if (!sim.values_equal(x, y)) return CecResult::kNotEquivalent;
  }

  sat::IncrementalMiter m(net);
  return to_cec(m.prove_equal(x, y, opts.conflict_limit));
}

}  // namespace mcs
