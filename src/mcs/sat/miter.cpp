#include "mcs/sat/miter.hpp"

#include <algorithm>

namespace mcs::sat {

void IncrementalMiter::encode(Signal s) {
  if (encoded(s.node())) return;
  encode(std::vector<Signal>{s});
}

std::vector<NodeId> IncrementalMiter::encode(
    const std::vector<Signal>& roots) {
  // Own scratch rather than the network's shared traversal marks, so
  // concurrent miters over one network -- the parallel proof batches --
  // are safe.  The traversal stops at encoded nodes, so a miter that lives
  // across many queries pays for each node once.
  cnf_.grow(net_.size());
  if (seen_.size() < net_.size()) seen_.resize(net_.size(), 0);
  std::vector<NodeId> fresh;
  std::vector<NodeId> stack;
  const auto push = [&](NodeId n) {
    if (cnf_.has_var(n) || seen_[n]) return;
    seen_[n] = 1;
    stack.push_back(n);
    fresh.push_back(n);
  };
  for (const Signal s : roots) push(s.node());
  while (!stack.empty()) {
    const Node& nd = net_.node(stack.back());
    stack.pop_back();
    for (int i = 0; i < nd.num_fanins; ++i) push(nd.fanin[i].node());
  }
  for (const NodeId n : fresh) seen_[n] = 0;
  // Ascending ids make the variable numbering deterministic and encode
  // fanins before their fanouts.
  std::sort(fresh.begin(), fresh.end());
  num_encoded_ += fresh.size();
  for (const NodeId n : fresh) {
    // Variables are only ever created here, together with the node's
    // clauses, so has_var(n) implies n is fully encoded.
    const Var v = solver_.new_var();
    cnf_.set_var(n, v);
    if (net_.is_const0(n)) {
      solver_.add_clause(mk_lit(v, true));
      continue;
    }
    if (!net_.is_gate(n)) continue;  // PI: free variable
    const Node& nd = net_.node(n);
    encode_gate(solver_, nd.type, mk_lit(v), cnf_.lit(nd.fanin[0]),
                cnf_.lit(nd.fanin[1]),
                nd.num_fanins == 3 ? cnf_.lit(nd.fanin[2]) : Lit{0});
  }
  return fresh;
}

Result IncrementalMiter::prove_equal(Signal a, Signal b,
                                     std::int64_t conflict_limit) {
  encode(a);
  encode(b);
  const Lit la = cnf_.lit(a);
  const Lit lb = cnf_.lit(b);
  const Var t = solver_.new_var();
  const Lit lt = mk_lit(t);
  // t -> (a != b): asserting t makes the solver search a distinguishing
  // input.
  solver_.add_clause(negate(lt), la, lb);
  solver_.add_clause(negate(lt), negate(la), negate(lb));
  const Result r = solver_.solve({lt}, conflict_limit);
  // Retire the activation literal: the two clauses above become satisfied
  // and learnt clauses mentioning t stay consistent, so this query can
  // never slow a later one down.  (Sound for every outcome -- t is
  // auxiliary.)
  solver_.add_clause(negate(lt));
  return r;
}

void IncrementalMiter::assert_equal(Signal a, Signal b) {
  encode(a);
  encode(b);
  const Lit la = cnf_.lit(a);
  const Lit lb = cnf_.lit(b);
  solver_.add_clause(negate(la), lb);
  solver_.add_clause(la, negate(lb));
}

bool IncrementalMiter::pi_model(std::size_t i) const noexcept {
  const NodeId pi = net_.pi_at(i);
  if (!encoded(pi)) return false;
  return solver_.model_value(cnf_.var_of_node(pi));
}

}  // namespace mcs::sat
