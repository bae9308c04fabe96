#include "mcs/tt/npn.hpp"

#include <algorithm>
#include <vector>

namespace mcs {

namespace {

/// Calls fn(t) for every NPN transform of \p num_vars variables in the
/// fixed enumeration order: permutations of the first num_vars positions
/// (std::next_permutation), then input flips 0..2^n-1, then output flip.
template <typename Fn>
void for_each_npn_transform(int num_vars, const Fn& fn) {
  std::array<int, 6> p{0, 1, 2, 3, 4, 5};
  do {
    for (std::uint32_t flips = 0; flips < (1u << num_vars); ++flips) {
      for (int out = 0; out < 2; ++out) {
        NpnTransform t;
        t.num_vars = num_vars;
        t.perm = p;
        t.flips = flips;
        t.out_flip = (out == 1);
        fn(t);
      }
    }
  } while (std::next_permutation(p.begin(), p.begin() + num_vars));
}

/// The npn4_canonicalize table, built by orbits instead of by 65,536
/// exhaustive searches.  The exhaustive search returns the orbit minimum c
/// and the *first* transform T (in enumeration order) with T(g) == c, i.e.
/// g == T^-1(c).  So: find the class minima, then walk the transforms in
/// order and give every not-yet-reached T^-1(c) the entry (c, T).
std::vector<NpnCanonResult> build_npn4_table() {
  constexpr std::uint32_t kFuncs = 1u << 16;
  std::vector<NpnTransform> transforms;
  for_each_npn_transform(4, [&](const NpnTransform& t) {
    transforms.push_back(t);
  });

  // Scanning upward, the first function not in an earlier orbit is the
  // minimum of its own orbit.
  std::vector<bool> seen(kFuncs, false);
  std::vector<Tt6> minima;
  for (std::uint32_t f = 0; f < kFuncs; ++f) {
    if (seen[f]) continue;
    const Tt6 c = tt6_replicate(f, 4);
    minima.push_back(c);
    for (const NpnTransform& t : transforms) seen[t.apply(c) & 0xffff] = true;
  }

  std::vector<NpnCanonResult> table(kFuncs);  // num_vars 0 = not reached
  for (const NpnTransform& t : transforms) {
    std::array<int, 6> inverse{0, 1, 2, 3, 4, 5};
    for (int i = 0; i < 4; ++i) inverse[t.perm[i]] = i;
    for (const Tt6 c : minima) {
      Tt6 g = tt6_permute(t.out_flip ? ~c : c, inverse, 4);
      for (int v = 0; v < 4; ++v) {
        if (t.flips & (1u << v)) g = tt6_flip_var(g, v);
      }
      NpnCanonResult& entry = table[g & 0xffff];
      if (entry.transform.num_vars == 0) entry = NpnCanonResult{c, t};
    }
  }
  return table;
}

}  // namespace

NpnCanonResult npn_canonicalize_exact(Tt6 f, int num_vars) {
  f = tt6_replicate(f, num_vars);

  NpnCanonResult best;
  best.canon = ~0ull;
  bool first = true;
  for_each_npn_transform(num_vars, [&](const NpnTransform& t) {
    const Tt6 image = t.apply(f) & tt6_mask(num_vars);
    if (first || image < (best.canon & tt6_mask(num_vars))) {
      first = false;
      best.canon = tt6_replicate(image, num_vars);
      best.transform = t;
    }
  });
  return best;
}

NpnMatch npn_match(const NpnTransform& tf, const NpnTransform& tg) noexcept {
  const int n = tf.num_vars;
  // Inverse of g's permutation: where did cell variable j end up?
  std::array<int, 6> g_inv{0, 1, 2, 3, 4, 5};
  for (int i = 0; i < n; ++i) g_inv[tg.perm[i]] = i;

  NpnMatch m;
  for (int j = 0; j < n; ++j) {
    const int leaf = tf.perm[g_inv[j]];
    m.pin_to_leaf[j] = leaf;
    const bool neg = ((tf.flips >> leaf) & 1u) != ((tg.flips >> j) & 1u);
    if (neg) m.pin_negation |= (1u << j);
  }
  m.output_negation = tf.out_flip != tg.out_flip;
  return m;
}

const NpnCanonResult& npn4_canonicalize(Tt6 f) {
  static const std::vector<NpnCanonResult> table = build_npn4_table();
  return table[f & tt6_mask(4)];
}

}  // namespace mcs
