/// Microbenchmarks for the core kernels: structural hashing, truth-table
/// ops, NPN canonicalization, cut enumeration, random simulation, SAT
/// solving, MCH construction and both mappers.
///
/// Two modes:
///   - `bench_micro` (google-benchmark, when the library is available):
///     the statistical microbench suite, incl. --benchmark_min_time etc.
///   - `bench_micro --json[=PATH]`: the perf-baseline kernel suite -- a
///     fixed set of hand-timed kernels (best of N repetitions) emitted as
///     one JSON object per line (see bench_util::JsonLine), appended to
///     PATH (default BENCH_kernel.json).  This output is the input of
///     bench/compare_bench.py and the committed perf trajectory; it also
///     serves as the fallback main when google-benchmark is absent.
///     `--json-par[=PATH]` and `--json-sweep[=PATH]` run the thread-scaling
///     suites (parallel drivers / the fraig engine) the same way.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/common/rng.hpp"
#include "mcs/cut/enumeration.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/resyn/npn_db.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"
#include "mcs/tt/npn.hpp"

namespace {

using namespace mcs;

const Network& medium_circuit() {
  static const Network net = expand_to_aig(circuits::multiplier(8));
  return net;
}

const Network& large_circuit() {
  static const Network net = expand_to_aig(circuits::multiplier(64));
  return net;
}

// --- perf-baseline kernel suite ---------------------------------------------

/// Times fn() `reps` times and returns the best (minimum) seconds.
template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    bench::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

void run_kernel_suite(const char* path) {
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(stderr, "bench_micro: kernel suite -> %s\n", path);

  {
    // Steady-state per-pass enumeration (reset + run), exactly how the
    // mappers drive the kernel across their recovery passes.
    const Network& net = large_circuit();
    const auto order = topo_order(net);
    CutEnumerator cuts(net, {.cut_size = 6, .cut_limit = 8});
    std::size_t cuts_total = 0;
    bench::MetricsWindow window;
    const double s = best_of(5, [&] {
      cuts.reset();
      cuts.run(order);
      cuts_total = cuts.total_cuts();
    });
    bench::JsonLine("cut_enum_mult64_k6", out)
        .field("seconds", s)
        .field("gates", net.num_gates())
        .field("cuts", cuts_total)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s)
        .object("metrics", window.delta_json());
  }
  {
    // Batched: one run is ~0.4 ms, too short for a stable reading.
    constexpr int kBatch = 50;
    const Network& net = medium_circuit();
    const auto order = topo_order(net);
    CutEnumerator cuts(net, {.cut_size = 4, .cut_limit = 8});
    const double s = best_of(5, [&] {
      for (int i = 0; i < kBatch; ++i) {
        cuts.reset();
        cuts.run(order);
      }
    }) / kBatch;
    bench::JsonLine("cut_enum_mult8_k4", out)
        .field("seconds", s)
        .field("gates", net.num_gates())
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    constexpr int kOps = 500000;
    bench::MetricsWindow window;
    const double s = best_of(7, [&] {
      Network net;
      Rng rng(7);
      std::vector<Signal> pool;
      for (int i = 0; i < 64; ++i) pool.push_back(net.create_pi());
      for (int i = 0; i < kOps; ++i) {
        const Signal a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
        const Signal b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
        pool.push_back(net.create_and(a, b));
      }
    });
    bench::JsonLine("strash_insert", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(kOps) / s)
        .object("metrics", window.delta_json());
  }
  {
    // Hit-path lookups: every gate of the large circuit resolved again
    // (batched for a stable reading).
    constexpr int kBatch = 20;
    const Network& net = large_circuit();
    std::size_t hits = 0;
    bench::MetricsWindow window;
    const double s = best_of(5, [&] {
      hits = 0;
      for (int i = 0; i < kBatch; ++i) {
        for (NodeId n = 0; n < net.size(); ++n) {
          if (!net.is_gate(n)) continue;
          const Node& nd = net.node(n);
          hits += net.lookup_gate(nd.type, nd.fanin) == n;
        }
      }
    }) / kBatch;
    bench::JsonLine("strash_lookup", out)
        .field("seconds", s)
        .field("hits", hits / kBatch)
        .field("items_per_sec",
               static_cast<double>(hits / kBatch) / s)
        .object("metrics", window.delta_json());
  }
  {
    const Network& net = medium_circuit();
    std::size_t luts = 0;
    const double s = best_of(5, [&] {
      LutMapStats stats;
      const LutNetwork l = lut_map(net, {}, &stats);
      luts = l.size();
    });
    bench::JsonLine("lut_map_mult8", out)
        .field("seconds", s)
        .field("luts", luts)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    const Network& net = medium_circuit();
    const TechLibrary lib = TechLibrary::asap7_mini();
    const double s = best_of(2, [&] {
      AsicMapParams p;
      asic_map(net, lib, p);
    });
    bench::JsonLine("asic_map_mult8", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    const Network& net = medium_circuit();
    const double s = best_of(2, [&] {
      MchParams params;
      params.candidate_basis = GateBasis::xmg();
      build_mch(net, params);
    });
    bench::JsonLine("mch_mult8", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  std::fclose(out);
}

// --- par_scaling suite ------------------------------------------------------

/// Thread-scaling suite over the end-to-end parallel paths: sharded
/// compress2rs (par_run), par_map_lut, CEC and random simulation on the
/// 64-bit multiplier at 1/2/4/8 threads.  One JSON line per (bench,
/// threads) pair carrying seconds, speedup vs the run's own 1-thread time,
/// a determinism check against the 1-thread result, and the machine's
/// hardware concurrency (committed baselines from small machines are
/// flagged, not trusted).  MCS_PAR_BENCH_BITS shrinks the multiplier for
/// CI smoke runs.
void run_par_suite(const char* path) {
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  int bits = 64;
  if (const char* env = std::getenv("MCS_PAR_BENCH_BITS")) {
    const int v = std::atoi(env);
    if (v >= 4 && v <= 128) bits = v;
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr,
               "bench_micro: par_scaling suite (multiplier %d, hardware "
               "concurrency %zu) -> %s\n",
               bits, hw, path);
  const Network net = expand_to_aig(circuits::multiplier(bits));
  const std::string circuit = "multiplier" + std::to_string(bits);
  const int thread_counts[] = {1, 2, 4, 8};

  auto emit = [&](const char* bench, int threads, double seconds,
                  double base_seconds, bool deterministic) {
    bench::JsonLine(bench, out)
        .field("circuit", circuit)
        .field("threads", threads)
        .field("seconds", seconds)
        .field("speedup", seconds > 0.0 ? base_seconds / seconds : 0.0)
        .field("deterministic", deterministic)
        .field("hardware_threads", static_cast<std::size_t>(hw));
  };

  // Sharded compress2rs rewrites against the XMG area database.  Build it
  // (and the NPN-4 table) untimed, so the one-time build stays out of the
  // 1-thread anchor row.
  (void)NpnDatabase::shared(GateBasis::xmg(), NpnDatabase::Objective::kArea);
  {
    Network reference;
    double base = 0.0;
    for (const int t : thread_counts) {
      ParParams params;
      params.num_threads = t;
      params.partition.max_gates = 2000;
      Network result;
      const double s = best_of(3, [&] {
        result = par_run(
            net,
            [](const Network& shard) {
              return compress2rs_like(shard, GateBasis::xmg(), 1);
            },
            params);
      });
      if (t == 1) {
        base = s;
        reference = result;
      }
      emit("par_opt_mult", t, s, base, structurally_identical(result, reference));
    }
  }
  {
    LutNetwork reference;
    double base = 0.0;
    for (const int t : thread_counts) {
      ParParams params;
      params.num_threads = t;
      params.partition.max_gates = 2000;
      LutNetwork luts;
      const double s =
          best_of(3, [&] { luts = par_map_lut(net, {}, params); });
      if (t == 1) {
        base = s;
        reference = luts;
      }
      emit("par_map_lut_mult", t, s, base, luts == reference);
    }
  }
  {
    // Parallel CEC: ripple vs balanced adder, the classic tractable miter.
    // Stage 1 is the level-blocked parallel simulation, then the parallel
    // sweep of the strashed miter and the batched proofs of any PO pairs
    // it leaves apart (4*bits+1 POs).
    const Network ripple = expand_to_aig(circuits::adder(4 * bits));
    const Network balanced = balance(ripple);
    const std::string cec_circuit = "adder" + std::to_string(4 * bits);
    double base = 0.0;
    CecResult reference = CecResult::kUnknown;
    for (const int t : thread_counts) {
      CecOptions opts;
      opts.num_threads = t;
      CecResult r = CecResult::kUnknown;
      const double s =
          best_of(2, [&] { r = check_equivalence(ripple, balanced, opts); });
      if (t == 1) {
        base = s;
        reference = r;
      }
      bench::JsonLine("cec_adder", out)
          .field("circuit", cec_circuit)
          .field("threads", t)
          .field("seconds", s)
          .field("speedup", s > 0.0 ? base / s : 0.0)
          .field("deterministic", r == reference)
          .field("equivalent", r == CecResult::kEquivalent)
          .field("hardware_threads", static_cast<std::size_t>(hw));
    }
  }
  {
    // The raw level-blocked simulation sweep (64 words per node).
    std::uint64_t ref_sig = 0;
    double base = 0.0;
    for (const int t : thread_counts) {
      std::uint64_t sig = 0;
      const double s = best_of(3, [&] {
        RandomSimulation sim(net, 64, 0xbeef, t);
        sig = sim.signature(net.po_at(net.num_pos() - 1));
      });
      if (t == 1) {
        base = s;
        ref_sig = sig;
      }
      emit("sim_mult", t, s, base, sig == ref_sig);
    }
  }
  std::fclose(out);
}

// --- sweep scaling suite ----------------------------------------------------

/// Thread-scaling suite over the SAT-sweeping engine: fraig on the 64-bit
/// multiplier at 1/2/4/8 threads (one JSON line each, with speedup vs the
/// run's own 1-thread time and a bit-identity determinism check) plus the
/// serial `sweep()` entry point as the reference row, and the
/// proof-heavy workload -- a 256-bit AIG-vs-XMG adder miter whose hundreds
/// of locally-provable pairs must collapse every PO to constant 0.
/// MCS_SWEEP_BENCH_BITS shrinks the multiplier for CI smoke runs.
void run_sweep_suite(const char* path) {
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  int bits = 64;
  if (const char* env = std::getenv("MCS_SWEEP_BENCH_BITS")) {
    const int v = std::atoi(env);
    if (v >= 4 && v <= 128) bits = v;
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr,
               "bench_micro: sweep scaling suite (multiplier %d, hardware "
               "concurrency %zu) -> %s\n",
               bits, hw, path);
  const Network net = expand_to_aig(circuits::multiplier(bits));
  const std::string circuit = "multiplier" + std::to_string(bits);

  // The serial entry point (sweep() is fraig at the default FraigParams):
  // the reference both for time and for the gate-count
  // acceptance bar (fraig must never end up worse).
  std::size_t legacy_gates = 0;
  {
    double s = 0.0;
    bench::MetricsWindow window;
    {
      bench::Timer timer;
      const Network legacy = sweep(net);
      s = timer.seconds();
      legacy_gates = legacy.num_gates();
    }
    bench::JsonLine("sweep_legacy_mult", out)
        .field("circuit", circuit)
        .field("seconds", s)
        .field("gates", legacy_gates)
        .field("hardware_threads", static_cast<std::size_t>(hw))
        .object("metrics", window.delta_json());
  }

  Network reference;
  double base = 0.0;
  for (const int t : {1, 2, 4, 8}) {
    FraigParams params;
    params.num_threads = t;
    FraigStats stats;
    bench::MetricsWindow window;
    bench::Timer timer;
    const Network result = fraig(net, params, &stats);
    const double s = timer.seconds();
    if (t == 1) {
      base = s;
      reference = result;
    }
    bench::JsonLine("fraig_mult", out)
        .field("circuit", circuit)
        .field("threads", t)
        .field("seconds", s)
        .field("speedup", s > 0.0 ? base / s : 0.0)
        .field("deterministic", structurally_identical(result, reference))
        .field("gates", result.num_gates())
        .field("not_worse_than_legacy", result.num_gates() <= legacy_gates)
        .field("proven", stats.num_proven)
        .field("rounds", stats.num_rounds)
        .field("hardware_threads", static_cast<std::size_t>(hw))
        .object("metrics", window.delta_json());
  }

  // The proof-heavy workload: both 256-bit adder forms in one network,
  // POs pairwise XORed.  Every carry/sum pair is locally provable, so the
  // engine cascades through hundreds of miters and every PO collapses to
  // constant 0 (checked per row as `collapsed`).
  {
    const Network xmg = circuits::adder(256);
    const Network aig = expand_to_aig(xmg);
    Network miter;
    std::vector<Signal> pis;
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
      pis.push_back(miter.create_pi());
    }
    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
      const Signal pa = copy_cone(aig, miter, aig.po_at(i), pis);
      const Signal pb = copy_cone(xmg, miter, xmg.po_at(i), pis);
      miter.create_po(miter.create_xor(pa, pb));
    }
    Network miter_reference;
    double miter_base = 0.0;
    for (const int t : {1, 2, 4, 8}) {
      FraigParams params;
      params.num_threads = t;
      FraigStats stats;
      bench::MetricsWindow window;
      bench::Timer timer;
      const Network result = fraig(miter, params, &stats);
      const double s = timer.seconds();
      if (t == 1) {
        miter_base = s;
        miter_reference = result;
      }
      bench::JsonLine("fraig_adder_miter", out)
          .field("circuit", std::string("adder256_aig_vs_xmg"))
          .field("threads", t)
          .field("seconds", s)
          .field("speedup", s > 0.0 ? miter_base / s : 0.0)
          .field("deterministic",
                 structurally_identical(result, miter_reference))
          .field("collapsed", result.num_gates() == 0)
          .field("proven", stats.num_proven)
          .field("hardware_threads", static_cast<std::size_t>(hw))
          .object("metrics", window.delta_json());
    }
  }
  std::fclose(out);
}

/// Returns the --json[=PATH] argument value, or nullptr when absent.
const char* json_mode_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return "BENCH_kernel.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return nullptr;
}

/// Returns the --json-par[=PATH] argument value, or nullptr when absent.
const char* json_par_mode_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-par") == 0) return "BENCH_par.json";
    if (std::strncmp(argv[i], "--json-par=", 11) == 0) return argv[i] + 11;
  }
  return nullptr;
}

/// Returns the --json-sweep[=PATH] argument value, or nullptr when absent.
const char* json_sweep_mode_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-sweep") == 0) return "BENCH_sweep.json";
    if (std::strncmp(argv[i], "--json-sweep=", 13) == 0) return argv[i] + 13;
  }
  return nullptr;
}

}  // namespace

// --- google-benchmark suite -------------------------------------------------

#ifdef MCS_HAVE_GBENCH

#include <benchmark/benchmark.h>

namespace {

void BM_Strash(benchmark::State& state) {
  for (auto _ : state) {
    Network net;
    Rng rng(7);
    std::vector<Signal> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(net.create_pi());
    for (int i = 0; i < 2000; ++i) {
      const Signal a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
      const Signal b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
      pool.push_back(net.create_and(a, b));
    }
    benchmark::DoNotOptimize(net.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_Strash);

void BM_StrashLookup(benchmark::State& state) {
  const Network& net = medium_circuit();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (!net.is_gate(n)) continue;
      const Node& nd = net.node(n);
      hits += net.lookup_gate(nd.type, nd.fanin) == n;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_StrashLookup);

void BM_NpnCanonExact4(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        npn_canonicalize_exact(tt6_replicate(rng.next(), 4), 4));
  }
}
BENCHMARK(BM_NpnCanonExact4);

void BM_NpnCanonCached(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(npn4_canonicalize(rng.next()));
  }
}
BENCHMARK(BM_NpnCanonCached);

void BM_CutEnumeration(benchmark::State& state) {
  const Network& net = medium_circuit();
  const auto order = topo_order(net);
  CutEnumerator cuts(net, {.cut_size = static_cast<int>(state.range(0)),
                           .cut_limit = 8});
  for (auto _ : state) {
    cuts.reset();
    cuts.run(order);
    benchmark::DoNotOptimize(cuts.total_cuts());
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_CutEnumeration)->Arg(4)->Arg(6);

void BM_CutEnumerationMult64(benchmark::State& state) {
  // The acceptance kernel of the arena/devirtualization work: k=6
  // enumeration over the 64-bit multiplier (~44k AIG gates), driven in the
  // steady state (reset + run per pass) like the mappers drive it.
  const Network& net = large_circuit();
  const auto order = topo_order(net);
  CutEnumerator cuts(net, {.cut_size = 6, .cut_limit = 8});
  for (auto _ : state) {
    cuts.reset();
    cuts.run(order);
    benchmark::DoNotOptimize(cuts.total_cuts());
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_CutEnumerationMult64);

void BM_RandomSimulation(benchmark::State& state) {
  const Network& net = medium_circuit();
  for (auto _ : state) {
    RandomSimulation sim(net, 16, 1234);
    benchmark::DoNotOptimize(sim.signature(net.po_at(0)));
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates() * 16);
}
BENCHMARK(BM_RandomSimulation);

void BM_SatCec(benchmark::State& state) {
  // Adder miters stay easy for CDCL; multiplier miters would not.
  const Network net = expand_to_aig(circuits::adder(16));
  const Network other = balance(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_equivalence(net, other));
  }
}
BENCHMARK(BM_SatCec);

void BM_MchConstruction(benchmark::State& state) {
  const Network& net = medium_circuit();
  for (auto _ : state) {
    MchParams params;
    params.candidate_basis = GateBasis::xmg();
    benchmark::DoNotOptimize(build_mch(net, params));
  }
  state.SetItemsProcessed(state.iterations() * net.num_gates());
}
BENCHMARK(BM_MchConstruction);

void BM_LutMap(benchmark::State& state) {
  const Network& net = medium_circuit();
  const bool with_choices = state.range(0) != 0;
  Network subject = net;
  if (with_choices) {
    MchParams params;
    params.candidate_basis = GateBasis::xmg();
    subject = build_mch(net, params);
  }
  for (auto _ : state) {
    LutMapParams p;
    p.use_choices = with_choices;
    benchmark::DoNotOptimize(lut_map(subject, p));
  }
}
BENCHMARK(BM_LutMap)->Arg(0)->Arg(1);

void BM_AsicMap(benchmark::State& state) {
  const Network& net = medium_circuit();
  const TechLibrary lib = TechLibrary::asap7_mini();
  for (auto _ : state) {
    AsicMapParams p;
    p.use_choices = false;
    benchmark::DoNotOptimize(asic_map(net, lib, p));
  }
}
BENCHMARK(BM_AsicMap);

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  if (const char* path = json_par_mode_path(argc, argv)) {
    run_par_suite(path);
    return 0;
  }
  if (const char* path = json_sweep_mode_path(argc, argv)) {
    run_sweep_suite(path);
    return 0;
  }
  if (const char* path = json_mode_path(argc, argv)) {
    run_kernel_suite(path);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#else  // !MCS_HAVE_GBENCH

int main(int argc, char** argv) {
  obs::init_from_env();
  if (const char* path = json_par_mode_path(argc, argv)) {
    run_par_suite(path);
    return 0;
  }
  if (const char* path = json_sweep_mode_path(argc, argv)) {
    run_sweep_suite(path);
    return 0;
  }
  const char* path = json_mode_path(argc, argv);
  run_kernel_suite(path != nullptr ? path : "BENCH_kernel.json");
  return 0;
}

#endif
