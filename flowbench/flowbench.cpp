/// \file flowbench.cpp
/// \brief The repository benchmark: the paper flow end to end through
/// flow::run_flow on three workloads, with QoR, output checks and per-layer
/// attribution measured from outside the library.
///
///   flowbench --workload suite_map|sat_verify|large_par --seed N
///             --seconds S --trace 0|1 [--smoke] [--commit ID]
///
/// One process, closed loop: rounds run back to back until the next round
/// would end past S seconds (at least one round).  A round is two set-ups
/// (input generation plus NPN table warm-up on fresh threads) followed by
/// one pass over the workload's flows.  setup_s is the median set-up;
/// flow_s and cpu_s sum, over the flows, each flow's median over passes.
///
///   --trace 0  untraced passes; prints the end-to-end metrics.
///   --trace 1  alternates untraced and traced passes; prints the per-layer
///              metrics.  A traced pass runs every flow through run_flow
///              with obs tracing on, reads each stage's time and the obs
///              counters the flows moved, then replays every flow with
///              the layers' public functions called directly where a stage
///              hides them (the compress2rs steps, build_mch, build_dch,
///              lut_map), the steps inside the benchmark's own obs spans.
///
/// Every pass is checked: a flow fails when a stage fails, when its ASIC
/// netlist disagrees with the generated reference on random vectors, or
/// when its QoR differs from the first pass of the run.  The last stdout
/// line is one JSON object {"correct","attempted","failed","metrics"};
/// the line before it carries the result's provenance.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mcs/choice/dch.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/cut/enumeration.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/resyn/npn_db.hpp"

#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE ""
#endif
#ifndef FLOWBENCH_SANITIZE
#define FLOWBENCH_SANITIZE ""
#endif

using namespace mcs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- workloads ---------------------------------------------------------------

struct FlowDef {
  std::string label;   ///< circuit and width, e.g. "multiplier8"
  std::string source;  ///< `gen:<circuit>,bits=<w>; to:basis=aig`
  std::string spec;    ///< the whole flow: source plus the paper stages
  std::uint64_t seed = 1;  ///< FlowContext::seed (never 0)
};

struct Workload {
  std::string name;
  int threads = 1;  ///< threads the flows use (serial flows pin 1)
  std::vector<FlowDef> flows;
};

FlowDef make_flow(std::string label, const std::string& circuit, int bits,
                  const std::string& tail) {
  std::string source = "gen:" + circuit;
  if (bits > 0) source += ",bits=" + std::to_string(bits);
  source += "; to:basis=aig";
  return {std::move(label), source, source + tail, 1};
}

/// suite_map: the 20-circuit EPFL-analogue suite at the widths of
/// circuits::epfl_suite(0.6) (the smoke size uses 0.3).  The seed draws the
/// widths of the adder and the barrel shifter from w +- w/16: their cost
/// and QoR are linear in the width, so a new seed gives new circuits
/// without moving the workload's time or geomeans by more than a few
/// tenths of a percent.
Workload suite_map(std::uint64_t seed, bool smoke) {
  struct Entry {
    const char* circuit;
    int full_bits;  ///< scale-1 width, 0 = fixed-size circuit
    int min_bits;
    bool seeded;    ///< width drawn from w +- w/16
  };
  static constexpr Entry kSuite[] = {
      {"adder", 64, 8, true},       {"bar", 64, 8, true},
      {"div", 16, 4, false},        {"hyp", 12, 4, false},
      {"log2", 16, 4, false},       {"max", 32, 4, false},
      {"multiplier", 16, 4, false}, {"sin", 10, 4, false},
      {"sqrt", 24, 4, false},       {"square", 20, 4, false},
      {"arbiter", 32, 8, false},   {"cavlc", 0, 0, false},
      {"ctrl", 0, 0, false},       {"dec", 0, 0, false},
      {"i2c", 0, 0, false},        {"int2float", 0, 0, false},
      {"mem_ctrl", 0, 0, false},   {"priority", 64, 8, false},
      {"router", 0, 0, false},     {"voter", 0, 0, false},
  };
  const double scale = smoke ? 0.3 : 0.6;
  const std::string tail =
      "; compress2rs:rounds=2; mch:basis=xmg,ratio=0.9; map_lut:k=6; "
      "map_asic:obj=delay; sim";
  Workload w{"suite_map", 1, {}};
  std::uint64_t rng = splitmix64(seed);
  for (const Entry& e : kSuite) {
    int bits = 0;
    if (e.full_bits > 0) {
      bits = std::max(e.min_bits,
                      static_cast<int>(std::lround(e.full_bits * scale)));
    }
    // The suite's own non-scaled widths (epfl_suite below scale 0.9).
    if (std::string(e.circuit) == "dec") bits = 5;
    if (std::string(e.circuit) == "voter") bits = 15;
    if (e.seeded) {
      rng = splitmix64(rng);
      const int d = bits / 16;
      bits += static_cast<int>(rng % static_cast<std::uint64_t>(2 * d + 1)) - d;
    }
    w.flows.push_back(
        make_flow(e.circuit + (bits > 0 ? std::to_string(bits) : ""),
                  e.circuit, bits, tail));
  }
  return w;
}

/// sat_verify: fixed-width serial flows whose time goes to SAT: the `cec`
/// proofs, the sweep engine behind `dch`, and `resub` inside compress2rs.
Workload sat_verify(bool smoke) {
  const std::string mch_cec =
      "; compress2rs:rounds=2; mch; map_lut:k=6; cec";
  const std::string dch_cec =
      "; compress2rs:rounds=2; dch; map_asic:obj=delay; cec";
  const std::string mch_sim = "; compress2rs:rounds=2; mch; map_lut:k=6; sim";
  struct Entry {
    const char* circuit;
    int bits, smoke_bits;
    const std::string* tail;
  };
  const Entry entries[] = {
      {"multiplier", 7, 5, &mch_cec}, {"hyp", 5, 4, &dch_cec},
      {"div", 8, 5, &mch_cec},        {"div", 8, 5, &dch_cec},
      {"square", 10, 6, &mch_cec},    {"square", 10, 6, &dch_cec},
      {"multiplier", 24, 8, &mch_sim},
  };
  Workload w{"sat_verify", 1, {}};
  for (const Entry& e : entries) {
    const int bits = smoke ? e.smoke_bits : e.bits;
    w.flows.push_back(make_flow(e.circuit + std::to_string(bits) +
                                    (e.tail == &dch_cec ? "/dch" : "/mch"),
                                e.circuit, bits, *e.tail));
  }
  return w;
}

/// large_par: two large circuits through the partition-parallel `par`
/// meta-pass at 4 threads; the only workload that uses the pool.
Workload large_par(bool smoke) {
  const std::string par =
      "; threads:4; partsize:gates=2000; par:pass=compress2rs,rounds=2; "
      "par:pass=mch,basis=xmg,ratio=0.9; map_lut:k=6";
  Workload w{"large_par", 4, {}};
  const int mult_bits = smoke ? 16 : 40;
  const int hyp_bits = smoke ? 6 : 9;
  w.flows.push_back(make_flow("multiplier" + std::to_string(mult_bits),
                              "multiplier", mult_bits, par + "; sim"));
  w.flows.push_back(make_flow("hyp" + std::to_string(hyp_bits), "hyp",
                              hyp_bits, par + "; map_asic:obj=delay; sim"));
  return w;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  std::optional<Workload> w;
  if (name == "suite_map") w = suite_map(seed, smoke);
  if (name == "sat_verify") w = sat_verify(smoke);
  if (name == "large_par") w = large_par(smoke);
  if (w) {
    // The workload seed feeds every flow's `seed` setting (simulation and
    // DCH signature seeds), distinct per flow and never 0 ("defaults").
    for (std::size_t i = 0; i < w->flows.size(); ++i) {
      w->flows[i].seed = splitmix64(seed * 0x100000001b3ULL + i) | 1;
    }
  }
  return w;
}

flow::FlowContext make_context(const Workload& w, const FlowDef& f) {
  flow::FlowContext ctx;
  ctx.seed = f.seed;
  // Serial workloads pin one thread: otherwise dch/cec/sim would resolve
  // their thread count to the hardware default and use the pool.
  if (w.threads == 1) ctx.par.num_threads = 1;
  return ctx;
}

// --- set-up: input generation and NPN table warm-up ------------------------

constexpr std::size_t kNpn4Classes = 222;

/// Builds every class of the NpnDatabase::shared tables the flows use
/// (XMG candidates, area objective for rewrite, level objective for MCH) on
/// the calling thread.  Returns the seconds it took.
double warm_npn_tables() {
  const auto t0 = Clock::now();
  for (const auto objective :
       {NpnDatabase::Objective::kArea, NpnDatabase::Objective::kLevel}) {
    NpnDatabase& db = NpnDatabase::shared(GateBasis::xmg(), objective);
    Network scratch;
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(scratch.create_pi());
    for (std::uint64_t f = 0; f < (1u << 16) && db.num_classes() < kNpn4Classes;
         ++f) {
      (void)db.instantiate(scratch, f, 4, leaves);
    }
  }
  return seconds_since(t0);
}

/// Warms the tables on every worker of the global pool: one task per
/// worker, held at a latch so no worker takes two.
void warm_pool_workers() {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t n = pool.num_threads();
  std::latch all(static_cast<std::ptrdiff_t>(n));
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < n; ++i) {
    done.push_back(pool.submit([&all] {
      warm_npn_tables();
      all.arrive_and_wait();
    }));
  }
  for (auto& f : done) f.get();
}

struct SetupTimes {
  double seconds = 0.0;       ///< one whole set-up
  double warm_seconds = 0.0;  ///< median per-thread NPN warm-up
};

/// One set-up: parses every flow, generates every input network (the
/// flow's own `gen; to:basis=aig` prefix) and builds the NPN tables on as
/// many fresh threads as the workload uses.
SetupTimes set_up(const Workload& w) {
  const auto t0 = Clock::now();
  for (const FlowDef& f : w.flows) {
    (void)flow::Flow::parse(f.spec);
    flow::FlowContext ctx = make_context(w, f);
    const flow::FlowReport r = flow::run_flow(f.source, ctx);
    if (!r.ok) throw flow::FlowError("set-up of " + f.label + ": " + r.error);
  }
  std::vector<double> warm(static_cast<std::size_t>(w.threads), 0.0);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < w.threads; ++i) {
      threads.emplace_back([&warm, i] { warm[i] = warm_npn_tables(); });
    }
    for (std::thread& t : threads) t.join();
  }
  return {seconds_since(t0), median(warm)};
}

// --- QoR and checks -----------------------------------------------------

/// The QoR of one flow: after the optimisation stage, the LUT mapping and
/// the ASIC mapping (zero where the flow has no such stage).
struct Qor {
  std::size_t gates = 0;
  std::uint32_t depth = 0;
  std::size_t luts = 0;
  std::uint32_t lut_depth = 0;
  double area = 0.0;
  double delay = 0.0;
  bool operator==(const Qor&) const = default;
};

bool is_opt_stage(const flow::StageReport& r) {
  return r.pass == "compress2rs" ||
         (r.pass == "par" && r.args.rfind("pass=compress2rs", 0) == 0);
}

void record_qor(const flow::StageReport& r, Qor& q) {
  if (is_opt_stage(r)) {
    q.gates = r.gates;
    q.depth = r.depth;
  } else if (r.pass == "map_lut") {
    q.luts = r.luts;
    q.lut_depth = r.lut_depth;
  } else if (r.pass == "map_asic") {
    q.area = r.area;
    q.delay = r.delay;
  }
}

struct FlowOutcome {
  bool ok = true;
  std::string error;
  double seconds = 0.0;        ///< wall time of run_flow
  double cpu_seconds = 0.0;    ///< process CPU time over run_flow
  double stage_seconds = 0.0;  ///< sum of its StageReport.seconds
  std::map<std::string, double> layer_seconds;  ///< stage time by metric
  Qor qor;
};

/// Marks \p out failed unless its ASIC netlist (if any) matches the
/// reference on random vectors: no flow stage looks at ctx.cells, so the
/// benchmark checks it itself.
void check_cells(const flow::FlowContext& ctx, const FlowDef& f,
                 FlowOutcome& out) {
  if (!out.ok || !ctx.cells) return;
  if (!ctx.original || !bench::sim_check(*ctx.original, *ctx.cells, f.seed)) {
    out.ok = false;
    out.error = "ASIC netlist differs from the reference";
  }
}

/// The per-layer time metric a stage's StageReport.seconds is billed to;
/// nullptr for settings.
const char* stage_metric(const flow::StageReport& r) {
  static const std::map<std::string, const char*> kByPass = {
      {"to", "network.s"},         {"compress2rs", "opt.s"},
      {"mch", "choice.mch_s"},     {"dch", "choice.dch_s"},
      {"map_lut", "map.lut_s"},    {"map_asic", "map.asic_s"},
      {"cec", "sat.cec_s"},        {"sim", "sim.s"},
      {"par", "par.s"}};
  const auto it = kByPass.find(r.pass);
  if (it != kByPass.end()) return it->second;
  const flow::PassInfo* pass = flow::PassRegistry::instance().find(r.pass);
  return pass != nullptr && pass->kind == flow::PassKind::kSource
             ? "network.s"
             : nullptr;
}

/// One flow through run_flow.  Wall and CPU time cover run_flow only; the
/// ASIC netlist check runs after both clocks stop.
FlowOutcome run_one(const Workload& w, const FlowDef& f) {
  FlowOutcome out;
  flow::FlowContext ctx = make_context(w, f);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const flow::FlowReport report = flow::run_flow(f.spec, ctx);
  out.seconds = seconds_since(t0);
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  for (const flow::StageReport& s : report.stages) {
    out.stage_seconds += s.seconds;
    if (const char* m = stage_metric(s)) out.layer_seconds[m] += s.seconds;
    record_qor(s, out.qor);
  }
  out.ok = report.ok;
  out.error = report.error;
  check_cells(ctx, f, out);
  return out;
}

// --- replay: the steps and stats the stages hide ----------------------------

/// Work counts the replay reads from the layers' own stats structs and
/// from its cut enumeration probe.
struct LayerCounts {
  double resub_gates_saved = 0;
  double mch_tried = 0, mch_added = 0, mch_rejected_cycle = 0;
  double dch_pairs = 0, dch_proven = 0, dch_timeouts = 0;
  double choice_cuts_used = 0;
  double probe_cuts = 0, probe_nodes = 0;
};

/// compress2rs_like(), replayed step by step so each step gets a span.
Network replay_compress2rs(const Network& net, const flow::PassArgs& args,
                           LayerCounts& lc) {
  const GateBasis basis = args.get_basis("basis");
  const int max_rounds = static_cast<int>(args.get_int("rounds"));
  Network best = cleanup(net);
  Network cur = best;
  for (int r = 0; r < max_rounds; ++r) {
    {
      obs::Span s("opt.balance");
      cur = balance(cur);
    }
    {
      obs::Span s("opt.rewrite");
      cur = rewrite(cur, {.basis = basis});
    }
    {
      obs::Span s("opt.refactor");
      cur = refactor(cur, {.basis = basis});
    }
    {
      obs::Span s("opt.resub");
      const std::size_t before = cur.num_gates();
      cur = resub(cur, {.basis = basis});
      lc.resub_gates_saved +=
          static_cast<double>(before) - static_cast<double>(cur.num_gates());
    }
    {
      obs::Span s("opt.sweep");
      cur = sweep(cur);
    }
    {
      obs::Span s("opt.balance");
      cur = balance(cur);
    }
    const bool better =
        cur.num_gates() < best.num_gates() ||
        (cur.num_gates() == best.num_gates() && cur.depth() < best.depth());
    if (!better) break;
    best = cur;
  }
  return best;
}

/// One flow, stage by stage.  The compress2rs, mch, dch and map_lut stages
/// are replayed through the layers' public functions (same parameters as
/// their pass registrations) so their steps and stats become visible; every
/// other stage runs through flow::run_stage.  Before each LUT mapping a
/// probe enumerates k-cuts on the mapper's input, because the mapper's
/// per-node enumeration emits no span.  The replay is not part of any flow
/// time; its QoR is checked like a timed pass's, which proves it computes
/// what the flow computes.
FlowOutcome replay_flow(const Workload& w, const FlowDef& f,
                        LayerCounts& lc) {
  FlowOutcome out;
  flow::FlowContext ctx = make_context(w, f);
  const flow::Flow parsed = flow::Flow::parse(f.spec);
  try {
    for (const flow::Flow::Stage& st : parsed.stages()) {
      const std::string& pass = st.pass->name;
      if (pass == "compress2rs") {
        obs::Span s("opt");
        ctx.net = replay_compress2rs(ctx.net, st.args, lc);
        out.qor.gates = ctx.net.num_gates();
        out.qor.depth = ctx.net.depth();
      } else if (pass == "mch") {
        MchParams params;
        params.candidate_basis = st.args.get_basis("basis");
        params.critical_ratio = st.args.get_double("ratio");
        params.cut_size = static_cast<int>(st.args.get_int("cut"));
        params.max_choices_per_node =
            static_cast<int>(st.args.get_int("max_choices"));
        MchStats stats;
        ctx.net = build_mch(ctx.net, params, &stats);
        lc.mch_tried += static_cast<double>(stats.num_candidates_tried);
        lc.mch_added += static_cast<double>(stats.num_choices_added);
        lc.mch_rejected_cycle += static_cast<double>(stats.num_rejected_cycle);
      } else if (pass == "dch") {
        DchParams params;
        params.num_threads = ctx.par.num_threads;
        if (ctx.seed != 0) params.sim_seed = ctx.seed;
        DchStats stats;
        ctx.net = build_dch({ctx.net, balance(ctx.net), rewrite(ctx.net)},
                            params, &stats);
        lc.dch_pairs += static_cast<double>(stats.num_candidate_pairs);
        lc.dch_proven += static_cast<double>(stats.num_proven);
        lc.dch_timeouts += static_cast<double>(stats.num_timeout);
      } else if (pass == "map_lut") {
        LutMapParams params;
        params.lut_size = static_cast<int>(st.args.get_int("k"));
        params.use_choices = st.args.get_bool("choices");
        params.objective = st.args.get_string("obj") == "delay"
                               ? LutMapParams::Objective::kDelay
                               : LutMapParams::Objective::kArea;
        {
          obs::Span s("cut.enum");
          CutEnumerator probe(ctx.net, {.cut_size = params.lut_size,
                                        .cut_limit = params.cut_limit,
                                        .use_choices = params.use_choices});
          const std::vector<NodeId> order = params.use_choices
                                                ? choice_topo_order(ctx.net)
                                                : topo_order(ctx.net);
          probe.run(order);
          lc.probe_cuts += static_cast<double>(probe.total_cuts());
          lc.probe_nodes += static_cast<double>(order.size());
        }
        LutMapStats stats;
        ctx.luts = lut_map(ctx.net, params, &stats);
        lc.choice_cuts_used += static_cast<double>(stats.num_choice_cuts_used);
        out.qor.luts = ctx.luts->size();
        out.qor.lut_depth = ctx.luts->depth();
      } else {
        const flow::StageReport r = flow::run_stage(ctx, *st.pass, st.args);
        if (!r.ok) throw flow::FlowError(r.pass + ": " + r.note);
        record_qor(r, out.qor);
      }
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  check_cells(ctx, f, out);
  return out;
}

// --- passes ---------------------------------------------------------------

struct PassResult {
  double seconds = 0.0;  ///< sum of the flows' wall times
  std::vector<FlowOutcome> flows;
};

/// Runs every flow of \p w once through run_flow.
PassResult run_pass(const Workload& w) {
  PassResult p;
  for (const FlowDef& f : w.flows) {
    FlowOutcome o = run_one(w, f);
    p.seconds += o.seconds;
    p.flows.push_back(std::move(o));
  }
  return p;
}

/// Sum over the flows of the median over \p passes of \p field: each
/// flow's noise is filtered on its own before the pass total is formed.
double sum_of_flow_medians(const std::vector<PassResult>& passes,
                           double (*field)(const FlowOutcome&)) {
  double total = 0.0;
  for (std::size_t f = 0; f < passes.front().flows.size(); ++f) {
    std::vector<double> values;
    for (const PassResult& p : passes) values.push_back(field(p.flows[f]));
    total += median(values);
  }
  return total;
}

/// Counts attempted/failed flows; a flow fails when it reported a failure
/// or its QoR differs from the same flow in the run's first pass.
struct Tally {
  std::vector<Qor> reference;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const Workload& w, const PassResult& p) {
    if (reference.empty()) {
      for (const FlowOutcome& o : p.flows) reference.push_back(o.qor);
    }
    for (std::size_t i = 0; i < p.flows.size(); ++i) {
      const FlowOutcome& o = p.flows[i];
      ++attempted;
      if (!o.ok) {
        ++failed;
        std::fprintf(stderr, "flowbench: %s failed: %s\n",
                     w.flows[i].label.c_str(), o.error.c_str());
      } else if (!(o.qor == reference[i])) {
        ++failed;
        std::fprintf(stderr, "flowbench: %s QoR differs from the first pass\n",
                     w.flows[i].label.c_str());
      }
    }
  }
};

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_provenance(const Workload& w, std::uint64_t seed, bool trace,
                      bool smoke, const std::string& commit) {
  const std::string build_type = FLOWBENCH_BUILD_TYPE;
  const std::string sanitize = FLOWBENCH_SANITIZE;
#ifdef MCS_OBS_DISABLE
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  // Debug and sanitizer builds time something else; never compare them.
  const bool valid = (build_type == "Release" ||
                      build_type == "RelWithDebInfo") &&
                     sanitize.empty() && !smoke;
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"smoke\": %s, \"hardware_threads\": %u, \"workload_threads\": %d, "
      "\"build_type\": %s, \"sanitize\": %s, \"obs_compiled\": %s, "
      "\"compiler\": %s, \"commit\": %s, \"valid_for_comparison\": %s}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(seed),
      trace ? 1 : 0, smoke ? "true" : "false",
      std::thread::hardware_concurrency(), w.threads,
      json_string(build_type).c_str(), json_string(sanitize).c_str(),
      obs_compiled ? "true" : "false", json_string(compiler).c_str(),
      json_string(commit).c_str(), valid ? "true" : "false");
  if (!valid) {
    std::fprintf(stderr,
                 "flowbench: %s build%s: results are not valid for "
                 "comparison\n",
                 build_type.c_str(), smoke ? " at smoke size" : "");
  }
}

/// QoR geomeans over the flows that have each stage.
std::vector<Metric> qor_metrics(const std::vector<Qor>& qors) {
  std::vector<double> gates, depth, luts, lut_depth, area, delay;
  for (const Qor& q : qors) {
    if (q.gates > 0) {
      gates.push_back(static_cast<double>(q.gates));
      depth.push_back(static_cast<double>(q.depth));
    }
    if (q.luts > 0) {
      luts.push_back(static_cast<double>(q.luts));
      lut_depth.push_back(static_cast<double>(q.lut_depth));
    }
    if (q.area > 0.0) {
      area.push_back(q.area);
      delay.push_back(q.delay);
    }
  }
  return {{"gates_geo", bench::geomean(gates), "gates"},
          {"depth_geo", bench::geomean(depth), "levels"},
          {"luts_geo", bench::geomean(luts), "LUTs"},
          {"lut_depth_geo", bench::geomean(lut_depth), "levels"},
          {"area_geo", bench::geomean(area), "asap7_mini"},
          {"delay_geo", bench::geomean(delay), "ps"}};
}

std::int64_t counter_delta(const obs::MetricsSnapshot& delta,
                           const std::string& name) {
  for (const obs::MetricValue& mv : delta.counters) {
    if (mv.name == name) return mv.value;
  }
  return 0;
}

/// Per-layer metrics of one traced pass: stage times of the traced flows
/// (\p flows), obs counter deltas over those flows (\p delta), and the
/// replay's span times (\p spans, name -> seconds) and stats (\p lc).
std::map<std::string, double> layer_values(
    const PassResult& flows, const obs::MetricsSnapshot& delta,
    const std::map<std::string, double>& spans, const LayerCounts& lc) {
  std::map<std::string, double> v;
  const auto span = [&spans](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  double stage_sum = 0.0;
  for (const char* m : {"network.s", "opt.s", "choice.mch_s", "choice.dch_s",
                        "map.lut_s", "map.asic_s", "sat.cec_s", "sim.s",
                        "par.s"}) {
    v[m] = 0.0;
  }
  for (const FlowOutcome& o : flows.flows) {
    stage_sum += o.stage_seconds;
    for (const auto& [m, s] : o.layer_seconds) v[m] += s;
  }
  v["flow.traced_s"] = flows.seconds;
  v["flow.stage_cover"] = ratio(stage_sum, flows.seconds);
  double steps = 0.0;
  for (const std::string step :
       {"balance", "rewrite", "refactor", "resub", "sweep"}) {
    v["opt." + step + "_s"] = span("opt." + step);
    steps += span("opt." + step);
  }
  v["opt.self_s"] = span("opt") - steps;
  v["opt.resub_gates_saved"] = lc.resub_gates_saved;
  v["choice.mch.candidates_tried"] = lc.mch_tried;
  v["choice.mch.choices_added"] = lc.mch_added;
  v["choice.mch.accept_ratio"] = ratio(lc.mch_added, lc.mch_tried);
  v["choice.mch.rejected_cycle"] = lc.mch_rejected_cycle;
  v["choice.dch.pairs"] = lc.dch_pairs;
  v["choice.dch.proven"] = lc.dch_proven;
  v["choice.dch.timeouts"] = lc.dch_timeouts;
  v["cut.enum_s"] = span("cut.enum");
  v["map.lut.choice_cuts_used"] = lc.choice_cuts_used;
  const double sat_s = v["sat.cec_s"] + v["choice.dch_s"] + v["opt.resub_s"] +
                       v["opt.sweep_s"];
  v["flow.sat_share"] = ratio(sat_s, flows.seconds);
  for (const char* c :
       {"cut.cuts_stored", "cut.nodes_enumerated", "cec.checks", "cec.batches",
        "cec.sim_refuted", "sweep.sat_calls", "sweep.conflicts",
        "sweep.proven", "sweep.disproven", "sweep.unknown", "sim.gate_words",
        "strash.lookups", "strash.collisions", "pool.tasks_executed",
        "pool.tasks_stolen", "pool.bulk_batches", "pool.batch_items",
        "pool.busy_us", "pool.idle_us"}) {
    v[c] = static_cast<double>(counter_delta(delta, c));
  }
  // The mapper enumerates cuts node by node without moving the cut
  // counters; the probe supplies that share.
  v["cut.cuts_stored"] += lc.probe_cuts;
  v["cut.nodes_enumerated"] += lc.probe_nodes;
  v["sweep.proof_ratio"] = ratio(v["sweep.proven"], v["sweep.sat_calls"]);
  v["strash.probe_ratio"] =
      ratio(v["strash.collisions"], v["strash.lookups"]);
  v["pool.util"] =
      ratio(v["pool.busy_us"], v["pool.busy_us"] + v["pool.idle_us"]);
  return v;
}

/// One traced pass.  Every flow first runs through run_flow with obs
/// tracing on, the same path as the untraced passes, so traced against
/// untraced time is the tracing overhead; each flow starts from an empty
/// trace, as a job would.  Then every flow is replayed (replay_flow) for
/// the steps and stats its stages hide.  Both halves count in \p tally.
std::map<std::string, double> traced_pass(const Workload& w, Tally& tally) {
  obs::set_tracing(true);
  PassResult flows;
  const obs::MetricsSnapshot before = obs::snapshot();
  for (const FlowDef& f : w.flows) {
    obs::trace_clear();
    FlowOutcome o = run_one(w, f);
    flows.seconds += o.seconds;
    flows.flows.push_back(std::move(o));
  }
  const obs::MetricsSnapshot delta = obs::snapshot_delta(before);
  tally.add(w, flows);

  LayerCounts lc;
  std::map<std::string, double> spans;
  PassResult replays;
  for (const FlowDef& f : w.flows) {
    obs::trace_clear();
    replays.flows.push_back(replay_flow(w, f, lc));
    for (const obs::SpanStats& s : obs::aggregate_spans(0)) {
      spans[s.name] += s.seconds;
    }
  }
  obs::set_tracing(false);
  obs::trace_clear();
  tally.add(w, replays);
  return layer_values(flows, delta, spans, lc);
}

std::string layer_unit(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_s") || name == "sim.s" || name == "opt.s" ||
      name == "par.s" || name == "network.s") {
    return "s";
  }
  if (ends_with("_us")) return "us";
  if (name == "strash.probe_ratio") return "ratio";  // may exceed 1
  if (ends_with("ratio") || ends_with("share") || ends_with("cover") ||
      ends_with("util")) {
    return "fraction";
  }
  if (ends_with("gates_saved")) return "gates";
  return "count";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload "
               "suite_map|sat_verify|large_par --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit ID]\n",
               msg);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      const auto v = flow::parse_int(value());
      if (!v || *v < 0) usage("--seed takes a non-negative integer");
      o.seed = static_cast<std::uint64_t>(*v);
    } else if (a == "--seconds") {
      const auto v = flow::parse_double(value());
      if (!v || *v <= 0.0) usage("--seconds takes a positive number");
      o.seconds = *v;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

constexpr int kSetupsPerRound = 2;

int run(const Options& opt) {
  const std::optional<Workload> found =
      make_workload(opt.workload, opt.seed, opt.smoke);
  if (!found) usage(("unknown workload " + opt.workload).c_str());
  const Workload& w = *found;

  Tally tally;
  std::vector<double> setup_s, warm_s;
  std::vector<PassResult> untraced;
  std::vector<std::map<std::string, double>> traced;
  const auto start = Clock::now();
  double last_round = 0.0;
  do {
    const auto r0 = Clock::now();
    // Every round repeats the set-up before its pass, so the set-up samples
    // (median: setup_s) span the same stretch of time as the passes; two
    // per round, because a single set-up is short enough for second-to-
    // second CPU noise on a shared host to dominate it.
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const SetupTimes t = set_up(w);
      setup_s.push_back(t.seconds);
      warm_s.push_back(t.warm_seconds);
    }
    if (untraced.empty()) {
      // The threads the timed passes run on get warm tables too.
      warm_npn_tables();
      if (w.threads > 1) warm_pool_workers();
    }
    untraced.push_back(run_pass(w));
    tally.add(w, untraced.back());
    if (opt.trace) traced.push_back(traced_pass(w, tally));
    last_round = seconds_since(r0);
  } while (seconds_since(start) + last_round <= opt.seconds);

  const double flow_s = sum_of_flow_medians(
      untraced, [](const FlowOutcome& o) { return o.seconds; });

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {{"flow_s", flow_s, "s"},
               {"cpu_s",
                sum_of_flow_medians(
                    untraced,
                    [](const FlowOutcome& o) { return o.cpu_seconds; }),
                "s"},
               {"setup_s", median(setup_s), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"ok_frac",
                1.0 - ratio(static_cast<double>(tally.failed),
                            static_cast<double>(tally.attempted)),
                "fraction"}};
    for (Metric& m : qor_metrics(tally.reference)) {
      metrics.push_back(std::move(m));
    }
  } else {
    std::map<std::string, std::vector<double>> series;
    for (const auto& values : traced) {
      for (const auto& [name, value] : values) series[name].push_back(value);
    }
    const double traced_s = median(series["flow.traced_s"]);
    metrics.push_back(
        {"flow.overhead_s",
         sum_of_flow_medians(untraced,
                             [](const FlowOutcome& o) {
                               return o.seconds - o.stage_seconds;
                             }),
         "s"});
    metrics.push_back({"flow.untraced_s", flow_s, "s"});
    metrics.push_back({"flow.trace_ratio", ratio(traced_s, flow_s),
                       "ratio"});
    for (const auto& [name, values] : series) {
      metrics.push_back({name, median(values), layer_unit(name)});
    }
    metrics.push_back({"resyn.warm_s", median(warm_s), "s"});
  }
  print_provenance(w, opt.seed, opt.trace, opt.smoke, opt.commit);
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
