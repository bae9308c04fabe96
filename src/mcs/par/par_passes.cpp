/// \file par_passes.cpp
/// \brief Flow registrations for the partition-parallel drivers: the
/// generic `par` meta-pass that runs *any* registered network->network
/// pass per shard (`par:pass=compress2rs,rounds=2`, `par:pass=mch`) and
/// `pmap_lut`, the sharded LUT mapper.  Thread count and shard size come
/// from the FlowContext (`threads` / `partsize` settings passes).

#include <utility>
#include <vector>

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/par/par_engine.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

namespace {

std::string par_note(const char* name, const ParStats& ps) {
  return std::string(name) + ": " + std::to_string(ps.num_partitions) +
         " partitions on " + std::to_string(ps.num_threads) + " threads";
}

/// Rebuilds `key=value` tokens from the extras collected by `par`.
std::vector<std::string> forwarded_tokens(const PassArgs& args) {
  std::vector<std::string> tokens;
  for (const auto& [k, v] : args.extras()) tokens.push_back(k + "=" + v);
  return tokens;
}

const PassInfo& inner_pass_or_throw(const PassArgs& args) {
  const std::string name = args.get_string("pass");
  const PassInfo* inner = PassRegistry::instance().find(name);
  if (!inner) throw FlowError("par: unknown pass '" + name + "'");
  if (!inner->parallel_ok) {
    throw FlowError("par: pass '" + name +
                    "' is not a partition-parallel network transform");
  }
  return *inner;
}

}  // namespace

void register_par_passes(PassRegistry& registry) {
  registry.add({
      .name = "pmap_lut",
      .summary = "parallel partitioned choice-aware K-LUT mapping",
      .kind = PassKind::kMapping,
      .params = {{.key = "k",
                  .type = ParamType::kInt,
                  .default_value = "6",
                  .help = "LUT size"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            LutMapParams params;
            params.lut_size = static_cast<int>(args.get_int("k"));
            if (params.lut_size < 2 || params.lut_size > 6) {
              throw FlowError("pmap_lut: k must be in [2, 6]");
            }
            ParStats ps;
            ctx.luts = par_map_lut(ctx.net, params, ctx.par, &ps);
            ctx.note = par_note("pmap_lut", ps);
          },
  });

  registry.add({
      .name = "par",
      .summary = "run any registered network transform per partition "
                 "(par:pass=rewrite,k=4)",
      .kind = PassKind::kTransform,
      .params = {{.key = "pass",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "inner pass name; extra key=value args forwarded"}},
      .allow_extra_args = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            const PassInfo& inner = inner_pass_or_throw(args);
            const PassArgs inner_args =
                PassArgs::bind(inner, forwarded_tokens(args));
            ParParams par = ctx.par;
            ReassembleOptions ropts;
            if (inner.kind == PassKind::kChoice) {
              // Choice constructions must see existing classes and keep
              // the ones they add through reassembly.
              par.partition.keep_choices = true;
              ropts.keep_choices = true;
            }
            ParStats ps;
            ctx.net = par_run(
                ctx.net,
                [&](const Network& shard) {
                  FlowContext sub;
                  sub.seed = ctx.seed;
                  sub.par.num_threads = 1;  // no nested pools
                  sub.net = shard;
                  inner.run(sub, inner_args);
                  return std::move(sub.net);
                },
                par, &ps, ropts);
            ctx.note = par_note(("par:" + inner.name).c_str(), ps);
          },
      .validate =
          [](const PassArgs& args) {
            // Parse-time: the inner pass must exist, be shard-safe, and
            // accept every forwarded argument.
            const PassInfo& inner = inner_pass_or_throw(args);
            PassArgs::bind(inner, forwarded_tokens(args));
          },
  });
}

}  // namespace mcs::flow
