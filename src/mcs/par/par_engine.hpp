/// \file par_engine.hpp
/// \brief Generic partition-parallel driver for the synthesis passes.
///
/// par_run() shards the input network with partition_network(), runs *any*
/// network->network pass on every shard via a ThreadPool, and stitches the
/// results back with reassemble(); par_map_lut() does the same for the
/// choice-aware LUT mapper, stitching the per-shard LUT networks.  Because
/// shards are self-contained Networks and reassembly happens in fixed
/// partition order, the output is bit-identical for any thread count (see
/// partition.hpp for the determinism contract); threads only change the
/// wall-clock time.
///
/// The flow layer's `par` meta-pass (mcs/flow) drives any registered
/// network transform through par_run(); `pmap_lut` drives par_map_lut().

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network.hpp"
#include "mcs/par/partition.hpp"

namespace mcs {

struct ParParams {
  /// Worker threads; values < 1 resolve to the hardware concurrency.
  int num_threads = 0;
  PartitionParams partition;
};

struct ParStats {
  std::size_t num_partitions = 0;
  std::size_t num_threads = 0;
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;
  std::uint32_t initial_depth = 0;
  std::uint32_t final_depth = 0;
  double partition_seconds = 0.0;   ///< sharding (serial)
  double work_seconds = 0.0;        ///< per-shard passes (parallel section)
  double reassemble_seconds = 0.0;  ///< stitching (serial)
};

/// A network->network pass applied to one shard.  Must be safe to invoke
/// concurrently on distinct shards.
using ShardPassFn = std::function<Network(const Network&)>;

/// Generic partition-parallel driver: partitions \p net (params.partition),
/// applies \p pass to every shard on up to params.num_threads workers, and
/// reassembles in fixed partition order.  Exceptions thrown by \p pass
/// surface in shard-index order.  Bit-identical for any thread count.
Network par_run(const Network& net, const ShardPassFn& pass,
                const ParParams& params = {}, ParStats* stats = nullptr,
                const ReassembleOptions& reassemble_opts = {});

/// Parallel choice-aware LUT mapping: shards the network (carrying choice
/// classes into the shards when map_params.use_choices), maps every shard
/// with lut_map(), and stitches the shard LUT networks over the original
/// PI/PO interface, structurally hashing LUTs so logic duplicated across
/// shards (kOutputCones) collapses back to one copy.  \p map_stats
/// (optional) receives the merged mapping statistics.
LutNetwork par_map_lut(const Network& net, const LutMapParams& map_params = {},
                       const ParParams& params = {}, ParStats* stats = nullptr,
                       LutMapStats* map_stats = nullptr);

}  // namespace mcs
