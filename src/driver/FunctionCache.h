//===- driver/FunctionCache.h - Sharded function-definition cache ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §3 function-definition cache, lifted to batch and server
/// scope: the linear expansion order lets IMPACT keep each function's
/// pre-processed definition around and reuse it; here we memoize the
/// result of the pre-inline classic optimization of a function *body* so
/// identical bodies — across suite programs in one batch, across the
/// ablation sweeps that recompile the same program dozens of times, and
/// across a compile server's recompiles — are optimized once. The cache
/// lives in memory only.
///
/// Content addressing: the logical key is exact, not probabilistic — the
/// full printed body (which renders every instruction field, register
/// name, signature flag, and the register/frame counts) plus a
/// fingerprint of the optimization options; calls that target the
/// function itself are marked because tail-recursion elimination treats
/// them differently from calls to any other function with the same
/// printed body. Internally entries are addressed by the stable 128-bit
/// digest of that key text (support/Hashing.h), so the map never holds
/// source-sized key strings.
/// Because the optimizer is deterministic, splicing a cached body is
/// bit-identical to re-running the passes, which is what keeps the batch
/// pipeline's output equal to the serial pipeline's.
///
/// Thread safety: the map is split into shards, each behind its own mutex,
/// so concurrent pipeline jobs rarely contend; hit/miss counters are
/// atomics.
///
/// Poisoning semantics: a failing unit must never plant an entry other
/// units would splice. The pipeline guarantees this structurally — insert
/// only runs after a function's pass pipeline completed, and any fault
/// unwinds before the insert — and the cache backstops it: insert()
/// rejects structurally invalid bodies (no blocks on a live function),
/// counting them in RejectedInserts instead of storing them.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_DRIVER_FUNCTIONCACHE_H
#define IMPACT_DRIVER_FUNCTIONCACHE_H

#include "ir/Ir.h"
#include "opt/PassManager.h"
#include "support/Hashing.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace impact {

/// Snapshot of cache effectiveness counters over the cache's lifetime.
struct FunctionCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Entries = 0;
  /// IL instructions of the bodies served from cache — the pass-pipeline
  /// work (per iteration) that was not redone.
  uint64_t InstrsServed = 0;
  /// Structurally invalid bodies insert() refused to store (always 0 in
  /// a healthy pipeline; see the poisoning note above).
  uint64_t RejectedInserts = 0;

  double getHitRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) /
                                  static_cast<double>(Total);
  }
};

class FunctionDefinitionCache {
public:
  /// The lookup key for optimizing \p F under \p Opts. Renders the body
  /// exactly (excluding the function name, which cannot affect the
  /// optimizer) so equal keys imply equal post-optimization bodies.
  static std::string makeKey(const Function &F, const OptOptions &Opts);

  /// On hit, splices the cached post-optimization body (blocks, register
  /// and frame counts, register names) into \p F and returns true.
  bool lookup(const std::string &Key, Function &F);

  /// Records \p F's post-optimization body under \p Key. Refuses (and
  /// counts) structurally invalid bodies — the anti-poisoning backstop.
  void insert(const std::string &Key, const Function &F);

  FunctionCacheStats getStats() const;
  void clear();

private:
  /// Body fields the pre-opt pipeline may change; identity fields (name,
  /// id, arity, linkage) stay the caller's.
  struct CachedBody {
    uint32_t NumRegs = 0;
    int64_t FrameSize = 0;
    std::vector<BasicBlock> Blocks;
    std::vector<std::string> RegNames;
    uint64_t Size = 0;
  };

  struct KeyHash {
    size_t operator()(const Hash128 &K) const {
      return static_cast<size_t>(K.Hi ^ K.Lo);
    }
  };

  struct Shard {
    std::mutex Mutex;
    std::unordered_map<Hash128, CachedBody, KeyHash> Map;
  };

  static constexpr unsigned kShardCount = 16;

  Shard &shardFor(const Hash128 &Key) const;

  mutable std::array<Shard, kShardCount> Shards;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> InstrsServed{0};
  std::atomic<uint64_t> RejectedInserts{0};
};

} // namespace impact

#endif // IMPACT_DRIVER_FUNCTIONCACHE_H
