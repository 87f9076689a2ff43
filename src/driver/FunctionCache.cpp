//===- driver/FunctionCache.cpp --------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/FunctionCache.h"

#include "ir/IrPrinter.h"

using namespace impact;

std::string FunctionDefinitionCache::makeKey(const Function &F,
                                             const OptOptions &Opts) {
  // Every OptOptions field must be fingerprinted below, one line per
  // knob: a knob missing here silently serves bodies optimized under a
  // different pass set to cache hits. The size tripwire catches a new
  // field that changes the struct's layout; the exhaustive toggle test
  // (PipelineTests, CacheKeyCoversEveryOptOption) catches one that
  // padding hides — update both together with this fingerprint.
  static_assert(sizeof(OptOptions) == 6,
                "OptOptions changed: update makeKey's option fingerprint "
                "and the sizeof above");
  std::string Key;
  Key.reserve(64 + F.size() * 24);
  // Option fingerprint: every knob that steers the pre-opt pipeline.
  Key += 'o';
  Key += static_cast<char>('0' + Opts.ConstantFolding);
  Key += static_cast<char>('0' + Opts.JumpOptimization);
  Key += static_cast<char>('0' + Opts.CopyPropagation);
  Key += static_cast<char>('0' + Opts.DeadCodeElimination);
  Key += static_cast<char>('0' + Opts.TailRecursionElimination);
  Key += static_cast<char>('0' + Opts.LoopInvariantCodeMotion);
  // Signature and body, rendered exactly (printInstr includes register
  // names, immediates, targets, callee ids, and site ids). The function
  // name is deliberately excluded: renaming cannot affect the optimizer.
  Key += "|s";
  Key += std::to_string(F.NumParams);
  Key += ',';
  Key += std::to_string(F.NumRegs);
  Key += ',';
  Key += std::to_string(F.FrameSize);
  Key += ',';
  Key += static_cast<char>('0' + F.ReturnsVoid);
  Key += static_cast<char>('0' + F.AddressTaken);
  Key += static_cast<char>('0' + F.Eliminated);
  for (const BasicBlock &B : F.Blocks) {
    Key += ";b\n";
    for (const Instr &I : B.Instrs) {
      Key += printInstr(I, &F);
      // Tail-recursion elimination rewrites only calls whose callee is the
      // enclosing function, so self-call status is part of the body's
      // optimization-relevant identity: a wrapper whose printed body is
      // byte-identical to a self-recursive function's must not share its
      // key.
      if (I.Op == Opcode::Call && I.Callee == F.Id)
        Key += " @self";
      Key += '\n';
    }
  }
  return Key;
}

FunctionDefinitionCache::Shard &
FunctionDefinitionCache::shardFor(const Hash128 &Key) const {
  return Shards[Key.Hi % kShardCount];
}

bool FunctionDefinitionCache::lookup(const std::string &Key, Function &F) {
  Hash128 H = hash128(Key);
  Shard &S = shardFor(H);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(H);
  if (It == S.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const CachedBody &Body = It->second;
  F.NumRegs = Body.NumRegs;
  F.FrameSize = Body.FrameSize;
  F.Blocks = Body.Blocks;
  F.RegNames = Body.RegNames;
  Hits.fetch_add(1, std::memory_order_relaxed);
  InstrsServed.fetch_add(Body.Size, std::memory_order_relaxed);
  return true;
}

void FunctionDefinitionCache::insert(const std::string &Key,
                                     const Function &F) {
  // Anti-poisoning backstop: a live function with no body is the
  // signature of a half-built clone; storing it would splice an empty
  // body into every later unit that hits this key.
  if (F.Blocks.empty() && !F.Eliminated && !F.IsExternal) {
    RejectedInserts.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  CachedBody Body;
  Body.NumRegs = F.NumRegs;
  Body.FrameSize = F.FrameSize;
  Body.Blocks = F.Blocks;
  Body.RegNames = F.RegNames;
  Body.Size = F.size();
  Hash128 H = hash128(Key);
  Shard &S = shardFor(H);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Map.emplace(H, std::move(Body));
}

FunctionCacheStats FunctionDefinitionCache::getStats() const {
  FunctionCacheStats Stats;
  Stats.Hits = Hits.load(std::memory_order_relaxed);
  Stats.Misses = Misses.load(std::memory_order_relaxed);
  Stats.InstrsServed = InstrsServed.load(std::memory_order_relaxed);
  Stats.RejectedInserts = RejectedInserts.load(std::memory_order_relaxed);
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Stats.Entries += S.Map.size();
  }
  return Stats;
}

void FunctionDefinitionCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Map.clear();
  }
  for (std::atomic<uint64_t> *C :
       {&Hits, &Misses, &InstrsServed, &RejectedInserts})
    C->store(0, std::memory_order_relaxed);
}
