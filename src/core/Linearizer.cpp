//===- core/Linearizer.cpp -----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Linearizer.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace impact;

namespace {

/// Fisher-Yates shuffle with the project RNG (std::shuffle is not
/// reproducible across standard libraries).
void shuffle(std::vector<FuncId> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

/// Bottom-up order: functions grouped by SCC, components emitted callees
/// first. Tarjan emits components in reverse topological order of the
/// condensation, which is exactly callees-before-callers.
std::vector<FuncId> bottomUpOrder(const Module &M, const CallGraph &G) {
  assert(G.sccComputed() && "linearizer needs SCC info");
  std::vector<FuncId> Ids;
  for (const Function &F : M.Funcs)
    if (!F.IsExternal)
      Ids.push_back(F.Id);
  std::stable_sort(Ids.begin(), Ids.end(), [&](FuncId A, FuncId B) {
    return G.getDirectSccId(A) < G.getDirectSccId(B);
  });
  return Ids;
}

} // namespace

Linearization impact::linearize(const Module &M, const CallGraph &G,
                                const InlineOptions &Options) {
  std::vector<FuncId> Seq;
  for (const Function &F : M.Funcs)
    if (!F.IsExternal)
      Seq.push_back(F.Id);

  Rng R(Options.RandomSeed);
  switch (Options.Policy) {
  case LinearizationPolicy::ProfileSorted:
    // §3.3: "places functions randomly into the list, and then sort the
    // functions by their execution counts".
    shuffle(Seq, R);
    std::stable_sort(Seq.begin(), Seq.end(), [&](FuncId A, FuncId B) {
      return G.getNodeWeight(A) > G.getNodeWeight(B);
    });
    break;
  case LinearizationPolicy::Random:
    shuffle(Seq, R);
    break;
  case LinearizationPolicy::BottomUp:
    Seq = bottomUpOrder(M, G);
    break;
  case LinearizationPolicy::SourceOrder:
    break; // declaration order as collected
  }

  // External functions close the sequence.
  for (const Function &F : M.Funcs)
    if (F.IsExternal)
      Seq.push_back(F.Id);

  Linearization L;
  L.Sequence = std::move(Seq);
  L.Position.assign(M.Funcs.size(), 0);
  for (size_t I = 0; I != L.Sequence.size(); ++I)
    L.Position[static_cast<size_t>(L.Sequence[I])] = I;
  return L;
}
