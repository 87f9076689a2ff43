//===- core/CallSiteClassifier.cpp ---------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CallSiteClassifier.h"

using namespace impact;

const char *impact::getSiteClassName(SiteClass C) {
  switch (C) {
  case SiteClass::External:
    return "external";
  case SiteClass::Pointer:
    return "pointer";
  case SiteClass::Unsafe:
    return "unsafe";
  case SiteClass::Safe:
    return "safe";
  }
  return "?";
}

const char *impact::getUnsafeReasonName(UnsafeReason R) {
  switch (R) {
  case UnsafeReason::None:
    return "none";
  case UnsafeReason::StackHazard:
    return "stack-hazard";
  case UnsafeReason::LowWeight:
    return "low-weight";
  }
  return "?";
}

size_t Classification::countStatic(SiteClass C) const {
  size_t N = 0;
  for (const SiteInfo &S : Sites)
    if (S.Class == C)
      ++N;
  return N;
}

double Classification::sumDynamic(SiteClass C) const {
  double Sum = 0.0;
  for (const SiteInfo &S : Sites)
    if (S.Class == C)
      Sum += S.Weight;
  return Sum;
}

double Classification::sumDynamicTotal() const {
  double Sum = 0.0;
  for (const SiteInfo &S : Sites)
    Sum += S.Weight;
  return Sum;
}

const SiteInfo *Classification::findSite(uint32_t SiteId) const {
  for (const SiteInfo &S : Sites)
    if (S.SiteId == SiteId)
      return &S;
  return nullptr;
}

Classification impact::classifyCallSites(const Module &M, const CallGraph &G,
                                         const ProfileData &Profile,
                                         const InlineOptions &Options) {
  Classification Result;
  for (const Function &F : M.Funcs) {
    if (F.IsExternal)
      continue;
    for (const BasicBlock &B : F.Blocks) {
      for (const Instr &I : B.Instrs) {
        if (!I.isCall())
          continue;
        SiteInfo Info;
        Info.SiteId = I.SiteId;
        Info.Caller = F.Id;
        Info.Weight = Profile.getArcWeight(I.SiteId);

        if (I.Op == Opcode::CallPtr) {
          Info.Class = SiteClass::Pointer;
          Result.Sites.push_back(Info);
          continue;
        }
        Info.Callee = I.Callee;
        const Function &Callee = M.getFunction(I.Callee);
        if (Callee.IsExternal) {
          Info.Class = SiteClass::External;
          Result.Sites.push_back(Info);
          continue;
        }

        // Direct user-function call: apply the unsafe hazards in severity
        // order (stack > weight).
        if (G.isRecursive(F.Id) &&
            Callee.getActivationWords() > Options.StackBound) {
          Info.Class = SiteClass::Unsafe;
          Info.Reason = UnsafeReason::StackHazard;
        } else if (Info.Weight < Options.MinArcWeight) {
          Info.Class = SiteClass::Unsafe;
          Info.Reason = UnsafeReason::LowWeight;
        } else {
          Info.Class = SiteClass::Safe;
        }
        Result.Sites.push_back(Info);
      }
    }
  }
  return Result;
}
