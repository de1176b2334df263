#include "check/check.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace icb {

namespace {

int levelFromEnv() {
  const char* env = std::getenv("ICBDD_CHECK_LEVEL");
  if (env == nullptr) return static_cast<int>(CheckLevel::kOff);
  CheckLevel parsed;
  if (parseCheckLevel(env, &parsed)) return static_cast<int>(parsed);
  return static_cast<int>(CheckLevel::kOff);
}

}  // namespace

namespace check_detail {
std::atomic<int> g_level{levelFromEnv()};
}  // namespace check_detail

void setCheckLevel(CheckLevel level) {
  // relaxed: pairs with the relaxed load in checkLevel() -- the level is an
  // independent int with no associated payload to publish.
  check_detail::g_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

bool parseCheckLevel(const std::string& text, CheckLevel* out) {
  std::string lower(text.size(), '\0');
  std::transform(text.begin(), text.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "off" || lower == "0" || lower == "none") {
    *out = CheckLevel::kOff;
  } else if (lower == "cheap" || lower == "1") {
    *out = CheckLevel::kCheap;
  } else if (lower == "full" || lower == "2") {
    *out = CheckLevel::kFull;
  } else {
    return false;
  }
  return true;
}

const char* violationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kInvalidEdge: return "invalid-edge";
    case ViolationKind::kComplementedThenArc: return "complemented-then-arc";
    case ViolationKind::kRedundantNode: return "redundant-node";
    case ViolationKind::kOrderViolation: return "order-violation";
    case ViolationKind::kDanglingChild: return "dangling-child";
    case ViolationKind::kDuplicateNode: return "duplicate-node";
    case ViolationKind::kUniqueTableMiss: return "unique-table-miss";
    case ViolationKind::kUniqueTableChainCorrupt:
      return "unique-table-chain-corrupt";
    case ViolationKind::kFreeListCorrupt: return "free-list-corrupt";
    case ViolationKind::kStaleRefOnFreeNode: return "stale-ref-on-free-node";
    case ViolationKind::kVarEdgeCorrupt: return "var-edge-corrupt";
    case ViolationKind::kRefUnderflow: return "ref-underflow";
    case ViolationKind::kReorderBookMismatch: return "reorder-book-mismatch";
    case ViolationKind::kCacheDanglingEdge: return "cache-dangling-edge";
    case ViolationKind::kCacheWrongResult: return "cache-wrong-result";
    case ViolationKind::kDenotationChanged: return "denotation-changed";
    case ViolationKind::kPairTableMismatch: return "pair-table-mismatch";
    case ViolationKind::kPairTableStaleSize: return "pair-table-stale-size";
  }
  return "?";
}

bool CheckReport::has(ViolationKind kind) const {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

std::string CheckReport::summary() const {
  if (ok()) {
    return "ok (" + std::to_string(itemsChecked) + " items checked)";
  }
  std::string out = std::to_string(violations.size()) + " violation" +
                    (violations.size() == 1 ? "" : "s") + ":";
  for (const Violation& v : violations) {
    out += "\n  [";
    out += violationKindName(v.kind);
    out += "] ";
    out += v.detail;
  }
  return out;
}

void CheckReport::throwIfBroken() const {
  if (!violations.empty()) {
    throw CheckFailure(violations.front().kind, violations.front().detail);
  }
}

}  // namespace icb
