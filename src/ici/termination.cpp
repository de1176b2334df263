#include "ici/termination.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace icb {

namespace {

enum class ScanVerdict { kOpen, kStep1Tautology, kStep2Tautology };

/// Step 1 + step 2 bookkeeping: drops FALSEs and duplicates in place.
/// Reports which rule (if any) already proves the disjunction a tautology
/// (a TRUE member is step 1, a complementary pair step 2).
ScanVerdict constantAndComplementScan(std::vector<Edge>& d) {
  std::unordered_set<Edge> seen;
  std::vector<Edge> kept;
  kept.reserve(d.size());
  for (const Edge e : d) {
    if (e == kTrueEdge) return ScanVerdict::kStep1Tautology;
    if (e == kFalseEdge) continue;  // step 1: drop
    if (seen.count(edgeNot(e)) != 0) return ScanVerdict::kStep2Tautology;
    if (seen.insert(e).second) kept.push_back(e);  // step 2: duplicates
  }
  d = std::move(kept);
  return ScanVerdict::kOpen;
}

/// Empty tuples of one ImplicationSearch, stored back to back as
/// [n, e_1, ..., e_n] records in one flat arena and indexed by an
/// open-addressing table of record offsets + 1 (0 marks a free slot).
/// Cleared when the arena passes kMaxWords; the search is exact without it.
class EmptyTupleMemo {
 public:
  /// Is the tuple t[0, n) stored?  When not and `add` is set, stores it.
  bool find(const Edge* t, std::uint32_t n, bool add) {
    if (add && words_.size() + n + 1 > kMaxWords) {
      words_.clear();
      slots_.assign(slots_.size(), 0);
      count_ = 0;
    }
    if (add && 2 * ++count_ > slots_.size()) {
      std::vector<std::uint32_t> old(std::max<std::size_t>(1024, 2 * slots_.size()));
      old.swap(slots_);
      for (const std::uint32_t slot : old) {
        if (slot != 0) *probe(words_.data() + slot, words_[slot - 1]) = slot;
      }
    }
    if (slots_.empty()) return false;
    std::uint32_t* slot = probe(t, n);
    if (*slot != 0) return true;
    if (add) {
      *slot = static_cast<std::uint32_t>(words_.size()) + 1;
      words_.push_back(n);
      words_.insert(words_.end(), t, t + n);
    }
    return false;
  }

 private:
  static constexpr std::size_t kMaxWords = std::size_t{1} << 21;  // 8 MB

  /// The slot holding t[0, n), or the free slot where it would go.
  std::uint32_t* probe(const Edge* t, std::uint32_t n) {
    std::uint64_t h = n;
    for (std::uint32_t i = 0; i < n; ++i) h = (h ^ t[i]) * 0x9E3779B97F4A7C15ull;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) return &slots_[i];
      const Edge* rec = &words_[slots_[i] - 1];
      if (rec[0] == n && std::equal(t, t + n, rec + 1)) return &slots_[i];
    }
  }

  std::vector<Edge> words_;
  std::vector<std::uint32_t> slots_;
  std::size_t count_ = 0;
};

/// Decides X_1 & ... & X_n & !Y_k = 0 by a simultaneous Shannon recursion on
/// the tuple of members, following arcs only.  The tuples of the recursion
/// live back to back in tuple_, the current one at its end.
class ImplicationSearch {
 public:
  ImplicationSearch(BddManager& mgr, TerminationStats& stats)
      : mgr_(mgr), stats_(stats) {}

  bool implies(const ConjunctList& x, Edge y) {
    ++stats_.implicationChecks;
    if (y == kTrueEdge) return true;
    tuple_.clear();
    for (const Bdd& xi : x) tuple_.push_back(xi.edge());
    tuple_.push_back(edgeNot(y));
    return isEmpty(0, 0);
  }

  bool implies(const ConjunctList& x, const ConjunctList& y) {
    return std::all_of(y.begin(), y.end(),
                       [&](const Bdd& yk) { return implies(x, yk.edge()); });
  }

 private:
  /// Is the conjunction of tuple_[begin, end) unsatisfiable?  Normalizes
  /// the tuple in place and may leave its children behind it.
  bool isEmpty(std::size_t begin, std::uint64_t depth) {
    ++stats_.tautologyCalls;
    stats_.maxDepth = std::max(stats_.maxDepth, depth);
    const auto first = tuple_.begin() + static_cast<std::ptrdiff_t>(begin);
    auto last = std::remove(first, tuple_.end(), kTrueEdge);
    if (std::find(first, last, kFalseEdge) != last) {
      ++stats_.step1Hits;
      return true;
    }
    // Sorting puts e next to !e: they differ only in the complement bit.
    std::sort(first, last);
    last = std::unique(first, last);
    if (std::adjacent_find(first, last, [](Edge a, Edge b) {
          return b == edgeNot(a);
        }) != last) {
      ++stats_.step2Hits;
      return true;
    }
    tuple_.erase(last, tuple_.end());
    const auto n = static_cast<std::uint32_t>(tuple_.size() - begin);
    if (n <= 1) return false;  // TRUE, or one non-constant member
    if (memo_.find(tuple_.data() + begin, n, false)) return true;

    ++stats_.shannonExpansions;
    mgr_.pollLimits();
    unsigned top = BddManager::kTermLevel;
    for (std::size_t i = begin; i < tuple_.size(); ++i) {
      top = std::min(top, mgr_.edgeLevel(tuple_[i]));
    }
    for (const bool high : {true, false}) {
      const std::size_t child = tuple_.size();
      for (std::size_t i = begin; i < child; ++i) {
        const Edge e = tuple_[i];
        tuple_.push_back(mgr_.edgeLevel(e) != top ? e
                         : high                   ? mgr_.edgeThen(e)
                                                  : mgr_.edgeElse(e));
      }
      const bool empty = isEmpty(child, depth + 1);
      tuple_.resize(child);
      if (!empty) return false;  // the first satisfying path ends the search
    }
    (void)memo_.find(tuple_.data() + begin, n, true);
    return true;
  }

  BddManager& mgr_;
  TerminationStats& stats_;
  std::vector<Edge> tuple_;
  EmptyTupleMemo memo_;
};

}  // namespace

bool TerminationChecker::disjunctionIsTautology(std::vector<Edge> disjuncts) {
  return tautRec(std::move(disjuncts), 0);
}

bool TerminationChecker::tautRec(std::vector<Edge> d, std::uint64_t depth) {
  ++stats_.tautologyCalls;
  stats_.maxDepth = std::max(stats_.maxDepth, depth);

  switch (constantAndComplementScan(d)) {
    case ScanVerdict::kStep1Tautology:
      ++stats_.step1Hits;
      return true;
    case ScanVerdict::kStep2Tautology:
      ++stats_.step2Hits;
      return true;
    case ScanVerdict::kOpen:
      break;
  }
  if (d.empty()) return false;            // empty disjunction is FALSE
  if (d.size() == 1) return false;        // single non-TRUE member

  // ---- step 3 ----
  if (options_.restrictShortcut) {
    // Theorem 3: a | b is a tautology iff Restrict(a, !b) is.  Simplifying
    // each member by the negations of all the others and re-running step 1
    // subsumes the pairwise scan, and shrinks the members as a bonus.
    bool changed = false;
    for (std::size_t i = 0; i < d.size(); ++i) {
      for (std::size_t j = 0; j < d.size(); ++j) {
        if (i == j || d[i] == kFalseEdge) continue;
        const Edge simplified = mgr_.restrictE(d[i], edgeNot(d[j]));
        if (simplified == kTrueEdge) {
          ++stats_.step3Hits;
          return true;
        }
        if (simplified != d[i]) {
          // Keep only results that do not grow (Restrict may enlarge).
          if (simplified == kFalseEdge ||
              mgr_.sizeE(simplified) <= mgr_.sizeE(d[i])) {
            d[i] = simplified;
            changed = true;
          }
        }
      }
    }
    // Any conclusion the re-scan reaches was exposed by the Restrict pass,
    // so it is attributed to step 3 regardless of the closing rule.
    if (changed && constantAndComplementScan(d) != ScanVerdict::kOpen) {
      ++stats_.step3Hits;
      return true;
    }
    if (d.empty()) return false;
    if (d.size() == 1) return d[0] == kTrueEdge;
  } else {
    // Literal step 3: pairwise disjunction equal to TRUE.
    for (std::size_t i = 0; i < d.size(); ++i) {
      for (std::size_t j = i + 1; j < d.size(); ++j) {
        if (mgr_.orE(d[i], d[j]) == kTrueEdge) {
          ++stats_.step3Hits;
          return true;
        }
      }
    }
  }

  // ---- step 4: Shannon expansion ----
  // Note: the chosen variable need not be at the TOP of every member (with
  // the paper's "top of the first BDD" policy it usually is not), so each
  // member needs a genuine cofactor, not just an arc dereference.
  ++stats_.shannonExpansions;
  const unsigned var = chooseVar(d);
  std::vector<Edge> hi;
  std::vector<Edge> lo;
  hi.reserve(d.size());
  lo.reserve(d.size());
  const unsigned level = mgr_.varLevel(var);
  for (const Edge e : d) {
    if (!edgeIsConstant(e) && mgr_.edgeLevel(e) == level) {
      hi.push_back(mgr_.edgeThen(e));
      lo.push_back(mgr_.edgeElse(e));
    } else if (edgeIsConstant(e) || mgr_.edgeLevel(e) > level) {
      hi.push_back(e);  // e cannot depend on a variable above its top
      lo.push_back(e);
    } else {
      hi.push_back(mgr_.cofactorE(e, var, true));
      lo.push_back(mgr_.cofactorE(e, var, false));
    }
  }
  return tautRec(std::move(hi), depth + 1) && tautRec(std::move(lo), depth + 1);
}

unsigned TerminationChecker::chooseVar(const std::vector<Edge>& d) const {
  switch (options_.cofactorChoice) {
    case CofactorChoice::kTopOfFirst: {
      // "we are currently selecting the top BDD variable of the first BDD
      //  in the list as the variable to cofactor on"
      for (const Edge e : d) {
        if (!edgeIsConstant(e)) return mgr_.nodeVar(e);
      }
      break;
    }
    case CofactorChoice::kHighestLevel: {
      unsigned bestLevel = BddManager::kTermLevel;
      unsigned bestVar = 0;
      for (const Edge e : d) {
        if (edgeIsConstant(e)) continue;
        const unsigned l = mgr_.edgeLevel(e);
        if (l < bestLevel) {
          bestLevel = l;
          bestVar = mgr_.nodeVar(e);
        }
      }
      if (bestLevel != BddManager::kTermLevel) return bestVar;
      break;
    }
    case CofactorChoice::kMostCommon: {
      std::unordered_map<unsigned, unsigned> counts;
      unsigned bestVar = 0;
      unsigned bestCount = 0;
      for (const Edge e : d) {
        if (edgeIsConstant(e)) continue;
        const unsigned v = mgr_.nodeVar(e);
        const unsigned c = ++counts[v];
        // Tie-break toward the topmost level for progress guarantees.
        if (c > bestCount ||
            (c == bestCount && mgr_.varLevel(v) < mgr_.varLevel(bestVar))) {
          bestVar = v;
          bestCount = c;
        }
      }
      if (bestCount > 0) return bestVar;
      break;
    }
  }
  throw BddUsageError("chooseVar on an all-constant disjunction");
}

bool TerminationChecker::implies(const ConjunctList& x, const Bdd& y) {
  return ImplicationSearch(mgr_, stats_).implies(x, y.edge());
}

bool TerminationChecker::implies(const ConjunctList& x, const ConjunctList& y) {
  return ImplicationSearch(mgr_, stats_).implies(x, y);
}

bool TerminationChecker::equal(const ConjunctList& candidateSubset,
                               const ConjunctList& candidateSuperset) {
  // Cheap structural screen first: identical lists are trivially equal.
  if (candidateSubset.structurallyEqualUnordered(candidateSuperset)) {
    return true;
  }
  ImplicationSearch search(mgr_, stats_);
  return search.implies(candidateSuperset, candidateSubset) &&
         search.implies(candidateSubset, candidateSuperset);
}

}  // namespace icb
