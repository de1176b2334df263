#include "verif/checkpoint.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "bdd/serialize.hpp"
#include "util/timer.hpp"
#include "verif/run_all.hpp"

namespace icb {

namespace {

constexpr const char* kMagic = "icbdd-ckpt-v1";

/// Header-line reader tracking byte offsets, so truncated or garbled
/// checkpoints fail with a typed SerializeError pointing at the bad line
/// instead of silently resuming from a zeroed field.  The embedded dump
/// after the header lines is binary and read by loadBdds.
struct CkptLines {
  std::istream& is;
  std::string line;
  std::uint64_t offset = 0;     ///< offset of the next unread byte
  std::uint64_t lineStart = 0;  ///< offset of the most recently read line

  std::istringstream next(const char* what) {
    lineStart = offset;
    if (!std::getline(is, line)) {
      throw SerializeError(
          std::string("loadSnapshot: truncated input, expected ") + what,
          offset);
    }
    offset += line.size() + 1;
    return std::istringstream(line);
  }

  [[noreturn]] void bad(const char* what) const {
    throw SerializeError(std::string("loadSnapshot: malformed ") + what +
                             " line '" + line + "'",
                         lineStart);
  }
};

}  // namespace

void saveSnapshot(std::ostream& os, const BddManager& mgr,
                  const EngineSnapshot& snap) {
  os << kMagic << '\n';
  os << "method " << methodName(snap.method) << '\n';
  os << "iteration " << snap.iteration << '\n';
  os << "numbers " << snap.numbers.size();
  for (const std::uint64_t n : snap.numbers) os << ' ' << n;
  os << '\n';
  os << "lists " << snap.lists.size();
  std::vector<Bdd> flat;
  for (const std::vector<Bdd>& list : snap.lists) {
    os << ' ' << list.size();
    flat.insert(flat.end(), list.begin(), list.end());
  }
  os << '\n';
  saveBdds(os, mgr, flat);
}

EngineSnapshot loadSnapshot(std::istream& is, BddManager& mgr) {
  EngineSnapshot snap;
  CkptLines src{is, {}};
  {
    auto ls = src.next("magic line");
    std::string magic;
    ls >> magic;
    if (magic != kMagic) {
      throw SerializeError("loadSnapshot: bad magic '" + magic + "'", 0);
    }
  }
  {
    auto ls = src.next("method line");
    std::string key;
    std::string name;
    ls >> key >> name;
    if (ls.fail() || key != "method") src.bad("method");
    try {
      snap.method = parseMethod(name);
    } catch (const std::invalid_argument&) {
      throw SerializeError("loadSnapshot: unknown method '" + name + "'",
                           src.lineStart);
    }
  }
  {
    auto ls = src.next("iteration line");
    std::string key;
    ls >> key >> snap.iteration;
    if (ls.fail() || key != "iteration") src.bad("iteration");
  }
  {
    auto ls = src.next("numbers line");
    std::string key;
    std::size_t count = 0;
    ls >> key >> count;
    if (ls.fail() || key != "numbers") src.bad("numbers");
    snap.numbers.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!(ls >> snap.numbers[i])) src.bad("numbers (truncated values)");
    }
  }
  std::vector<std::size_t> lengths;
  {
    auto ls = src.next("lists line");
    std::string key;
    std::size_t count = 0;
    ls >> key >> count;
    if (ls.fail() || key != "lists") src.bad("lists");
    lengths.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!(ls >> lengths[i])) src.bad("lists (truncated lengths)");
    }
  }
  const std::vector<Bdd> flat = loadBdds(is, mgr);
  std::size_t at = 0;
  snap.lists.reserve(lengths.size());
  for (const std::size_t len : lengths) {
    if (at + len > flat.size()) {
      throw SerializeError("loadSnapshot: list lengths exceed root count",
                           src.offset);
    }
    snap.lists.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(at),
                            flat.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  }
  if (at != flat.size()) {
    throw SerializeError("loadSnapshot: list lengths below root count",
                         src.offset);
  }
  return snap;
}

void CheckpointEmitter::emit(unsigned iteration,
                             std::vector<std::vector<Bdd>> lists,
                             std::vector<std::uint64_t> numbers) {
  const Stopwatch watch;
  EngineSnapshot snap;
  snap.method = method_;
  snap.iteration = iteration;
  snap.lists = std::move(lists);
  snap.numbers = std::move(numbers);
  options_.sink(snap);
  lastEmitted_ = iteration;
  // Credit the sink's wall time (serialization + journal I/O) back to the
  // deadline, mirroring the trace layer: checkpointing must not be able to
  // flip a run into a spurious time-limit verdict.
  ResourceLimits limits = mgr_.limits();
  if (limits.deadline.isSet()) {
    limits.deadline.extendBySeconds(watch.elapsedSeconds());
    mgr_.setLimits(limits);
  }
}

}  // namespace icb
