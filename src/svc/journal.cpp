#include "svc/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace icb::svc {

namespace fs = std::filesystem;

namespace {

/// Temp-then-rename so a kill mid-write never leaves a torn file: rename
/// within one directory is atomic on POSIX filesystems.
void writeAtomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw std::runtime_error("journal: cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) throw std::runtime_error("journal: short write to " + tmp);
  }
  fs::rename(tmp, path);
}

}  // namespace

JobJournal::JobJournal(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("journal: cannot create directory " + dir_);
  }
}

std::string JobJournal::pathFor(const std::string& id,
                                const char* suffix) const {
  return dir_ + "/" + id + suffix;
}

void JobJournal::countWrite() {
  const MutexLock lock(statsMutex_);
  ++writes_;
  healthy_ = true;
  hasWritten_ = true;
  lastWriteWatch_.reset();
  lastError_.clear();
}

void JobJournal::countFailure(const std::string& what) {
  const MutexLock lock(statsMutex_);
  ++writeFailures_;
  healthy_ = false;
  lastError_ = what;
}

std::uint64_t JobJournal::writesRecorded() const {
  const MutexLock lock(statsMutex_);
  return writes_;
}

std::uint64_t JobJournal::writeFailures() const {
  const MutexLock lock(statsMutex_);
  return writeFailures_;
}

bool JobJournal::healthy() const {
  const MutexLock lock(statsMutex_);
  return healthy_;
}

double JobJournal::secondsSinceLastWrite() const {
  const MutexLock lock(statsMutex_);
  if (!hasWritten_) return -1.0;
  return lastWriteWatch_.elapsedSeconds();
}

std::string JobJournal::lastError() const {
  const MutexLock lock(statsMutex_);
  return lastError_;
}

void JobJournal::recordAccepted(const std::string& id,
                                const std::string& requestLine) {
  try {
    writeAtomically(pathFor(id, ".req"), requestLine + "\n");
  } catch (const std::exception& e) {
    countFailure(e.what());
    return;
  }
  countWrite();
}

void JobJournal::recordCheckpoint(const std::string& id,
                                  const std::string& snapshot) {
  try {
    writeAtomically(pathFor(id, ".ckpt"), snapshot);
  } catch (const std::exception& e) {
    countFailure(e.what());
    return;
  }
  countWrite();
}

std::optional<std::string> JobJournal::checkpointBytes(
    const std::string& id) const {
  std::ifstream in(pathFor(id, ".ckpt"), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

void JobJournal::remove(const std::string& id) {
  std::error_code ec;
  fs::remove(pathFor(id, ".req"), ec);
  fs::remove(pathFor(id, ".ckpt"), ec);
}

std::vector<std::string> JobJournal::recoverableRequests() const {
  std::vector<fs::path> reqs;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".req") {
      reqs.push_back(entry.path());
    }
  }
  std::sort(reqs.begin(), reqs.end());
  std::vector<std::string> lines;
  lines.reserve(reqs.size());
  for (const fs::path& path : reqs) {
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line) && !line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace icb::svc
