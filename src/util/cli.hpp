// Minimal command-line flag parser for the example and benchmark binaries.
// Supports "--name value" and "--name=value" forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace icb {

/// Parses argv into a flag map against the flags the binary accepts.
/// Unknown positional arguments are kept in order and retrievable via
/// positional().  A flag outside `accepted` prints usage (the accepted
/// flags) to stderr and exits 2, before the binary does any work; --help
/// prints it and exits 0; getInt/getDouble exit 2 on a malformed number.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> accepted);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string getString(const std::string& name,
                                      const std::string& def) const;
  [[nodiscard]] std::int64_t getInt(const std::string& name,
                                    std::int64_t def) const;
  [[nodiscard]] double getDouble(const std::string& name, double def) const;
  [[nodiscard]] bool getBool(const std::string& name, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// Prints `error` (when non-empty) and the usage line to stderr, then
  /// exits: 2 after an error, 0 for --help.
  [[noreturn]] void usageExit(const std::string& error) const;

  std::string program_;
  std::vector<std::string> accepted_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace icb
