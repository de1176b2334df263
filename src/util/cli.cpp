#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace icb {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> accepted)
    : accepted_(std::move(accepted)) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (name == "help") usageExit("");
    if (std::find(accepted_.begin(), accepted_.end(), name) ==
        accepted_.end()) {
      usageExit("unknown flag --" + name);
    }
    if (eq != std::string::npos) {
      flags_[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "true";  // boolean switch
    }
  }
}

void CliArgs::usageExit(const std::string& error) const {
  std::string text = error.empty() ? "" : program_ + ": " + error + "\n";
  text += "usage: " + program_;
  for (const std::string& flag : accepted_) text += " [--" + flag + "]";
  std::fprintf(stderr, "%s\n", text.c_str());
  std::exit(error.empty() ? 0 : 2);
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::getString(const std::string& name,
                               const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliArgs::getInt(const std::string& name, std::int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    usageExit("--" + name + " wants a whole number, got '" + it->second + "'");
  }
  return value;
}

double CliArgs::getDouble(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    usageExit("--" + name + " wants a number, got '" + it->second + "'");
  }
  return value;
}

bool CliArgs::getBool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("bad boolean flag --" + name + "=" + v);
}

}  // namespace icb
