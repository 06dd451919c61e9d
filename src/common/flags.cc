#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

namespace ditto {

Flags::Flags(int argc, char** argv, std::initializer_list<const char*> accepted) {
  const std::set<std::string> known(accepted.begin(), accepted.end());
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg);
      std::exit(2);
    }
    std::string body = arg + 2;
    std::string value = "true";
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body.resize(eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (known.count(body) == 0) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", argv[0], body.c_str());
      std::exit(2);
    }
    values_[body] = value;
  }
}

const std::string* Flags::Find(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t Flags::ParseInt(const std::string& name, const std::string& text, int64_t lo,
                        int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    std::fprintf(stderr, "flag --%s: '%s' is not an integer\n", name.c_str(), text.c_str());
    std::exit(2);
  }
  if (errno == ERANGE || value < lo || value > hi) {
    std::fprintf(stderr, "flag --%s: '%s' is outside [%lld, %lld]\n", name.c_str(),
                 text.c_str(), static_cast<long long>(lo), static_cast<long long>(hi));
    std::exit(2);
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value->c_str(), &end);
  if (value->empty() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "flag --%s: '%s' is not a number\n", name.c_str(), value->c_str());
    std::exit(2);
  }
  return parsed;
}

}  // namespace ditto
