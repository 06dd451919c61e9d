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

namespace {

// Parses all of `text` with `parse` (strtoll or strtod); exits 2 naming the
// flag when `text` is not such a number.
template <typename ParseFn>
auto ParseOrExit(const std::string& name, const std::string& text, const char* kind,
                 ParseFn parse) {
  char* end = nullptr;
  errno = 0;
  const auto value = parse(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "flag --%s: '%s' is not %s\n", name.c_str(), text.c_str(), kind);
    std::exit(2);
  }
  return value;
}

}  // namespace

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const auto parse = [](const char* s, char** end) { return std::strtoll(s, end, 10); };
  const std::string* value = Find(name);
  return value == nullptr ? def : ParseOrExit(name, *value, "an integer", parse);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto parse = [](const char* s, char** end) { return std::strtod(s, end); };
  const std::string* value = Find(name);
  return value == nullptr ? def : ParseOrExit(name, *value, "a number", parse);
}

}  // namespace ditto
