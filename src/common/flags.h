// Minimal command-line flag parsing for bench and example binaries.
// Syntax: --name=value, --name value, or a bare --name (value "true"). Each
// binary names the flags it accepts; a positional argument, an unknown name,
// or a non-numeric value for GetInt/GetDouble exits 2 with a message.
#ifndef DITTO_COMMON_FLAGS_H_
#define DITTO_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

namespace ditto {

class Flags {
 public:
  // Parses argv against the accepted flag names; exits 2 on malformed input
  // or a name outside `accepted`.
  Flags(int argc, char** argv, std::initializer_list<const char*> accepted);

  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;

 private:
  // The value given for `name`, or nullptr when it was not passed.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
};

}  // namespace ditto

#endif  // DITTO_COMMON_FLAGS_H_
