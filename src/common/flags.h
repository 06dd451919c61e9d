// Minimal command-line flag parsing for bench and example binaries.
// Syntax: --name=value, --name value, or a bare --name (value "true"). Each
// binary names the flags it accepts; a positional argument, an unknown name,
// a non-numeric value for GetInt/GetDouble, or a GetInt value outside its
// stated range exits 2 with a message.
#ifndef DITTO_COMMON_FLAGS_H_
#define DITTO_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

namespace ditto {

class Flags {
 public:
  // Parses argv against the accepted flag names; exits 2 on malformed input
  // or a name outside `accepted`.
  Flags(int argc, char** argv, std::initializer_list<const char*> accepted);

  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  std::string GetString(const std::string& name, const std::string& def) const;
  double GetDouble(const std::string& name, double def) const;

  // The value of `name` as a T in [lo, hi], or `def` when it was not passed.
  // A value outside [lo, hi] exits 2 naming the flag and the range, so no
  // value is truncated on its way into T.
  template <typename T>
  T GetInt(const std::string& name, T def, T lo, T hi) const {
    static_assert(std::is_integral_v<T> && sizeof(T) <= sizeof(int64_t));
    const std::string* text = Find(name);
    if (text == nullptr) {
      return def;
    }
    const int64_t hi64 = std::in_range<int64_t>(hi) ? static_cast<int64_t>(hi)
                                                    : std::numeric_limits<int64_t>::max();
    return static_cast<T>(ParseInt(name, *text, static_cast<int64_t>(lo), hi64));
  }

 private:
  // The value given for `name`, or nullptr when it was not passed.
  const std::string* Find(const std::string& name) const;
  // `text` as an integer in [lo, hi]; exits 2 otherwise.
  static int64_t ParseInt(const std::string& name, const std::string& text, int64_t lo,
                          int64_t hi);

  std::map<std::string, std::string> values_;
};

}  // namespace ditto

#endif  // DITTO_COMMON_FLAGS_H_
