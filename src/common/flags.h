// Typed command-line flag parsing for the CLI and bench harnesses.
//
// Replaces the old ad-hoc string-map parsing: every flag is declared
// up front with a type, a default (taken from the bound variable) and
// help text.  Unknown flags, missing values and malformed numbers are
// hard errors, not silent no-ops.
//
//   std::string app = "sage-1000";
//   bool no_compress = false;
//   FlagSet flags("ickpt study");
//   flags.add_string("app", &app, "application to study");
//   flags.add_bool("no-compress", &no_compress, "store pages verbatim");
//   ICKPT_RETURN_IF_ERROR(flags.parse(argc, argv, 2));
//
// Accepted syntax: --name value, --name=value; booleans additionally
// accept bare --name (true) and --name=true|false|1|0|yes|no.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace ickpt {

class FlagSet {
 public:
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  void add_string(std::string name, std::string* target, std::string help);
  void add_int(std::string name, int* target, std::string help);
  void add_double(std::string name, double* target, std::string help);
  void add_bool(std::string name, bool* target, std::string help);

  /// Parse argv[first..argc).  On error the bound variables may be
  /// partially updated; callers are expected to exit.
  Status parse(int argc, char* const* argv, int first = 1);

  /// Positional (non-flag) arguments encountered during parse().
  /// Empty unless allow_positional(true) was called; otherwise a
  /// positional argument is a parse error.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  void allow_positional(bool allow) noexcept { allow_positional_ = allow; }

  /// One line per flag: --name=<type> (default: X)  help text.
  std::string help() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };

  struct Flag {
    std::string name;
    Type type = Type::kString;
    void* target = nullptr;
    std::string help;
    std::string default_str;
  };

  const Flag* find(const std::string& name) const;
  Status set_value(const Flag& flag, const std::string& value);

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  bool allow_positional_ = false;
};

}  // namespace ickpt
