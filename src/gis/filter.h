// LDAP-style search filters:
//
//   (attr=value)      equality (value may contain '*' and '?' wildcards)
//   (attr=*)          presence
//   (&(f1)(f2)...)    conjunction
//   (|(f1)(f2)...)    disjunction
//   (!(f))            negation
//
// Attribute names are case-insensitive; wildcard matching is the
// util::globMatch semantics ('*' any run, '?' any one character). Matching
// a multi-valued attribute succeeds if any value matches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gis/record.h"

namespace mg::gis {

class Filter {
 public:
  /// Parse a filter expression; throws ParseError.
  static Filter parse(const std::string& text);

  /// A filter matching every record.
  static Filter matchAll();

  bool matches(const Record& record) const;

  std::string str() const;

 private:
  enum class Kind { Equals, Presence, And, Or, Not, True };

  Kind kind_ = Kind::True;
  std::string attr_;
  std::string pattern_;
  std::vector<Filter> children_;

  static Filter parseNode(const std::string& text, std::size_t& pos);
};

}  // namespace mg::gis
