// String helpers shared across the PTI library.
//
// The conformance rules of the paper (Section 4.2) compare type and member
// names case-insensitively, so case-folding primitives live here and are
// used consistently by the registry, the conformance checker and the XML
// type-description format.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pti::util {

/// ASCII lower-casing (type names in the model are ASCII identifiers).
[[nodiscard]] constexpr char to_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive equality, the comparison used for name conformance.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Case-insensitive less-than, suitable as a map comparator.
[[nodiscard]] bool iless(std::string_view a, std::string_view b) noexcept;

/// Transparent case-insensitive comparator for ordered containers.
struct ICaseLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return iless(a, b);
  }
};

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Splits on a single character; empty segments are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator string.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Glob-style match with `*` (any run) and `?` (any one char),
/// case-insensitive. Used by the optional wildcard extension to name
/// conformance that the paper mentions ("wildcards could be allowed").
[[nodiscard]] bool wildcard_match(std::string_view pattern, std::string_view text) noexcept;

/// Case-insensitive substring test.
[[nodiscard]] bool icontains(std::string_view haystack, std::string_view needle) noexcept;

/// Splits an identifier into lower-cased word tokens on camelCase humps,
/// underscores, dashes and digit boundaries:
///   "getPersonName" -> {"get", "person", "name"}
///   "set_name"      -> {"set", "name"}
/// Used by the member-name conformance rule (a target member name conforms
/// to a source member name when one token set includes the other — the
/// reconstruction of the paper's lenient method-name matching that makes
/// `getName` interoperate with `getPersonName`).
[[nodiscard]] std::vector<std::string> identifier_tokens(std::string_view identifier);

/// The tokenizer behind identifier_tokens, without allocating: calls
/// `emit(span)` for each token in order, where `span` is the substring of
/// `identifier` whose lower-cased form is the token (tokens are
/// contiguous and never contain a separator).
template <typename Emit>
void for_each_identifier_token(std::string_view identifier, Emit&& emit) {
  const auto is_upper = [](char c) { return c >= 'A' && c <= 'Z'; };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t start = 0;  // first character of the token being built
  const auto flush = [&](std::size_t end) {
    if (end > start) emit(identifier.substr(start, end - start));
    start = end;
  };
  for (std::size_t i = 0; i < identifier.size(); ++i) {
    const char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ') {
      flush(i);
      start = i + 1;
      continue;
    }
    // New hump: an upper-case letter starts a token, except inside an
    // acronym run ("XMLParser" -> "xml", "parser").
    if (is_upper(c)) {
      const bool prev_lower = i > 0 && !is_upper(identifier[i - 1]) &&
                              !is_digit(identifier[i - 1]) && identifier[i - 1] != '_';
      const bool next_lower = i + 1 < identifier.size() && !is_upper(identifier[i + 1]) &&
                              !is_digit(identifier[i + 1]) && identifier[i + 1] != '_';
      if (prev_lower || (next_lower && i > start)) flush(i);
    } else if (is_digit(c)) {
      if (i > start && !is_digit(identifier[i - 1])) flush(i);
    } else if (i > start && is_digit(identifier[i - 1])) {
      flush(i);
    }
  }
  flush(identifier.size());
}

/// True when every token of `a` appears among the tokens of `b` or vice
/// versa (set inclusion either way); two token-less names match, a
/// token-less name matches nothing else. This is the reference for the
/// TokenSubset member-name rule: ConformanceChecker answers it from token
/// tables built once per check, and the tests hold those tables to this
/// function, which tokenizes both names on every call.
[[nodiscard]] bool token_subset_match(std::string_view a, std::string_view b);

}  // namespace pti::util
