#ifndef QMATCH_COMMON_STRING_UTIL_H_
#define QMATCH_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace qmatch {

/// ASCII character classification helpers (locale-independent).
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
inline bool IsAsciiLower(char c) { return c >= 'a' && c <= 'z'; }
inline bool IsAsciiAlpha(char c) { return IsAsciiUpper(c) || IsAsciiLower(c); }
inline char AsciiToLower(char c) {
  return IsAsciiUpper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}
inline char AsciiToUpper(char c) {
  return IsAsciiLower(c) ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Returns a lower-cased copy of `s` (ASCII only).
std::string ToLower(std::string_view s);

/// Returns an upper-cased copy of `s` (ASCII only).
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits `s` on every occurrence of `sep`. Adjacent separators yield empty
/// pieces; an empty input yields a single empty piece.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on `sep` and drops empty pieces after trimming whitespace.
std::vector<std::string> SplitSkipEmpty(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

}  // namespace qmatch

#endif  // QMATCH_COMMON_STRING_UTIL_H_
