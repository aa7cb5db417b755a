// String helpers used by the IR printer/parser and report generators.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace luis {

/// Splits on `sep`, dropping empty fields.
std::vector<std::string> split_fields(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Full-token number parsing: succeeds only when the entire token is a
/// number. "3.5.2", "1e" or "0,1" parse a prefix and leave trailing
/// garbage, which is rejected rather than silently read as the prefix.
bool parse_full_number(const std::string& tok, double& out);
/// Decimal integer, optionally negative.
bool parse_full_int(std::string_view tok, std::int64_t& out);

/// printf-style formatting into a std::string.
std::string format_string(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Left-pads `text` with spaces to at least `width` characters.
std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
std::string pad_right(std::string_view text, std::size_t width);

} // namespace luis
