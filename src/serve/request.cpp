#include "serve/request.hpp"

#include <cstdlib>

namespace spi::serve {

namespace {

constexpr std::string_view kWhitespace = " \t\r\n";

/// Position just past the top-level `"key":` (skipping whitespace), or
/// npos. Nested objects and arrays are skipped, and so is every string's
/// content (escapes included), so neither a nested key nor a string
/// value that merely contains the key matches.
std::size_t value_start(std::string_view body, std::string_view key) {
  int depth = 0;
  for (std::size_t p = 0; p < body.size(); ++p) {
    depth += (body[p] == '{' || body[p] == '[') - (body[p] == '}' || body[p] == ']');
    if (body[p] == '"') {
      const std::size_t open = p;
      while (++p < body.size() && body[p] != '"')
        if (body[p] == '\\') ++p;
      if (p >= body.size()) return std::string_view::npos;  // unterminated string
      const std::size_t colon = body.find_first_not_of(kWhitespace, p + 1);
      if (depth == 1 && colon < body.size() && body[colon] == ':' &&
          body.substr(open + 1, p - open - 1) == key)
        return body.find_first_not_of(kWhitespace, colon + 1);
    }
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<std::string> json_string_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || p >= body.size() || body[p] != '"') return std::nullopt;
  const std::size_t end = body.find_first_of("\"\\", p + 1);
  if (end == std::string_view::npos || body[end] != '"') return std::nullopt;  // or escaped
  return std::string(body.substr(p + 1, end - p - 1));
}

bool json_has_field(std::string_view body, std::string_view key) {
  return value_start(body, key) != std::string_view::npos;
}

std::optional<double> json_number_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || p >= body.size()) return std::nullopt;
  const char* start = body.data() + p;
  char* parsed_end = nullptr;
  const double value = std::strtod(start, &parsed_end);
  if (parsed_end == start) return std::nullopt;
  return value;
}

std::optional<std::vector<double>> json_array_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || p >= body.size() || body[p] != '[') return std::nullopt;
  std::vector<double> values;
  for (std::size_t at = p + 1;;) {
    at = body.find_first_not_of(" \t\r\n,", at);
    if (at == std::string_view::npos) return std::nullopt;  // unterminated array
    if (body[at] == ']') return values;
    const char* const start = body.data() + at;
    char* parsed_end = nullptr;
    values.push_back(std::strtod(start, &parsed_end));
    if (parsed_end == start) return std::nullopt;  // not a number
    at += static_cast<std::size_t>(parsed_end - start);
  }
}

}  // namespace spi::serve
