#include "serve/request.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace spi::serve {

namespace {

constexpr bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

/// Position of the first non-whitespace character at or after `at`
/// (body size when there is none).
std::size_t skip_whitespace(std::string_view s, std::size_t at) {
  while (at < s.size() && is_space(s[at])) ++at;
  return at;
}

/// Position of the value of the top-level `"key":` (whitespace
/// skipped), or npos when the key or its value is missing. Nested
/// objects and arrays are skipped, and so is every string's content
/// (escapes included), so neither a nested key nor a string value that
/// merely contains the key matches.
std::size_t value_start(std::string_view body, std::string_view key) {
  int depth = 0;
  for (std::size_t p = 0; p < body.size(); ++p) {
    depth += (body[p] == '{' || body[p] == '[') - (body[p] == '}' || body[p] == ']');
    if (body[p] == '"') {
      const std::size_t open = p;
      while (++p < body.size() && body[p] != '"')
        if (body[p] == '\\') ++p;
      if (p >= body.size()) return std::string_view::npos;  // unterminated string
      const std::size_t colon = skip_whitespace(body, p + 1);
      if (depth == 1 && colon < body.size() && body[colon] == ':' &&
          body.substr(open + 1, p - open - 1) == key) {
        const std::size_t value = skip_whitespace(body, colon + 1);
        return value < body.size() ? value : std::string_view::npos;
      }
    }
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<std::string_view> json_string_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || body[p] != '"') return std::nullopt;
  const std::size_t end = body.find_first_of("\"\\", p + 1);
  if (end == std::string_view::npos || body[end] != '"') return std::nullopt;  // or escaped
  return body.substr(p + 1, end - p - 1);
}

bool json_has_field(std::string_view body, std::string_view key) {
  return value_start(body, key) != std::string_view::npos;
}

std::optional<double> json_number_field(std::string_view body, std::string_view key) {
  std::size_t at = value_start(body, key);
  if (at == std::string_view::npos) return std::nullopt;
  const auto value = obs::json::read_double(body, at);
  at = skip_whitespace(body, at);
  if (!value || at >= body.size() || (body[at] != ',' && body[at] != '}')) return std::nullopt;
  return value;
}

std::optional<std::vector<double>> json_array_field(std::string_view body, std::string_view key) {
  std::size_t at = value_start(body, key);
  if (at == std::string_view::npos || body[at] != '[') return std::nullopt;
  // Every element but the last is followed by a comma: one allocation.
  const std::size_t close = body.find(']', at);
  if (close == std::string_view::npos) return std::nullopt;  // unterminated array
  const auto commas = std::count(body.begin() + at, body.begin() + close, ',');
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(commas) + 1);
  at = skip_whitespace(body, at + 1);
  if (at < body.size() && body[at] == ']') return values;
  for (;;) {
    const auto value = obs::json::read_double(body, at);
    if (!value) return std::nullopt;  // not a number
    values.push_back(*value);
    at = skip_whitespace(body, at);
    if (at >= body.size()) return std::nullopt;  // unterminated array
    if (body[at] == ']') return values;
    if (body[at] != ',') return std::nullopt;
    at = skip_whitespace(body, at + 1);
  }
}

}  // namespace spi::serve
