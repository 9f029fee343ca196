/// \file request.hpp
/// The serve layer's flat-JSON field scanner for `/job` request bodies.
///
/// Job bodies are small flat objects ({"app":"speech","frame":[...]});
/// at a >=100k req/s service rate building a DOM per request would
/// dominate the batch handler, so fields are extracted by a
/// zero-allocation key scan instead of obs/json.hpp's parse(). Keys are
/// matched as "<key>": at top nesting depth only — nested objects,
/// arrays and string contents are skipped. Absent or malformed fields are
/// std::nullopt; json_has_field tells the two apart, so the server can
/// answer 400 to a present-but-malformed field. Not a general JSON
/// parser: a string value containing an escape sequence is malformed
/// (std::nullopt), and arrays are numbers only.
///
/// Numbers are read by the codec's obs::json::read_double, so `/job`
/// shares the one number grammar (no '+', hex, leading zeros, bare '.',
/// nan or inf; finite doubles only, so 1e400 is malformed).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace spi::serve {

/// Whether the body has the top-level key, whatever its value.
[[nodiscard]] bool json_has_field(std::string_view body, std::string_view key);
/// The string value of a top-level key, viewing into `body`.
[[nodiscard]] std::optional<std::string_view> json_string_field(std::string_view body,
                                                                std::string_view key);
[[nodiscard]] std::optional<double> json_number_field(std::string_view body, std::string_view key);
[[nodiscard]] std::optional<std::vector<double>> json_array_field(std::string_view body,
                                                                  std::string_view key);

}  // namespace spi::serve
