/// \file request.hpp
/// The serve layer's JSON number codec and flat-JSON field scanner for
/// request bodies.
///
/// Job bodies are small flat objects ({"app":"speech","frame":[...]});
/// at a >=100k req/s service rate a DOM parse per request would dominate
/// the batch handler, so fields are extracted by key scan, the same
/// technique core::ExecutablePlan::from_json uses. Keys are matched as
/// "<key>": at top nesting depth only — nested objects, arrays and
/// string contents are skipped. Absent or malformed fields are
/// std::nullopt; json_has_field tells the two apart, so the server can
/// answer 400 to a present-but-malformed field. Not a general JSON
/// parser: a string value containing an escape sequence is malformed
/// (std::nullopt), and arrays are numbers only.
///
/// Numbers follow the JSON grammar exactly (no '+', hex, leading zeros,
/// bare '.', nan or inf) and must be finite doubles: a literal outside
/// the double range (1e400) is malformed. Both directions go through
/// <charconv> — locale-free, and append_double writes the shortest form
/// that reads back bit for bit.
#pragma once

#include <optional>
#include <string>
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

/// Appends `v` in its shortest round-trip form; a non-finite value has no
/// JSON spelling and is written as null.
void append_double(std::string& out, double v);

}  // namespace spi::serve
