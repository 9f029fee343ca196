/// \file job_body.hpp
/// A POST /job body, read in one strict pass (docs/serving.md).
///
/// The body must be one JSON object (obs/json.hpp's grammar, nothing
/// after it, no key twice). Every top-level member is typed as it is
/// read: numbers are converted, arrays of numbers are decoded, strings
/// without escapes are kept as views into the text, and anything else
/// (objects, booleans, null, strings with escapes) is checked and
/// skipped. The router reads "app" and "tenant" from the result and the
/// model reads its fields from the same result; nothing reads the text
/// again.
///
/// A field that is absent differs from one that is present but has the
/// wrong shape: has() tells them apart, so the server answers 400 to a
/// malformed field instead of filling in its default.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace spi::serve {

class JobBody {
 public:
  /// Top-level members a body may have. A job reads at most eight
  /// fields, so the cap costs nothing, and it keeps the duplicate-key
  /// check (a scan of the members read so far) to a bounded cost.
  static constexpr std::size_t kMaxMembers = 64;

  /// Reads `text`, replacing what the last read held; views stay valid
  /// while `text` does. Throws std::invalid_argument with the Reader's
  /// "JSON offset N: ..." message when `text` is not one JSON object with
  /// distinct keys or has more than kMaxMembers members; an error inside
  /// a member's value is prefixed with the member, as in
  /// `job "frame": JSON offset 31: expected a value`.
  void read(std::string_view text);

  /// Whether the object has the key, whatever its value.
  [[nodiscard]] bool has(std::string_view key) const { return find(key) != nullptr; }
  /// A string value without escapes; nullopt when absent or not one.
  [[nodiscard]] std::optional<std::string_view> string(std::string_view key) const;
  /// A number value that is a finite double; nullopt when absent or not.
  [[nodiscard]] std::optional<double> number(std::string_view key) const;
  /// An array whose elements are all finite doubles; nullopt when absent
  /// or not one. Views into this JobBody until the next read().
  [[nodiscard]] std::optional<std::span<const double>> array(std::string_view key) const;

 private:
  /// One top-level member. `usable` says whether the value has the shape
  /// its type's accessor serves.
  struct Member {
    std::string key;
    obs::json::Type type = obs::json::Type::kNull;
    bool usable = false;
    std::string_view text;    ///< string contents
    double number = 0.0;      ///< number value
    std::size_t first = 0;    ///< array elements: numbers_[first, first + count)
    std::size_t count = 0;
  };

  [[nodiscard]] const Member* find(std::string_view key) const;
  void read_value(obs::json::Reader& reader, Member& member);

  std::vector<Member> members_;
  std::vector<double> numbers_;  ///< every array's elements, back to back
};

}  // namespace spi::serve
