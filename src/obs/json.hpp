/// \file json.hpp
/// The repository's one JSON codec. Everything that reads JSON — plans
/// from `--load-plan`, flight-log dumps, `/trace` dumps, `/job` bodies,
/// `json_check` — goes through the strict RFC 8259 pull Reader below, and
/// every emitter escapes strings and writes doubles through the writer
/// half. Structured documents cross trust boundaries here, so the reader:
///
///  - caps container nesting at kMaxDepth, so no input can exhaust the
///    stack;
///  - reads numbers with one grammar (no '+', hex, leading zeros, bare
///    '.', nan or inf), converted through <charconv>;
///  - decodes every escape, including \uXXXX and surrogate pairs, to
///    UTF-8, and rejects raw control characters in strings;
///  - range-checks integer reads into the caller's type;
///  - throws std::invalid_argument naming the byte offset on any error.
///
/// Large documents (64 Ki-event flight logs) stream through Reader;
/// documents walked by key (plans, /trace dumps) use the small DOM that
/// parse() builds on the same Reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spi::obs::json {

/// Deepest container nesting any reader accepts.
inline constexpr int kMaxDepth = 256;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// Throws std::invalid_argument("JSON offset <offset>: <message>").
[[noreturn]] void fail_at(std::size_t offset, std::string_view message);

/// The integer JSON number `lexeme` as an int64; throws (naming
/// `offset`) when it has a fraction or exponent or lies outside int64.
[[nodiscard]] std::int64_t to_int64(std::string_view lexeme, std::size_t offset);

/// to_int64, range-checked into T.
template <typename T>
[[nodiscard]] T to_integer(std::string_view lexeme, std::size_t offset) {
  const std::int64_t value = to_int64(lexeme, offset);
  if (!std::in_range<T>(value)) fail_at(offset, "integer out of range");
  return static_cast<T>(value);
}

/// Parses the JSON number at `at`, advancing `at` past it; nullopt (with
/// `at` unchanged) when the text there is not a JSON number or not a
/// finite double. Allocation- and exception-free for hot paths.
[[nodiscard]] std::optional<double> read_double(std::string_view text, std::size_t& at);

/// Strict pull reader over one JSON document.
///
///   Reader r(text);
///   r.begin_object();
///   for (std::string key; r.next_member(key);)
///     if (key == "n") n = r.integer<std::int32_t>(); else r.skip();
///   r.finish();
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Type of the next value, whitespace skipped.
  [[nodiscard]] Type peek();
  /// Byte offset of the read position.
  [[nodiscard]] std::size_t offset() const { return pos_; }

  void begin_object();
  /// Moves to the next member of the innermost open object and reads its
  /// key; false once the object's '}' is consumed. Read or skip() the
  /// member's value before the next call.
  [[nodiscard]] bool next_member(std::string& key);
  void begin_array();
  /// Moves to the next element of the innermost open array; false once
  /// its ']' is consumed.
  [[nodiscard]] bool next_element();

  [[nodiscard]] std::string string();
  void string(std::string& out);
  /// A string's contents, viewing into the text, when it has no escape;
  /// nullopt (with the string read past and checked) when it has one.
  [[nodiscard]] std::optional<std::string_view> plain_string();
  [[nodiscard]] bool boolean();
  void null();
  /// A number's text, checked against the grammar only.
  [[nodiscard]] std::string_view number_text();
  /// A number as a double; nullopt (with the number read past) when it
  /// lies outside double range, as 1e400 does.
  [[nodiscard]] std::optional<double> number();
  template <typename T>
  [[nodiscard]] T integer() {
    (void)peek();
    const std::size_t at = pos_;
    return to_integer<T>(number_text(), at);
  }
  /// Reads past any one value.
  void skip();
  /// Requires that nothing but whitespace remains.
  void finish();

  /// Throws at the current read position.
  [[noreturn]] void fail(std::string_view message) const { fail_at(pos_, message); }

 private:
  void skip_ws();
  void open(char c);
  bool close_or_separate(char close);
  std::uint32_t hex4();
  std::uint32_t code_point();

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool fresh_ = false;  ///< just opened a container: no ',' before its first item
  std::string scratch_;
};

/// A parsed value. Numbers keep their text, so parse() accepts exactly
/// the documents validate() does and range checks happen at the typed
/// accessor that knows the target type. Accessors throw
/// std::invalid_argument naming the value's offset.
struct Value {
  Type type = Type::kNull;
  bool boolean = false;
  std::string text;                                    ///< string contents or number text
  std::vector<Value> items;                            ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< object members, document order
  std::size_t offset = 0;                              ///< where the value starts

  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  template <typename T>
  [[nodiscard]] T as_int() const {
    expect(Type::kNumber);
    return to_integer<T>(text, offset);
  }
  template <typename T>
  [[nodiscard]] std::vector<T> as_int_vector() const {
    std::vector<T> values;
    values.reserve(as_array().size());
    for (const Value& item : items) values.push_back(item.as_int<T>());
    return values;
  }

 private:
  void expect(Type wanted) const;
};

/// Parses one whole document.
[[nodiscard]] Value parse(std::string_view text);

/// Empty when `text` is one strict JSON document, else
/// "JSON offset N: message". Accepts exactly what parse() accepts.
[[nodiscard]] std::string validate(std::string_view text);

/// Appends `s` as the inside of a JSON string: quote, backslash and every
/// control character escaped (a raw newline makes a document invalid).
void append_escaped(std::string& out, std::string_view s);
[[nodiscard]] std::string escaped(std::string_view s);

/// Appends `v` in its shortest round-trip form, byte for byte what
/// std::to_chars(first, last, v) writes; a non-finite value has no JSON
/// spelling and is written as null.
void append_double(std::string& out, double v);
/// Appends `values` as a JSON array of append_double's numbers.
void append_doubles(std::string& out, std::span<const double> values);

}  // namespace spi::obs::json
