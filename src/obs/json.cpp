#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

namespace spi::obs::json {

namespace {

/// A number's decimal digits as they are scanned: value =
/// mantissa · 10^exponent while `exact` (no more than 19 digits).
struct Decimal {
  std::uint64_t mantissa = 0;
  int exponent = 0;
  int digits = 0;
  bool exact = true;
};

/// Advances `p` past a run of decimal digits, adding each to `decimal`
/// (when given) with `scale` added to its exponent per digit; false when
/// there is none.
bool skip_digits(const char*& p, const char* end, Decimal* decimal = nullptr, int scale = 0) {
  const char* const first = p;
  for (; p < end && static_cast<unsigned>(*p - '0') < 10; ++p) {
    if (decimal == nullptr) continue;
    decimal->exact = decimal->exact && ++decimal->digits <= 19;
    decimal->mantissa = decimal->mantissa * 10 + static_cast<unsigned>(*p - '0');
    decimal->exponent += scale;
  }
  return p != first;
}

/// End of the JSON number starting at `p`, or nullptr when the text there
/// is not one. The one number grammar: no '+', hex, leading zeros, bare
/// '.', nan or inf. Integer and fraction digits go to `decimal` when
/// given; a number with an exponent part is left inexact.
const char* scan_number(const char* p, const char* end, Decimal* decimal = nullptr) {
  if (p < end && *p == '-') ++p;
  if (p < end && *p == '0')
    ++p;
  else if (!skip_digits(p, end, decimal))
    return nullptr;
  if (p < end && *p == '.' && !skip_digits(++p, end, decimal, -1)) return nullptr;
  if (p < end && (*p == 'e' || *p == 'E')) {
    if (decimal != nullptr) decimal->exact = false;
    if (++p < end && (*p == '+' || *p == '-')) ++p;
    if (!skip_digits(p, end)) return nullptr;
  }
  return p;
}

/// Scans the JSON number at `first` (nullptr when there is none) and
/// converts it into `value`, nullopt when it lies outside double range
/// (1e400). Most numbers take Clinger's exact path: a mantissa of at
/// most 2^53 and a power of ten of at most 10^22 are exact doubles, so
/// one divide rounds correctly. std::from_chars reads the rest.
const char* scan_double(const char* first, const char* end, std::optional<double>& value) {
  static constexpr double kExact[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                      1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  Decimal decimal;
  const char* const last = scan_number(first, end, &decimal);
  if (last == nullptr) return nullptr;
  if (decimal.exact && decimal.mantissa <= std::uint64_t{1} << 53 && decimal.exponent >= -22) {
    const double magnitude = static_cast<double>(decimal.mantissa) / kExact[-decimal.exponent];
    value = *first == '-' ? -magnitude : magnitude;
    return last;
  }
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  value = ec == std::errc() && ptr == last ? std::optional(parsed) : std::nullopt;
  return last;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

Value read_value(Reader& reader) {
  Value v;
  v.type = reader.peek();
  v.offset = reader.offset();
  switch (v.type) {
    case Type::kObject:
      reader.begin_object();
      for (std::string key; reader.next_member(key);) v.members.emplace_back(key, read_value(reader));
      break;
    case Type::kArray:
      reader.begin_array();
      while (reader.next_element()) v.items.push_back(read_value(reader));
      break;
    case Type::kString: reader.string(v.text); break;
    case Type::kNumber: v.text = reader.number_text(); break;
    case Type::kBool: v.boolean = reader.boolean(); break;
    case Type::kNull: reader.null(); break;
  }
  return v;
}

}  // namespace

void fail_at(std::size_t offset, std::string_view message) {
  throw std::invalid_argument("JSON offset " + std::to_string(offset) + ": " +
                              std::string(message));
}

std::int64_t to_int64(std::string_view lexeme, std::size_t offset) {
  std::int64_t value = 0;
  const char* const end = lexeme.data() + lexeme.size();
  const auto [parsed, ec] = std::from_chars(lexeme.data(), end, value);
  if (ec == std::errc::result_out_of_range) fail_at(offset, "integer out of int64 range");
  if (ec != std::errc() || parsed != end) fail_at(offset, "expected an integer");
  return value;
}

std::optional<double> read_double(std::string_view text, std::size_t& at) {
  const char* const first = text.data() + at;
  std::optional<double> value;
  const char* const last = scan_double(first, text.data() + text.size(), value);
  if (last != nullptr && value) at += static_cast<std::size_t>(last - first);
  return value;
}

// --- Reader ---------------------------------------------------------------

void Reader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r'))
    ++pos_;
}

Type Reader::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{': return Type::kObject;
    case '[': return Type::kArray;
    case '"': return Type::kString;
    case 't':
    case 'f': return Type::kBool;
    case 'n': return Type::kNull;
    default:
      if (text_[pos_] == '-' || static_cast<unsigned>(text_[pos_] - '0') < 10)
        return Type::kNumber;
      fail("expected a value");
  }
}

void Reader::open(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) fail(std::string("expected '") + c + "'");
  if (++depth_ > kMaxDepth) fail("nesting too deep");
  ++pos_;
  fresh_ = true;
}

void Reader::begin_object() { open('{'); }
void Reader::begin_array() { open('['); }

bool Reader::close_or_separate(char close) {
  skip_ws();
  const bool first = fresh_;
  fresh_ = false;
  if (pos_ < text_.size() && text_[pos_] == close) {
    ++pos_;
    --depth_;
    return false;
  }
  if (!first) {
    if (pos_ >= text_.size() || text_[pos_] != ',')
      fail(close == '}' ? "expected ',' or '}' in object" : "expected ',' or ']' in array");
    ++pos_;
  }
  return true;
}

bool Reader::next_member(std::string& key) {
  if (!close_or_separate('}')) return false;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected a string key");
  string(key);
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != ':') fail("expected ':' after key");
  ++pos_;
  return true;
}

bool Reader::next_element() { return close_or_separate(']'); }

std::string Reader::string() {
  std::string out;
  string(out);
  return out;
}

void Reader::string(std::string& out) {
  if (peek() != Type::kString) fail("expected a string");
  ++pos_;
  out.clear();
  for (;;) {
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20)
      ++pos_;
    out.append(text_, run, pos_ - run);
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return;
    }
    if (c != '\\') fail("raw control character in string");
    if (++pos_ >= text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': append_utf8(out, code_point()); break;
      default: --pos_; fail("bad escape character");
    }
  }
}

std::uint32_t Reader::hex4() {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i, ++pos_) {
    const char c = pos_ < text_.size() ? text_[pos_] : '\0';
    std::uint32_t digit = 16;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<std::uint32_t>(c - 'A' + 10);
    if (digit == 16) fail("bad \\u escape");
    value = value * 16 + digit;
  }
  return value;
}

/// The code point of a \u escape whose "\u" is consumed, joining a
/// surrogate pair; a lone surrogate is an error.
std::uint32_t Reader::code_point() {
  const std::uint32_t unit = hex4();
  if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
  if (unit < 0xD800 || unit > 0xDBFF) return unit;
  if (text_.substr(pos_, 2) != "\\u") fail("high surrogate without a low surrogate");
  pos_ += 2;
  const std::uint32_t low = hex4();
  if (low < 0xDC00 || low > 0xDFFF) fail("high surrogate without a low surrogate");
  return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
}

std::optional<std::string_view> Reader::plain_string() {
  if (peek() != Type::kString) fail("expected a string");
  const std::size_t open = pos_++;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
         static_cast<unsigned char>(text_[pos_]) >= 0x20)
    ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '"') return text_.substr(open + 1, pos_++ - open - 1);
  pos_ = open;
  string(scratch_);
  return std::nullopt;
}

bool Reader::boolean() {
  if (peek() == Type::kBool) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
  }
  fail("expected true or false");
}

void Reader::null() {
  if (peek() != Type::kNull || text_.substr(pos_, 4) != "null") fail("expected null");
  pos_ += 4;
}

std::string_view Reader::number_text() {
  if (peek() != Type::kNumber) fail("expected a number");
  const char* const first = text_.data() + pos_;
  const char* const last = scan_number(first, text_.data() + text_.size());
  if (!last) fail("malformed number");
  pos_ += static_cast<std::size_t>(last - first);
  return {first, static_cast<std::size_t>(last - first)};
}

std::optional<double> Reader::number() {
  if (peek() != Type::kNumber) fail("expected a number");
  std::optional<double> value;
  const char* const last = scan_double(text_.data() + pos_, text_.data() + text_.size(), value);
  if (last == nullptr) fail("malformed number");
  pos_ = static_cast<std::size_t>(last - text_.data());
  return value;
}

void Reader::skip() {
  switch (peek()) {
    case Type::kObject:
      begin_object();
      while (next_member(scratch_)) skip();
      break;
    case Type::kArray:
      begin_array();
      while (next_element()) skip();
      break;
    case Type::kString: string(scratch_); break;
    case Type::kNumber: (void)number_text(); break;
    case Type::kBool: (void)boolean(); break;
    case Type::kNull: null(); break;
  }
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content after JSON value");
}

// --- DOM -----------------------------------------------------------------

void Value::expect(Type wanted) const {
  if (type == wanted) return;
  static constexpr const char* kNames[] = {"null", "a boolean", "a number",
                                           "a string", "an array", "an object"};
  fail_at(offset, std::string("expected ") + kNames[static_cast<int>(wanted)]);
}

const Value* Value::find(std::string_view key) const {
  expect(Type::kObject);
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v) fail_at(offset, "missing key '" + std::string(key) + "'");
  return *v;
}

const std::string& Value::as_string() const {
  expect(Type::kString);
  return text;
}

const std::vector<Value>& Value::as_array() const {
  expect(Type::kArray);
  return items;
}

bool Value::as_bool() const {
  expect(Type::kBool);
  return boolean;
}

double Value::as_double() const {
  expect(Type::kNumber);
  std::size_t at = 0;
  const auto value = read_double(text, at);
  if (!value) fail_at(offset, "number out of double range");
  return *value;
}

Value parse(std::string_view text) {
  Reader reader(text);
  Value root = read_value(reader);
  reader.finish();
  return root;
}

std::string validate(std::string_view text) {
  try {
    Reader reader(text);
    reader.skip();
    reader.finish();
    return {};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

// --- writer --------------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string escaped(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", is 24
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_doubles(std::string& out, std::span<const double> values) {
  // One resize for the whole array: 24 bytes a number at most, a comma
  // each, and the brackets.
  const std::size_t size = out.size();
  out.resize(size + 25 * values.size() + 2);
  char* p = out.data() + size;
  char* const end = out.data() + out.size();
  *p++ = '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) *p++ = ',';
    if (std::isfinite(values[i])) {
      p = std::to_chars(p, end, values[i]).ptr;
    } else {
      std::memcpy(p, "null", 4);
      p += 4;
    }
  }
  *p++ = ']';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

}  // namespace spi::obs::json
