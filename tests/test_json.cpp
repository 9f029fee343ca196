/// \file test_json.cpp
/// The JSON codec (obs/json.hpp): the strict grammar, the nesting cap,
/// escape decoding, range-checked integer reads and the writer, plus
/// FuzzJson — seeded mutations of real documents (the golden plans, a
/// watchdog flight dump and a /trace dump) through every reader. The
/// fuzz runs in the unit tier, so the sanitizer CI legs run it too.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "dsp/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace spi::obs {
namespace {

bool valid(const std::string& text) { return json::validate(text).empty(); }

std::string error_of(const std::string& text) {
  try {
    (void)json::parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(Json, AcceptsStrictDocuments) {
  for (const char* text :
       {"{}", "[]", " [1, -0, 0.5, -1e-3, 2E+8, true, false, null] ", "\"\"", "0",
        R"({"a": {"b": [{}, []]}, "c": "é\"\\\/\b\f\n\r\t"})", "\"\xc3\xa9\""}) {
    EXPECT_TRUE(valid(text)) << text << ": " << json::validate(text);
    EXPECT_NO_THROW((void)json::parse(text)) << text;
  }
}

TEST(Json, RejectsEverythingElseNamingTheOffset) {
  for (const char* text :
       {"", " ", "[1,]", R"({"a":1,})", "{,}", "[1 2]", R"({"a" 1})", "{1:2}", R"({"a":})",
        "01", "1.", ".5", "+1", "-", "1e", "1e+", "0x10", "nan", "inf", "tru", "nul", "[1}",
        R"({"a":1])", "1 2", "{} x", "\"abc", R"("\x")", R"("\u12")", R"("\ud800")",
        R"("\ud800A")", R"("\udc00")", "\"a\x01\"", "\"a\nb\"", "[\"a\"\t,]"}) {
    const std::string error = json::validate(text);
    EXPECT_FALSE(error.empty()) << "accepted: " << text;
    EXPECT_EQ(error.rfind("JSON offset ", 0), 0u) << error;
    EXPECT_EQ(error_of(text), error) << text;
  }
  EXPECT_EQ(json::validate("[1, x]"), "JSON offset 4: expected a value");
  EXPECT_EQ(json::validate("{} x"), "JSON offset 3: trailing content after JSON value");
}

TEST(Json, CapsNestingAtTheMaxDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(valid(nested(json::kMaxDepth)));
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
  EXPECT_NE(json::validate(nested(json::kMaxDepth + 1)).find("nesting too deep"),
            std::string::npos);
  // Far past the cap fails fast instead of exhausting the stack.
  EXPECT_NE(json::validate(std::string(200'000, '[')).find("nesting too deep"),
            std::string::npos);
  EXPECT_NE(error_of(std::string(200'000, '{')).find("expected a string key"), std::string::npos);
  EXPECT_NE(error_of("[" + std::string(200'000, '{')).find("expected a string key"),
            std::string::npos);
}

TEST(Json, DecodesEveryEscapeToUtf8) {
  const json::Value v = json::parse(R"("A\u00e9\u20AC\ud83d\ude00\"\\\/\b\f\n\r\t\u0000")");
  EXPECT_EQ(v.as_string(), std::string("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\"\\/\b\f\n\r\t") +
                               std::string(1, '\0'));
}

TEST(Json, IntegerReadsAreRangeChecked) {
  const json::Value v = json::parse(
      R"([2147483647, 2147483648, -9223372036854775808, 9223372036854775808, 1.5, 1e2, -1])");
  const auto& items = v.as_array();
  EXPECT_EQ(items[0].as_int<std::int32_t>(), 2147483647);
  EXPECT_THROW((void)items[1].as_int<std::int32_t>(), std::invalid_argument);
  EXPECT_EQ(items[1].as_int<std::int64_t>(), 2147483648);
  EXPECT_EQ(items[2].as_int<std::int64_t>(), INT64_MIN);
  try {
    (void)items[3].as_int<std::int64_t>();
    ADD_FAILURE() << "int64 overflow accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset 47"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)items[4].as_int<std::int64_t>(), std::invalid_argument);
  EXPECT_THROW((void)items[5].as_int<std::int64_t>(), std::invalid_argument);
  EXPECT_THROW((void)items[6].as_int<std::size_t>(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(items[4].as_double(), 1.5);
  EXPECT_THROW((void)json::parse("1e400").as_double(), std::invalid_argument);

  json::Reader reader(R"({"n": 4294967297})");
  reader.begin_object();
  std::string key;
  ASSERT_TRUE(reader.next_member(key));
  EXPECT_THROW((void)reader.integer<std::int32_t>(), std::invalid_argument);
}

TEST(Json, TypedAccessorsNameTheValueOffset) {
  const json::Value v = json::parse(R"({"a": "x", "b": [1]})");
  try {
    (void)v.at("a").as_int<int>();
    ADD_FAILURE();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "JSON offset 6: expected a number");
  }
  EXPECT_THROW((void)v.at("missing"), std::invalid_argument);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("b").as_string(), std::invalid_argument);
  EXPECT_EQ(v.at("b").as_int_vector<int>(), std::vector<int>{1});
}

TEST(Json, EscapedStringsReadBackByteForByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  const std::string doc = "\"" + json::escaped(all) + "\"";
  EXPECT_TRUE(valid(doc)) << json::validate(doc);
  EXPECT_EQ(json::parse(doc).as_string(), all);
  EXPECT_EQ(json::escaped("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
}

// --- FuzzJson ----------------------------------------------------------------

std::string read_seed(const std::string& relative) {
  std::ifstream in(std::string(SPI_SOURCE_DIR) + "/" + relative);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::vector<std::string>& seeds() {
  static const std::vector<std::string> documents = {
      read_seed("tools/golden/speech_errorgen.plan.json"),
      read_seed("tools/golden/threaded_pipeline.plan.json"),
      read_seed("tools/golden/watchdog_stall.flight.json"),
      read_seed("tests/corpus/serve_trace_two_tenants.json"),
  };
  return documents;
}

std::string mutate(const std::string& seed, dsp::Rng& rng) {
  std::string doc = seed;
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // byte flips
      const auto flips = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < flips && !doc.empty(); ++i)
        doc[at(doc.size() - 1)] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    }
    case 1:  // truncation
      doc.resize(at(doc.size()));
      break;
    case 2:  // deep nesting
      doc.insert(at(doc.size()), static_cast<std::size_t>(rng.uniform_int(200, 5000)),
                 rng.uniform_int(0, 1) ? '[' : '{');
      break;
    default: {  // a huge number in place of a number
      static const char* const kHuge[] = {"99999999999999999999999", "-9223372036854775809",
                                          "9223372036854775808", "4294967297", "1e400",
                                          "-1e400"};
      std::size_t p = doc.find_first_of("0123456789", at(doc.size()));
      if (p == std::string::npos) p = doc.find_first_of("0123456789");
      if (p == std::string::npos) break;
      std::size_t end = doc.find_first_not_of("0123456789.eE+-", p);
      if (end == std::string::npos) end = doc.size();
      doc.replace(p, end - p, kHuge[rng.uniform_int(0, 5)]);
    }
  }
  return doc;
}

class FuzzJson : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzJson, MutatedDocumentsAreAcceptedConsistentlyOrRejectedTyped) {
  ASSERT_FALSE(seeds()[0].empty()) << "seed files not found under " << SPI_SOURCE_DIR;
  dsp::Rng rng(GetParam());
  int plans_accepted = 0;
  int flights_accepted = 0;
  for (int round = 0; round < 200; ++round) {
    for (const std::string& seed : seeds()) {
      const std::string doc = mutate(seed, rng);
      // json_validate accepts exactly what parse() accepts.
      bool parsed = true;
      try {
        (void)json::parse(doc);
      } catch (const std::invalid_argument&) {
        parsed = false;
      }
      EXPECT_EQ(valid(doc), parsed) << doc;

      // The typed readers succeed or throw std::invalid_argument; any
      // other exception escapes and fails the test.
      std::optional<core::ExecutablePlan> plan;
      try {
        plan = core::ExecutablePlan::from_json(doc);
      } catch (const std::invalid_argument&) {
      }
      if (plan) {
        ++plans_accepted;
        EXPECT_TRUE(parsed);
        const std::string json = plan->to_json();
        EXPECT_EQ(core::ExecutablePlan::from_json(json).to_json(), json) << doc;
      }
      try {
        (void)FlightLog::from_json(doc);
        ++flights_accepted;
        EXPECT_TRUE(parsed);
      } catch (const std::invalid_argument&) {
      }
    }
  }
  // The mutations must leave some documents loadable, or the byte-stability
  // property above is never exercised.
  EXPECT_GT(plans_accepted, 0);
  EXPECT_GT(flights_accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJson, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace spi::obs
