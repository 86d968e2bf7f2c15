#include "anb/util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "anb/util/rng.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

TEST(JsonTest, ScalarsRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, DumpScalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json("x").dump(), "\"x\"");
}

TEST(JsonTest, ObjectAccess) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "two";
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("c"));
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "two");
  EXPECT_THROW(j.at("missing"), Error);
}

TEST(JsonTest, ArrayAccess) {
  Json j = Json::array();
  j.push_back(1.5);
  j.push_back("s");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(0).as_number(), 1.5);
  EXPECT_THROW(j.at(5), Error);
}

TEST(JsonTest, TypeMismatchThrows) {
  const Json j(1.5);
  EXPECT_THROW(j.as_string(), Error);
  EXPECT_THROW(j.as_array(), Error);
  EXPECT_THROW(j.as_object(), Error);
  EXPECT_THROW(j.as_bool(), Error);
  EXPECT_THROW(Json("x").as_number(), Error);
  EXPECT_THROW(Json(1.5).as_int(), Error);  // non-integral
}

TEST(JsonTest, AsIntRejectsValuesOutsideIntRange) {
  // Integral but unrepresentable as int: casting would be undefined
  // behaviour, so the accessor must refuse instead.
  for (const char* text : {"1e12", "-3e9", "4294967296", "2147483648",
                           "-2147483649"})
    EXPECT_THROW(Json::parse(text).as_int(), Error) << text;
  EXPECT_EQ(Json::parse("2147483647").as_int(), 2147483647);
  EXPECT_EQ(Json::parse("-2147483648").as_int(), -2147483647 - 1);
}

TEST(JsonTest, NestedRoundTrip) {
  Json j = Json::object();
  j["name"] = "accel-nasbench";
  j["values"] = Json::array_of(std::vector<double>{1.0, -2.5, 3e-7});
  Json inner = Json::object();
  inner["flag"] = true;
  inner["n"] = Json(nullptr);
  j["inner"] = std::move(inner);

  for (int indent : {-1, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back, j);
  }
}

TEST(JsonTest, StringEscapes) {
  const std::string s = "line1\nline2\t\"quoted\"\\slash\x01";
  const Json j(s);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), s);
}

TEST(JsonTest, UnicodeEscapeParses) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
}

TEST(JsonTest, ParseErrors) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("nan"), Error);
}

TEST(JsonTest, WhitespaceTolerant) {
  const Json j = Json::parse("  {\n \"a\" : [ 1 , 2 ] ,\t\"b\": {} }  ");
  EXPECT_EQ(j.at("a").size(), 2u);
  EXPECT_TRUE(j.at("b").is_object());
}

TEST(JsonTest, DoubleVectorHelpers) {
  const std::vector<double> xs{0.5, 1.25, -3.0};
  EXPECT_EQ(Json::array_of(xs).as_double_vector(), xs);
  const std::vector<int> is{1, -2, 3};
  EXPECT_EQ(Json::array_of(is).as_int_vector(), is);
}

TEST(JsonTest, NumberPrecisionRoundTrips) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.normal() * std::pow(10.0, rng.uniform(-8, 8));
    const Json back = Json::parse(Json(v).dump());
    EXPECT_DOUBLE_EQ(back.as_number(), v);
  }
}

TEST(JsonTest, NonFiniteRejectedOnDump) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), Error);
  EXPECT_THROW(Json(std::nan("")).dump(), Error);
}

TEST(JsonTest, FileRoundTrip) {
  const std::string path = scratch_path("anb_json_test.json");
  Json j = Json::object();
  j["k"] = 3.25;
  write_text_file(path, j.dump());
  EXPECT_EQ(Json::parse(read_text_file(path)), j);
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file(path), Error);
}

// Fuzz: random documents round-trip through dump/parse at any indent.
class JsonFuzz : public ::testing::TestWithParam<int> {
 protected:
  static Json random_value(Rng& rng, int depth) {
    const int kind = static_cast<int>(rng.uniform_index(depth >= 3 ? 4 : 6));
    switch (kind) {
      case 0: return Json(nullptr);
      case 1: return Json(rng.bernoulli(0.5));
      case 2: return Json(rng.normal() * std::pow(10.0, rng.uniform(-6, 6)));
      case 3: {
        std::string str;
        const auto len = rng.uniform_index(12);
        for (std::uint64_t i = 0; i < len; ++i)
          str += static_cast<char>(rng.uniform_index(94) + 33);
        if (rng.bernoulli(0.3)) str += "\"\n\t\\";
        return Json(std::move(str));
      }
      case 4: {
        Json arr = Json::array();
        const auto len = rng.uniform_index(5);
        for (std::uint64_t i = 0; i < len; ++i)
          arr.push_back(random_value(rng, depth + 1));
        return arr;
      }
      default: {
        Json obj = Json::object();
        const auto len = rng.uniform_index(5);
        for (std::uint64_t i = 0; i < len; ++i)
          obj["k" + std::to_string(i)] = random_value(rng, depth + 1);
        return obj;
      }
    }
  }
};

TEST_P(JsonFuzz, RoundTripsAtAnyIndent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  const Json doc = random_value(rng, 0);
  EXPECT_EQ(Json::parse(doc.dump(-1)), doc);
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
  EXPECT_EQ(Json::parse(doc.dump(7)), doc);
}

INSTANTIATE_TEST_SUITE_P(RandomDocuments, JsonFuzz, ::testing::Range(0, 40));

TEST(JsonTest, ObjectKeysSortedInDump) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  const std::string out = j.dump();
  EXPECT_LT(out.find("apple"), out.find("zebra"));
}

}  // namespace
}  // namespace anb
