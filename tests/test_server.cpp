// Tests for the dlapd server layer (src/server/): HTTP codec, JSON
// parsing, the Status -> HTTP mapping table, router dispatch, request
// binding with field-level errors, the direct response writers against
// the reference Json renders, admission control (token-bucket rate
// limiter and bounded queue -- both under an injected fake clock, no
// sleeps), and a real loopback dlapd::Server: bit-identical responses
// versus direct Engine calls, deterministic overload shedding, hot model
// reload under concurrent query fire, and start/stop churn.
//
// All model generation uses ServiceConfig::measure_factory with a
// deterministic synthetic cost surface (the test_api pattern), so
// loopback predictions are exactly reproducible byte-for-byte.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "reference_codecs.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "storage/container.hpp"
#include "storage/pack.hpp"

namespace dlap::server {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ HTTP codec

TEST(HttpParser, ParsesPostWithBody) {
  HttpParser parser;
  const std::string wire =
      "POST /v1/predict HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd";
  EXPECT_EQ(parser.feed(wire), wire.size());
  ASSERT_TRUE(parser.complete());
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/predict");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "abcd");
  ASSERT_NE(request.header("content-type"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.header("CONTENT-TYPE"), "application/json");
  EXPECT_TRUE(request.keep_alive());
}

TEST(HttpParser, ByteByByteFeedMatchesWholeBuffer) {
  const std::string wire =
      "GET /v1/stats HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi";
  HttpParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed());
    EXPECT_EQ(parser.feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().body, "hi");
  EXPECT_EQ(parser.bytes_consumed(), wire.size());
}

TEST(HttpParser, PipelinedRequestsStopAtBoundary) {
  const std::string first =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  HttpParser parser;
  // feed() must consume exactly the first request, leaving the pipelined
  // bytes for the next parse.
  EXPECT_EQ(parser.feed(first + second), first.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/a");
  parser.reset();
  EXPECT_EQ(parser.feed(second), second.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().body, "");
}

TEST(HttpParser, MalformedRequestLineIs400) {
  HttpParser parser;
  (void)parser.feed("NOT-HTTP\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, WrongVersionIs505) {
  HttpParser parser;
  (void)parser.feed("GET / HTTP/2.0\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParser, ChunkedTransferEncodingIs501) {
  HttpParser parser;
  (void)parser.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParser, OversizedRequestLineIs414) {
  HttpLimits limits;
  limits.max_request_line = 32;
  HttpParser parser(limits);
  (void)parser.feed("GET /" + std::string(64, 'x') + " HTTP/1.1\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParser, OversizedHeaderBlockIs431) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpParser parser(limits);
  (void)parser.feed("GET / HTTP/1.1\r\nX-Big: " + std::string(128, 'y') +
                    "\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, TooManyHeadersIs431) {
  HttpLimits limits;
  limits.max_headers = 3;
  HttpParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) {
    wire += "H" + std::to_string(i) + ": v\r\n";
  }
  (void)parser.feed(wire + "\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, OversizedBodyIs413) {
  HttpLimits limits;
  limits.max_body = 16;
  HttpParser parser(limits);
  (void)parser.feed("POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, BadContentLengthIs400) {
  HttpParser parser;
  (void)parser.feed("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, ObsFoldContinuationIs400) {
  HttpParser parser;
  (void)parser.feed("GET / HTTP/1.1\r\nX-A: one\r\n two\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, WhitespaceBeforeColonIs400) {
  HttpParser parser;
  (void)parser.feed("GET / HTTP/1.1\r\nX-A : v\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, KeepAliveDefaults) {
  HttpParser parser;
  (void)parser.feed("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_TRUE(parser.request().keep_alive());

  parser.reset();
  (void)parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_FALSE(parser.request().keep_alive());

  parser.reset();
  (void)parser.feed("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_FALSE(parser.request().keep_alive());

  parser.reset();
  (void)parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_TRUE(parser.request().keep_alive());
}

TEST(HttpParser, ResetClearsErrorAndRequest) {
  HttpParser parser;
  (void)parser.feed("JUNK\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  parser.reset();
  EXPECT_EQ(parser.state(), HttpParser::State::RequestLine);
  (void)parser.feed("GET /ok HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/ok");
  EXPECT_TRUE(parser.request().headers.empty());
}

TEST(HttpResponse, SerializeAddsContentLengthAndReason) {
  HttpResponse response;
  response.status = 404;
  response.set_header("Content-Type", "application/json");
  response.body = "{\"a\":1}";
  const std::string wire = response.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"a\":1}"), std::string::npos);
  EXPECT_STREQ(reason_phrase(503), "Service Unavailable");
  EXPECT_STREQ(reason_phrase(429), "Too Many Requests");
}

// ------------------------------------------------------------------ JSON

TEST(Json, ParsesScalarsArraysObjects) {
  const Json v = Json::parse(
      " {\"a\": 1, \"b\": [true, null, \"x\\u00e9\"], \"c\": -2.5e3} ");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_integer(), 1);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->size(), 3u);
  EXPECT_TRUE(v.find("b")->at(0).as_bool());
  EXPECT_TRUE(v.find("b")->at(1).is_null());
  EXPECT_EQ(v.find("b")->at(2).as_string(), "x\xc3\xa9");
  EXPECT_EQ(v.find("c")->as_number(), -2500.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, NumbersRoundTripBitExactly) {
  // The wire format prints %.17g, so every double survives
  // dump -> parse -> dump byte-identically. The server's "bit-identical
  // to direct Engine calls" gate rides on this.
  for (double x : {0.1, 1.0 / 3.0, 1e300, -1e-300, 6.02214076e23,
                   123456789.123456789, -0.0}) {
    const Json v = Json::number(x);
    const std::string once = v.dump();
    const Json back = Json::parse(once);
    EXPECT_EQ(back.dump(), once) << once;
    const double y = back.as_number();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << once;
  }

  // The writer's text is pinned to printf("%.17g") byte for byte: the
  // edges of its integer shortcut (-0.0, 2^53, the last double below
  // 1e17, 1e17 itself), the extremes, and a seeded sweep of random bit
  // patterns and of integers of every magnitude.
  std::vector<double> values = {-0.0,
                                0.0,
                                9007199254740992.0,
                                -9007199254740992.0,
                                1e15,
                                1e16,
                                99999999999999984.0,
                                1e17,
                                -1e17,
                                5e-324,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max()};
  std::mt19937_64 rng(20121110);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    values.push_back(x);
    const std::uint64_t shift = rng() % 64;
    const auto integer = static_cast<std::int64_t>(rng() >> shift);
    values.push_back(static_cast<double>(integer));
    values.push_back(-static_cast<double>(integer));
  }
  for (const double x : values) {
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", x);
    ASSERT_EQ(Json::number(x).dump(), expected);
  }
}

TEST(Json, ParseErrorsNameTheOffset) {
  EXPECT_THROW((void)Json::parse(""), parse_error);
  EXPECT_THROW((void)Json::parse("{"), parse_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), parse_error);
  EXPECT_THROW((void)Json::parse("[1, 2,"), parse_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), parse_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), parse_error);
  EXPECT_THROW((void)Json::parse("nul"), parse_error);
  try {
    (void)Json::parse("{\"a\": xyz}");
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("json:"), std::string::npos);
  }
}

TEST(Json, DepthLimitIsEnforced) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW((void)Json::parse(deep), parse_error);
}

TEST(Json, IntegerDetection) {
  EXPECT_TRUE(Json::number(42.0).is_integer());
  EXPECT_TRUE(Json::number(-3.0).is_integer());
  EXPECT_FALSE(Json::number(2.5).is_integer());
  EXPECT_FALSE(Json::number(1e300).is_integer());
  EXPECT_EQ(Json::number(index_t{123}).as_integer(), 123);
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json v = Json::object();
  v.set("z", Json::number(1.0)).set("a", Json::number(2.0));
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
  v.set("z", Json::number(3.0));  // overwrite keeps position
  EXPECT_EQ(v.dump(), "{\"z\":3,\"a\":2}");
}

/// The escaped text of one byte inside a JSON string, as the wire format
/// defines it.
std::string expected_escape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default:
      if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        return buf;
      }
      return std::string(1, static_cast<char>(c));
  }
}

TEST(Json, StringEscaperPinsEveryByte) {
  // Each byte 0x01-0xFF between two plain ones, then all of them in one
  // string appended after existing text.
  std::string all;
  std::string all_expected = "\"";
  for (unsigned b = 0x01; b <= 0xFF; ++b) {
    const auto c = static_cast<unsigned char>(b);
    const std::string text = std::string("a") + static_cast<char>(c) + "z";
    std::string written;
    dump_string(text, &written);
    EXPECT_EQ(written, "\"a" + expected_escape(c) + "z\"") << b;
    EXPECT_EQ(Json::string(text).dump(), written) << b;
    EXPECT_EQ(Json::parse(written).as_string(), text) << b;
    all.push_back(static_cast<char>(c));
    all_expected += expected_escape(c);
  }
  all_expected += '"';
  std::string written = "prefix";
  dump_string(all, &written);
  EXPECT_EQ(written, "prefix" + all_expected);
  EXPECT_EQ(Json::parse(all_expected).as_string(), all);
}

// ----------------------------------------------- Status -> HTTP mapping

TEST(StatusHttp, TableIsTotalAndRoundTrips) {
  // Every StatusCode appears exactly once in kStatusHttpTable; the table
  // is the single source of truth for HTTP rendering.
  const StatusCode all[] = {
      StatusCode::Ok,           StatusCode::InvalidQuery,
      StatusCode::ParseError,   StatusCode::MissingModel,
      StatusCode::UncoveredDomain, StatusCode::GenerationFailed,
      StatusCode::InternalError,
  };
  for (const StatusCode code : all) {
    int rows = 0;
    for (const StatusHttpMapping& row : kStatusHttpTable) {
      if (row.code == code) {
        ++rows;
        EXPECT_EQ(http_status_for(code), row.http_status);
      }
    }
    EXPECT_EQ(rows, 1) << status_code_name(code);
    // Name round trip: the wire's textual code resolves back to the enum.
    const auto back = status_code_from_name(status_code_name(code));
    ASSERT_TRUE(back.has_value()) << status_code_name(code);
    EXPECT_EQ(*back, code);
  }
  EXPECT_EQ(std::size(kStatusHttpTable), std::size(all));
  EXPECT_FALSE(status_code_from_name("NO_SUCH_CODE").has_value());
}

TEST(StatusHttp, SpecificMappings) {
  EXPECT_EQ(http_status_for(StatusCode::Ok), 200);
  EXPECT_EQ(http_status_for(StatusCode::ParseError), 400);
  EXPECT_EQ(http_status_for(StatusCode::MissingModel), 404);
  EXPECT_EQ(http_status_for(StatusCode::InvalidQuery), 422);
  EXPECT_EQ(http_status_for(StatusCode::UncoveredDomain), 422);
  EXPECT_EQ(http_status_for(StatusCode::GenerationFailed), 503);
  EXPECT_EQ(http_status_for(StatusCode::InternalError), 500);
}

// ---------------------------------------------------------------- Router

HttpRequest make_request(std::string method, std::string target,
                         std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

TEST(RouterTest, DispatchesAndReports404And405) {
  Router router;
  router.add("POST", "/v1/thing", [](const HttpRequest&) {
    return Router::json_response(200, Json::object());
  });
  router.add("GET", "/v1/thing", [](const HttpRequest&) {
    return Router::json_response(200, Json::object());
  });

  EXPECT_EQ(router.dispatch(make_request("POST", "/v1/thing")).status, 200);

  const HttpResponse missing = router.dispatch(make_request("GET", "/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("NOT_FOUND"), std::string::npos);
  EXPECT_NE(missing.body.find("/nope"), std::string::npos);

  const HttpResponse wrong =
      router.dispatch(make_request("DELETE", "/v1/thing"));
  EXPECT_EQ(wrong.status, 405);
  EXPECT_NE(wrong.body.find("METHOD_NOT_ALLOWED"), std::string::npos);
  ASSERT_NE(wrong.header("Allow"), nullptr);
  EXPECT_EQ(*wrong.header("Allow"), "GET, POST");
}

TEST(RouterTest, ThrowingHandlerBecomes500) {
  Router router;
  router.add("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaput");
  });
  const HttpResponse response = router.dispatch(make_request("GET", "/boom"));
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("INTERNAL_ERROR"), std::string::npos);
  EXPECT_NE(response.body.find("kaput"), std::string::npos);
}

TEST(RouterTest, StatusResponseUsesTheTable) {
  const HttpResponse response = Router::status_response(
      Status::error(StatusCode::MissingModel, "no such model"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("MISSING_MODEL"), std::string::npos);
  EXPECT_NE(response.body.find("no such model"), std::string::npos);
}

// --------------------------------------------- request binding (field errors)

Status predict_status(const std::string& body) {
  PredictQuery query;
  return bind_predict(Json::parse(body), &query);
}

TEST(Binding, PredictBindsInlineSpec) {
  PredictQuery query;
  const Status s = bind_predict(
      Json::parse("{\"op\":\"sylv\",\"variant\":2,\"m\":64,\"n\":96,"
                  "\"blocksize\":16}"),
      &query);
  ASSERT_TRUE(s.ok()) << s.to_string();
  ASSERT_TRUE(query.spec.has_value());
  EXPECT_EQ(query.spec->op, "sylv");
  EXPECT_EQ(query.spec->variant, 2);
  EXPECT_EQ(query.spec->m, 64);
  EXPECT_EQ(query.spec->n, 96);
  EXPECT_EQ(query.spec->blocksize, 16);
  EXPECT_FALSE(query.system.has_value());
}

TEST(Binding, PredictDefaultsVariantAndBlocksize) {
  PredictQuery query;
  ASSERT_TRUE(
      bind_predict(Json::parse("{\"op\":\"chol\",\"n\":128}"), &query).ok());
  EXPECT_EQ(query.spec->variant, 1);
  EXPECT_EQ(query.spec->blocksize, 64);
}

TEST(Binding, EveryPredictFieldErrorNamesTheField) {
  struct Case {
    const char* body;
    const char* named;
  };
  const Case cases[] = {
      {"{}", "'op'"},
      {"{\"op\":7}", "'op'"},
      {"{\"op\":\"chol\",\"variant\":\"x\"}", "'variant'"},
      {"{\"op\":\"chol\",\"n\":2.5}", "'n'"},
      {"{\"op\":\"chol\",\"m\":true}", "'m'"},
      {"{\"op\":\"chol\",\"blocksize\":[]}", "'blocksize'"},
      {"{\"op\":\"trinv\",\"variant\":4294967297,\"n\":64,"
       "\"blocksize\":16}",
       "'variant'"},
      {"{\"op\":\"trinv\",\"variant\":-2147483649,\"n\":64}", "'variant'"},
      {"{\"op\":\"chol\",\"blocksise\":64}", "'blocksise'"},
      {"{\"op\":\"chol\",\"n\":128,\"calls\":[\"x\"]}", "'calls'"},
      {"{\"calls\":[]}", "'calls'"},
      {"{\"calls\":[7]}", "'calls[0]'"},
      {"{\"calls\":[\"trinv1_unb(64,A,64)\",\"garbage(\"]}", "'calls[1]'"},
      {"{\"calls\":[\"dgemm_(N,N,8,8,8,1,A,8,B,8,0,C,8)\"]}", "'calls[0]'"},
      {"{\"calls\":[\"dtrsm(L,L,N,N,-4,64,1,A,512,B,512)\"]}", "'calls[0]'"},
      {"{\"op\":\"chol\",\"system\":{\"locality\":\"nowhere\"}}",
       "'system.locality'"},
      {"{\"op\":\"chol\",\"system\":{\"backend\":4}}", "'system.backend'"},
      {"{\"op\":\"chol\",\"system\":{\"cpu\":\"x\"}}", "'cpu'"},
  };
  // Answers go to clients: no message may show where the library was
  // built (the source root, found from this file's own path).
  const std::string source_root =
      fs::path(__FILE__).parent_path().parent_path().string();
  ASSERT_FALSE(source_root.empty());
  for (const Case& c : cases) {
    const Status s = predict_status(c.body);
    EXPECT_EQ(s.code, StatusCode::ParseError) << c.body;
    EXPECT_NE(s.message.find(c.named), std::string::npos)
        << c.body << " -> " << s.message;
    EXPECT_EQ(s.message.find(source_root), std::string::npos)
        << c.body << " -> " << s.message;
  }
}

TEST(Binding, RankErrorsNameNestedCandidateFields) {
  RankQuery query;
  EXPECT_NE(bind_rank(Json::parse("{}"), &query)
                .message.find("'candidates'"),
            std::string::npos);
  EXPECT_NE(bind_rank(Json::parse("{\"candidates\":[]}"), &query)
                .message.find("'candidates'"),
            std::string::npos);
  const Status nested = bind_rank(
      Json::parse("{\"candidates\":[{\"op\":\"chol\",\"n\":64},"
                  "{\"op\":\"chol\",\"n\":\"big\"}]}"),
      &query);
  EXPECT_EQ(nested.code, StatusCode::ParseError);
  EXPECT_NE(nested.message.find("'candidates[1].n'"), std::string::npos)
      << nested.message;
  // A variant beyond int is refused, not narrowed (2^32 + 1 would
  // otherwise bind as variant 1).
  const Status wide = bind_rank(
      Json::parse("{\"candidates\":[{\"op\":\"trinv\",\"n\":64},"
                  "{\"op\":\"trinv\",\"variant\":4294967297,\"n\":64}]}"),
      &query);
  EXPECT_EQ(wide.code, StatusCode::ParseError);
  EXPECT_NE(wide.message.find("'candidates[1].variant'"), std::string::npos)
      << wide.message;

  ASSERT_TRUE(bind_rank(Json::parse("{\"candidates\":[{\"op\":\"trinv\","
                                    "\"n\":64},{\"op\":\"trinv\",\"n\":64,"
                                    "\"variant\":2}]}"),
                        &query)
                  .ok());
  ASSERT_EQ(query.candidates.size(), 2u);
  EXPECT_EQ(query.candidates[1].variant, 2);
}

TEST(Binding, TuneBindsSweepBoundsWithDefaults) {
  TuneQuery query;
  ASSERT_TRUE(
      bind_tune(Json::parse("{\"op\":\"trinv\",\"n\":128}"), &query).ok());
  const TuneQuery defaults;
  EXPECT_EQ(query.lo, defaults.lo);
  EXPECT_EQ(query.hi, defaults.hi);
  EXPECT_EQ(query.step, defaults.step);

  ASSERT_TRUE(bind_tune(Json::parse("{\"op\":\"trinv\",\"n\":128,"
                                    "\"lo\":8,\"hi\":32,\"step\":8}"),
                        &query)
                  .ok());
  EXPECT_EQ(query.lo, 8);
  EXPECT_EQ(query.hi, 32);
  EXPECT_EQ(query.step, 8);

  const Status bad =
      bind_tune(Json::parse("{\"op\":\"trinv\",\"n\":128,\"lo\":\"a\"}"),
                &query);
  EXPECT_EQ(bad.code, StatusCode::ParseError);
  EXPECT_NE(bad.message.find("'lo'"), std::string::npos);
}

TEST(Binding, ReloadBindsSpecListAndNamesNestedErrors) {
  std::vector<OperationSpec> specs;
  std::optional<SystemSpec> system;
  ASSERT_TRUE(bind_reload(Json::parse("{}"), &specs, &system).ok());
  EXPECT_TRUE(specs.empty());

  ASSERT_TRUE(bind_reload(Json::parse("{\"specs\":[{\"op\":\"chol\","
                                      "\"n\":64}],\"system\":{\"locality\":"
                                      "\"out_of_cache\"}}"),
                          &specs, &system)
                  .ok());
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].op, "chol");
  ASSERT_TRUE(system.has_value());

  const Status bad = bind_reload(
      Json::parse("{\"specs\":[{\"op\":\"chol\",\"variant\":\"x\"}]}"),
      &specs, &system);
  EXPECT_EQ(bad.code, StatusCode::ParseError);
  EXPECT_NE(bad.message.find("'specs[0].variant'"), std::string::npos)
      << bad.message;
}

// --------------------------------- direct writers vs the reference renders

/// An op string with the bytes an escaper can get wrong: quotes,
/// backslashes, control bytes, DEL, UTF-8 sequences and raw high bytes.
std::string stress_op(std::mt19937_64& rng) {
  static constexpr const char* kPieces[] = {
      "trinv", "a", "/", "\\u0000",      // plain text
      "\"", "\\",                        // escaped as such
      "\x01", "\x1f", "\b", "\n", "\t",  // control bytes
      "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"};  // DEL, UTF-8
  std::string op;
  const std::size_t pieces = rng() % 8;
  for (std::size_t i = 0; i < pieces; ++i) {
    if (rng() % 4 == 0) {
      op.push_back(static_cast<char>(1 + rng() % 255));
    } else {
      op += kPieces[rng() % std::size(kPieces)];
    }
  }
  return op;
}

Prediction stress_prediction(std::mt19937_64& rng) {
  Prediction p;
  p.ticks.min = reference::stress_double(rng);
  p.ticks.median = reference::stress_double(rng);
  p.ticks.mean = reference::stress_double(rng);
  p.ticks.max = reference::stress_double(rng);
  p.ticks.stddev = reference::stress_double(rng);
  p.ticks.count = reference::stress_index(rng);
  p.flops = reference::stress_double(rng);
  p.calls = reference::stress_index(rng);
  p.skipped = reference::stress_index(rng);
  p.missing = reference::stress_index(rng);
  return p;
}

/// Stored text for `predictions`: none, all of it, or some entries
/// missing (null or beyond the end), chosen by `mode`.
std::vector<std::shared_ptr<const std::string>> stored_text(
    const std::vector<Prediction>& predictions, std::uint64_t mode,
    std::mt19937_64& rng) {
  std::vector<std::shared_ptr<const std::string>> stored;
  if (mode == 0) return stored;
  for (const Prediction& p : predictions) {
    stored.push_back(mode == 2 && rng() % 3 == 0
                         ? nullptr
                         : std::make_shared<const std::string>(
                               render_prediction(p).dump()));
  }
  if (mode == 2 && rng() % 2 == 0) stored.pop_back();
  return stored;
}

/// `write` appended to a non-empty buffer must add exactly `expected`.
template <class Write>
void expect_appends(const Write& write, const std::string& expected) {
  std::string out = "[prefix]";
  write(&out);
  ASSERT_EQ(out, "[prefix]" + expected);
}

TEST(Writers, ByteIdenticalToReferenceRenders) {
  std::mt19937_64 rng(20260417);
  for (int round = 0; round < 2000; ++round) {
    const Prediction p = stress_prediction(rng);
    expect_appends([&](std::string* out) { write_prediction(p, out); },
                   render_prediction(p).dump());

    const std::size_t entries = 1 + rng() % 16;
    Ranking ranking;
    TuneResult tune;
    for (std::size_t i = 0; i < entries; ++i) {
      OperationSpec spec;
      spec.op = stress_op(rng);
      spec.variant = static_cast<int>(reference::stress_index(rng));
      spec.m = reference::stress_index(rng);
      spec.n = reference::stress_index(rng);
      spec.blocksize = reference::stress_index(rng);
      expect_appends([&](std::string* out) { write_spec(spec, out); },
                     render_spec(spec).dump());
      ranking.candidates.push_back(std::move(spec));
      ranking.predictions.push_back(stress_prediction(rng));
      ranking.order.push_back(reference::stress_index(rng));
      tune.values.push_back(reference::stress_index(rng));
      tune.predictions.push_back(stress_prediction(rng));
    }
    ranking.prediction_json = stored_text(ranking.predictions, rng() % 3, rng);
    tune.prediction_json = stored_text(tune.predictions, rng() % 3, rng);
    tune.best_index = static_cast<index_t>(rng() % entries);
    expect_appends([&](std::string* out) { write_ranking(ranking, out); },
                   render_ranking(ranking).dump());
    expect_appends([&](std::string* out) { write_tune(tune, out); },
                   render_tune(tune).dump());
  }
}

// ------------------------------------- admission control, injected clock

struct FakeClock {
  std::shared_ptr<std::atomic<std::uint64_t>> now_ns =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  [[nodiscard]] ClockFn fn() const {
    auto p = now_ns;
    return [p] { return p->load(std::memory_order_acquire); };
  }
  void advance_ms(std::uint64_t ms) {
    now_ns->fetch_add(ms * 1'000'000, std::memory_order_acq_rel);
  }
};

TEST(TokenBucket, BurstThenRefillIsExactUnderFakeClock) {
  FakeClock clock;
  RateLimitConfig config;
  config.requests_per_second = 2.0;  // one token every 500 ms
  config.burst = 3.0;
  TokenBucketLimiter limiter(config, clock.fn());

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.admit("alice").allowed) << i;
  }
  const RateDecision denied = limiter.admit("alice");
  EXPECT_FALSE(denied.allowed);
  EXPECT_GT(denied.retry_after_seconds, 0.0);
  EXPECT_LE(denied.retry_after_seconds, 0.5);

  clock.advance_ms(499);  // one hair short of a token
  EXPECT_FALSE(limiter.admit("alice").allowed);
  clock.advance_ms(2);  // now past it
  EXPECT_TRUE(limiter.admit("alice").allowed);
  EXPECT_FALSE(limiter.admit("alice").allowed);

  const auto stats = limiter.stats();
  EXPECT_EQ(stats.allowed, 4u);
  EXPECT_EQ(stats.limited, 3u);
}

TEST(TokenBucket, ClientsHaveIndependentBuckets) {
  FakeClock clock;
  RateLimitConfig config;
  config.requests_per_second = 1.0;
  config.burst = 1.0;
  TokenBucketLimiter limiter(config, clock.fn());
  EXPECT_TRUE(limiter.admit("a").allowed);
  EXPECT_FALSE(limiter.admit("a").allowed);
  EXPECT_TRUE(limiter.admit("b").allowed);  // b's bucket is untouched
  EXPECT_EQ(limiter.stats().tracked_clients, 2u);
}

TEST(TokenBucket, ZeroRateDisablesLimiting) {
  FakeClock clock;
  TokenBucketLimiter limiter(RateLimitConfig{}, clock.fn());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.admit("anyone").allowed);
  }
  EXPECT_EQ(limiter.stats().tracked_clients, 0u);
}

TEST(TokenBucket, TrackedClientCountIsBounded) {
  FakeClock clock;
  RateLimitConfig config;
  config.requests_per_second = 1.0;
  config.burst = 4.0;
  config.max_tracked_clients = 8;
  TokenBucketLimiter limiter(config, clock.fn());
  // An address-spraying client cannot grow the map without bound.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.admit("client-" + std::to_string(i)).allowed);
  }
  EXPECT_LE(limiter.stats().tracked_clients, 8u);
}

TEST(BoundedQueueTest, FillShedDrainDeterministically) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full -> shed
  EXPECT_FALSE(queue.try_push(4));

  auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.peak, 2u);
  EXPECT_EQ(stats.capacity, 2u);

  ASSERT_TRUE(queue.try_pop().has_value());
  EXPECT_TRUE(queue.try_push(5));  // drained one slot -> accepts again
  auto a = queue.pop();
  auto b = queue.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 2);  // FIFO
  EXPECT_EQ(*b, 5);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenEnds) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3));  // closed -> shed
  // Queued connections still get answered during shutdown: pop drains
  // the remaining items before reporting end-of-queue.
  EXPECT_EQ(queue.pop().value_or(-1), 1);
  EXPECT_EQ(queue.pop().value_or(-1), 2);
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_TRUE(queue.stats().closed);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    // Blocks until close() -- no item ever arrives.
    EXPECT_FALSE(queue.pop().has_value());
  });
  queue.close();
  consumer.join();
}

// ------------------------------------------------------ loopback fixture

MeasureFn synthetic_measure(double offset) {
  return [offset](const std::vector<index_t>& point) {
    double cost = 100.0 + offset;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.05 * v * v;
    }
    SampleStats s;
    s.min = cost * 0.9;
    s.median = cost;
    s.mean = cost * 1.02;
    s.max = cost * 1.2;
    s.stddev = cost * 0.03;
    s.count = 5;
    return s;
  };
}

EngineConfig engine_config(const std::string& name) {
  EngineConfig cfg;
  cfg.service.repository_dir = fs::temp_directory_path() / name;
  cfg.service.workers = 2;
  cfg.service.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return synthetic_measure(h);
  };
  return cfg;
}

struct TempEngine {
  explicit TempEngine(const std::string& name, EngineConfig cfg)
      : dir(fs::temp_directory_path() / name),
        cleanup{dir},
        engine((fs::remove_all(dir), std::move(cfg))) {}
  explicit TempEngine(const std::string& name)
      : TempEngine(name, engine_config(name)) {}
  fs::path dir;
  // Removed strictly AFTER ~Engine (declaration order).
  struct Cleanup {
    fs::path dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup;
  Engine engine;
};

/// Raw TCP connection for wire-level tests (malformed requests, parked
/// requests the HttpClient's blocking round trip cannot express).
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    connected_ =
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send_text(std::string_view text) {
    while (!text.empty()) {
      const ssize_t n = ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL);
      if (n <= 0) return;
      text.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// Reads until the server closes the connection (close-delimited --
  /// every error/shed path closes).
  [[nodiscard]] std::string read_to_close() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// Bounded spin (no sleeps in the condition itself; the predicate is
/// re-polled until true or ~10 s elapse).
template <class Predicate>
bool eventually(const Predicate& predicate) {
  for (int i = 0; i < 10000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// ---------------------------------------------------- loopback: queries

TEST(ServerLoopback, PredictIsBitIdenticalToDirectEngineCall) {
  TempEngine t("dlapd_test_predict");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.port(), 0);

  PredictQuery query = PredictQuery::of(OperationSpec::chol(1, 96, 32));
  const Result<Prediction> direct = t.engine.predict(query);
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();
  const std::string expected = render_prediction(*direct).dump();

  HttpClient client("127.0.0.1", server.port());
  const auto response = client.request(
      "POST", "/v1/predict",
      "{\"op\":\"chol\",\"variant\":1,\"n\":96,\"blocksize\":32}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // Byte-for-byte: the HTTP layer adds nothing and loses nothing.
  EXPECT_EQ(response->body, expected);
  ASSERT_NE(response->header("Content-Type"), nullptr);
  EXPECT_EQ(*response->header("Content-Type"), "application/json");
  server.stop();
}

TEST(ServerLoopback, RankAndTuneEndpointsAnswer) {
  TempEngine t("dlapd_test_ranktune");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  const auto rank = client.request(
      "POST", "/v1/rank",
      "{\"candidates\":[{\"op\":\"trinv\",\"variant\":1,\"n\":64,"
      "\"blocksize\":16},{\"op\":\"trinv\",\"variant\":2,\"n\":64,"
      "\"blocksize\":16}]}");
  ASSERT_TRUE(rank.has_value());
  ASSERT_EQ(rank->status, 200) << rank->body;
  const Json ranking = Json::parse(rank->body);
  EXPECT_EQ(ranking.find("candidates")->size(), 2u);
  EXPECT_EQ(ranking.find("order")->size(), 2u);
  ASSERT_NE(ranking.find("best"), nullptr);

  // Bit-identity for rank: the spliced stored text equals the render.
  RankQuery rank_query;
  rank_query.candidates = {OperationSpec::trinv(1, 64, 16),
                           OperationSpec::trinv(2, 64, 16)};
  const Result<Ranking> direct_rank = t.engine.rank(rank_query);
  ASSERT_TRUE(direct_rank.ok());
  EXPECT_EQ(rank->body, render_ranking(*direct_rank).dump());

  const auto tune = client.request(
      "POST", "/v1/tune",
      "{\"op\":\"chol\",\"n\":96,\"lo\":16,\"hi\":48,\"step\":16}");
  ASSERT_TRUE(tune.has_value());
  ASSERT_EQ(tune->status, 200) << tune->body;
  const Json tuned = Json::parse(tune->body);
  EXPECT_EQ(tuned.find("values")->size(), 3u);

  // Bit-identity for tune as well.
  TuneQuery query;
  query.spec = OperationSpec::chol(1, 96, 64);
  query.lo = 16;
  query.hi = 48;
  query.step = 16;
  const Result<TuneResult> direct = t.engine.tune(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(tune->body, render_tune(*direct).dump());
  server.stop();
}

TEST(ServerLoopback, ErrorStatusesMapThroughTheTable) {
  EngineConfig cfg = engine_config("dlapd_test_errors");
  cfg.generate_missing = false;  // missing models become 404s
  TempEngine t("dlapd_test_errors", std::move(cfg));
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  // Malformed JSON -> 400 PARSE_ERROR.
  auto response = client.request("POST", "/v1/predict", "not json");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  EXPECT_NE(response->body.find("PARSE_ERROR"), std::string::npos);

  // Empty body -> 400.
  response = client.request("POST", "/v1/predict", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);

  // Binding error names the field.
  response = client.request("POST", "/v1/predict", "{\"n\":64}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  EXPECT_NE(response->body.find("'op'"), std::string::npos);

  // A variant beyond int -> 400 naming the field, not variant 1.
  response = client.request("POST", "/v1/predict",
                            "{\"op\":\"trinv\",\"variant\":4294967297,"
                            "\"n\":64,\"blocksize\":16}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  EXPECT_NE(response->body.find("PARSE_ERROR"), std::string::npos);
  EXPECT_NE(response->body.find("'variant'"), std::string::npos)
      << response->body;

  // Invalid variant -> 422 INVALID_QUERY.
  response = client.request("POST", "/v1/predict",
                            "{\"op\":\"chol\",\"variant\":99,\"n\":64}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 422);
  EXPECT_NE(response->body.find("INVALID_QUERY"), std::string::npos);

  // Valid query, generation disabled, empty repository -> 404
  // MISSING_MODEL.
  response = client.request("POST", "/v1/predict",
                            "{\"op\":\"chol\",\"n\":64}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
  EXPECT_NE(response->body.find("MISSING_MODEL"), std::string::npos);

  // Unknown path / wrong method.
  response = client.request("POST", "/v2/predict", "{}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
  response = client.request("GET", "/v1/predict");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);
  ASSERT_NE(response->header("Allow"), nullptr);
  EXPECT_EQ(*response->header("Allow"), "POST");
  server.stop();
}

TEST(ServerLoopback, OversizedRequestsAreRejectedBeforeTracing) {
  TempEngine t("dlapd_test_tune_bound");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  // An 80-byte body asking for 400000 sweep points: refused with 422
  // naming the bounds, before a single point is traced.
  auto response = client.request(
      "POST", "/v1/tune",
      "{\"op\":\"trinv\",\"n\":64,\"lo\":1,\"hi\":400000,\"step\":1}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 422);
  EXPECT_NE(response->body.find("INVALID_QUERY"), std::string::npos);
  EXPECT_NE(response->body.find("lo=1, hi=400000, step=1"), std::string::npos)
      << response->body;

  // One spec above OperationSpec::kMaxSize: refused with 422 naming the
  // field, before it is traced.
  response = client.request("POST", "/v1/predict",
                            "{\"op\":\"trinv\",\"n\":16000,"
                            "\"blocksize\":16000}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 422);
  EXPECT_NE(response->body.find("INVALID_QUERY"), std::string::npos);
  EXPECT_NE(response->body.find("n must be <= 8192"), std::string::npos)
      << response->body;
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 0u);
  server.stop();
}

TEST(ServerLoopback, MalformedWireRequestGetsTypedErrorAndClose) {
  TempEngine t("dlapd_test_wire");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.send_text("THIS IS NOT HTTP\r\n\r\n");
    const std::string response = conn.read_to_close();
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
  }
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.send_text("POST /v1/predict HTTP/3.0\r\n\r\n");
    EXPECT_NE(conn.read_to_close().find("HTTP/1.1 505"), std::string::npos);
  }

  EXPECT_TRUE(eventually([&] { return server.stats().parse_errors >= 2; }));
  server.stop();
}

TEST(ServerLoopback, MidRequestStallIsAnswered408NeverHung) {
  TempEngine t("dlapd_test_stall");
  ServerConfig config;
  config.io_timeout_ms = 150;  // stalled peers cost a worker 150 ms
  Server server(t.engine, config);
  ASSERT_TRUE(server.start().ok());

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.send_text("POST /v1/predict HTTP/1.1\r\nContent-Le");  // ...stall
  const std::string response = conn.read_to_close();
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  EXPECT_EQ(server.stats().timeouts, 1u);
  server.stop();
}

TEST(ServerLoopback, KeepAliveCapReconnectsTransparently) {
  TempEngine t("dlapd_test_keepalive");
  ServerConfig config;
  config.max_requests_per_connection = 2;
  Server server(t.engine, config);
  ASSERT_TRUE(server.start().ok());

  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    const auto response = client.request("GET", "/v1/stats");
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->status, 200);
  }
  // 5 requests at 2 per connection => at least 3 connections accepted.
  EXPECT_GE(server.stats().accepted, 3u);
  server.stop();
}

TEST(ServerLoopback, RateLimiterAnswers429WithRetryAfter) {
  TempEngine t("dlapd_test_rate");
  FakeClock clock;
  ServerConfig config;
  config.rate.requests_per_second = 1.0;
  config.rate.burst = 2.0;
  config.clock = clock.fn();
  Server server(t.engine, config);
  ASSERT_TRUE(server.start().ok());

  HttpClient client("127.0.0.1", server.port());
  const std::vector<std::pair<std::string, std::string>> alice = {
      {"X-Client-Id", "alice"}};
  const std::vector<std::pair<std::string, std::string>> bob = {
      {"X-Client-Id", "bob"}};

  EXPECT_EQ(client.request("GET", "/v1/stats", "", alice)->status, 200);
  EXPECT_EQ(client.request("GET", "/v1/stats", "", alice)->status, 200);
  const auto limited = client.request("GET", "/v1/stats", "", alice);
  ASSERT_TRUE(limited.has_value());
  EXPECT_EQ(limited->status, 429);
  EXPECT_NE(limited->body.find("RATE_LIMITED"), std::string::npos);
  ASSERT_NE(limited->header("Retry-After"), nullptr);
  EXPECT_GE(std::stoi(*limited->header("Retry-After")), 1);

  // A different client identity has its own bucket.
  EXPECT_EQ(client.request("GET", "/v1/stats", "", bob)->status, 200);

  // The injected clock refills alice deterministically -- no sleeps.
  clock.advance_ms(1000);
  EXPECT_EQ(client.request("GET", "/v1/stats", "", alice)->status, 200);
  EXPECT_EQ(server.stats().rate_limited, 1u);
  server.stop();
}

// ----------------------------------------- loopback: overload + shedding

TEST(ServerLoopback, QueueFullShedsWith503RetryAfterDeterministically) {
  TempEngine t("dlapd_test_shed");
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());

  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(t.engine, config);
  // A handler parked on `gate` pins the single worker, making overload a
  // deterministic state instead of a timing accident.
  server.router().add("GET", "/block", [&](const HttpRequest&) {
    entered.fetch_add(1);
    gate.wait();
    return Router::json_response(200,
                                 Json::object().set("blocked", Json::boolean(true)));
  });
  ASSERT_TRUE(server.start().ok());

  // A: occupies the only worker (handler parked).
  RawConn a(server.port());
  ASSERT_TRUE(a.connected());
  a.send_text("GET /block HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(eventually([&] { return entered.load() == 1; }));

  // B: sits in the connection queue (capacity 1, depth 1).
  RawConn b(server.port());
  ASSERT_TRUE(b.connected());
  b.send_text("GET /block HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(eventually([&] { return server.stats().queue_depth == 1; }));

  // C: queue full -> immediate canned 503 + Retry-After, connection
  // closed, never hung.
  RawConn c(server.port());
  ASSERT_TRUE(c.connected());
  c.send_text("GET /block HTTP/1.1\r\n\r\n");
  const std::string shed = c.read_to_close();
  EXPECT_NE(shed.find("HTTP/1.1 503"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Retry-After:"), std::string::npos);
  EXPECT_NE(shed.find("OVERLOADED"), std::string::npos);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);

  // Release the worker: A and B both complete normally -- shedding never
  // cancels admitted work.
  release.set_value();
  EXPECT_NE(a.read_to_close().find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(b.read_to_close().find("HTTP/1.1 200"), std::string::npos);
  ASSERT_TRUE(eventually([&] { return entered.load() == 2; }));
  server.stop();
}

// ------------------------------------------- loopback: stats + lifecycle

TEST(ServerLoopback, StatsEndpointReportsCounters) {
  TempEngine t("dlapd_test_stats");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  ASSERT_EQ(client.request("POST", "/v1/predict", "junk")->status, 400);
  const auto response = client.request("GET", "/v1/stats");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200);
  const Json stats = Json::parse(response->body);
  const Json* server_stats = stats.find("server");
  ASSERT_NE(server_stats, nullptr);
  EXPECT_GE(server_stats->find("requests")->as_integer(), 2);
  EXPECT_EQ(server_stats->find("responses")->find("status_4xx")->as_integer(),
            1);
  ASSERT_NE(stats.find("queue"), nullptr);
  ASSERT_NE(stats.find("limiter"), nullptr);
  ASSERT_NE(stats.find("reload"), nullptr);
  EXPECT_EQ(stats.find("queue")->find("capacity")->as_integer(), 64);

  // One rank under two systems: each system misses its own sweep points,
  // but only the first compiles the traces, which the second reuses.
  const auto misses = [&client](const char* layer) -> index_t {
    const auto r = client.request("GET", "/v1/stats");
    if (!r.has_value() || r->status != 200) return -1;
    return Json::parse(r->body)
        .find("engine")
        ->find(layer)
        ->find("misses")
        ->as_integer();
  };
  const auto rank_under = [&client](const char* locality) {
    const auto r = client.request(
        "POST", "/v1/rank",
        std::string("{\"candidates\":[{\"op\":\"trinv\",\"variant\":1,"
                    "\"n\":64,\"blocksize\":16},{\"op\":\"trinv\","
                    "\"variant\":2,\"n\":64,\"blocksize\":16}],"
                    "\"system\":{\"locality\":\"") +
            locality + "\"}}");
    return r.has_value() ? r->status : 0;
  };
  const index_t points0 = misses("trace_cache");
  const index_t traces0 = misses("compiled_traces");
  ASSERT_GE(points0, 0);
  ASSERT_GE(traces0, 0);
  ASSERT_EQ(rank_under("in_cache"), 200);
  const index_t points1 = misses("trace_cache");
  const index_t traces1 = misses("compiled_traces");
  EXPECT_EQ(points1, points0 + 2);
  EXPECT_EQ(traces1, traces0 + 2);
  ASSERT_EQ(rank_under("out_of_cache"), 200);
  EXPECT_EQ(misses("trace_cache"), points1 + 2);
  EXPECT_EQ(misses("compiled_traces"), traces1);
  const auto final_stats = client.request("GET", "/v1/stats");
  ASSERT_TRUE(final_stats.has_value());
  const Json after = Json::parse(final_stats->body);
  const Json* traces = after.find("engine")->find("compiled_traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->find("size")->as_integer(), 2);
  EXPECT_EQ(traces->find("evictions")->as_integer(), 0);
  EXPECT_EQ(traces->find("hits")->as_integer(), 2);
  server.stop();
}

TEST(ServerLoopback, StartStopChurnServesAfterEachRestart) {
  TempEngine t("dlapd_test_churn");
  Server server(t.engine, ServerConfig{});
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(server.start().ok()) << round;
    EXPECT_FALSE(server.start().ok());  // double start refused
    HttpClient client("127.0.0.1", server.port());
    const auto response = client.request("GET", "/v1/stats");
    ASSERT_TRUE(response.has_value()) << round;
    EXPECT_EQ(response->status, 200);
    server.stop();
    server.stop();  // idempotent
  }
}

// ----------------------------------------------- loopback: hot reload

TEST(ServerLoopback, ReloadEndpointAcceptsAndCompletes) {
  TempEngine t("dlapd_test_reload");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  const auto response = client.request("POST", "/v1/admin/reload", "{}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 202);
  const Json body = Json::parse(response->body);
  EXPECT_EQ(body.find("status")->as_string(), "reloading");
  EXPECT_EQ(body.find("reload_id")->as_integer(), 1);
  ASSERT_TRUE(
      eventually([&] { return server.stats().reloads_completed == 1; }));
  EXPECT_EQ(server.stats().reloads_failed, 0u);

  // Binding errors surface synchronously, before any reload starts.
  const auto bad = client.request("POST", "/v1/admin/reload",
                                  "{\"specs\":[{\"op\":7}]}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  EXPECT_NE(bad->body.find("'specs[0].op'"), std::string::npos);
  EXPECT_EQ(server.stats().reloads_started, 1u);
  server.stop();
}

TEST(ServerLoopback, ReloadOfCorruptContainerFailsSafelyAndKeepsServing) {
  TempEngine t("dlapd_test_reload_bad");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  // A good query first (generates the model).
  ASSERT_EQ(client
                .request("POST", "/v1/predict",
                         "{\"op\":\"chol\",\"n\":64,\"blocksize\":16}")
                ->status,
            200);

  // Drop a corrupt repository.dlapc in place and reload: the reload must
  // fail (counted, message recorded) while queries keep answering from
  // the previous attachment.
  {
    std::ofstream bad(t.dir / storage::kContainerFilename,
                      std::ios::binary);
    bad << "this is not a container";
  }
  ASSERT_EQ(client.request("POST", "/v1/admin/reload", "{}")->status, 202);
  ASSERT_TRUE(
      eventually([&] { return server.stats().reloads_failed == 1; }));
  EXPECT_FALSE(server.stats().last_reload_error.empty());

  const auto after = client.request(
      "POST", "/v1/predict", "{\"op\":\"chol\",\"n\":64,\"blocksize\":16}");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);
  server.stop();
}

TEST(ServerLoopback, ConcurrentClientsDuringReloadSeeZeroTornReads) {
  TempEngine t("dlapd_test_reload_hammer");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  // Three distinct queries; expected bodies precomputed from direct
  // Engine calls. The synthetic measure factory is deterministic, so a
  // reload (cache drop + regeneration) reproduces the models bit-for-bit
  // -- any response that differs by even one byte is a torn read.
  const std::vector<std::string> bodies = {
      "{\"op\":\"chol\",\"variant\":1,\"n\":96,\"blocksize\":32}",
      "{\"op\":\"trinv\",\"variant\":2,\"n\":64,\"blocksize\":16}",
      "{\"op\":\"sylv\",\"variant\":3,\"m\":48,\"n\":48,\"blocksize\":16}",
  };
  const std::vector<PredictQuery> queries = {
      PredictQuery::of(OperationSpec::chol(1, 96, 32)),
      PredictQuery::of(OperationSpec::trinv(2, 64, 16)),
      PredictQuery::of(OperationSpec::sylv(3, 48, 48, 16)),
  };
  std::vector<std::string> expected;
  for (const PredictQuery& query : queries) {
    const Result<Prediction> direct = t.engine.predict(query);
    ASSERT_TRUE(direct.ok()) << direct.status().to_string();
    expected.push_back(render_prediction(*direct).dump());
  }

  constexpr int kClients = 4;
  constexpr int kRequests = 60;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  // The clients start once the first reload is posted, so at least one
  // reload overlaps their traffic however fast the queries are answered.
  std::latch go(1);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      go.wait();
      for (int i = 0; i < kRequests; ++i) {
        const std::size_t q = static_cast<std::size_t>((c + i) % 3);
        const auto response =
            client.request("POST", "/v1/predict", bodies[q]);
        if (!response.has_value() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        if (response->body != expected[q]) mismatches.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }

  // Fire reloads while the clients hammer: each one re-attaches the
  // container path, drops the model cache and bumps the snapshot
  // version. In-flight queries finish on pinned snapshots. No ASSERTs
  // here -- the client threads must be joined before the test can exit.
  int reloads = 0;
  bool admin_ok = true;
  {
    HttpClient admin("127.0.0.1", server.port());
    while (completed.load() < kClients * kRequests / 2 && reloads < 8) {
      // Snapshot the completion counters BEFORE posting, so a reload
      // finishing instantly cannot be missed.
      const std::uint64_t done =
          server.stats().reloads_completed + server.stats().reloads_failed;
      const auto response = admin.request("POST", "/v1/admin/reload", "{}");
      if (reloads == 0) go.count_down();
      if (!response.has_value() || response->status != 202) {
        admin_ok = false;
        break;
      }
      ++reloads;
      if (!eventually([&] {
            return server.stats().reloads_completed +
                       server.stats().reloads_failed >
                   done;
          })) {
        admin_ok = false;
        break;
      }
    }
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_TRUE(admin_ok);
  EXPECT_GE(reloads, 1);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);  // zero torn reads, bit-identical
  EXPECT_EQ(completed.load(), kClients * kRequests);
  ASSERT_TRUE(eventually([&] {
    return server.stats().reloads_completed ==
           static_cast<std::uint64_t>(reloads);
  }));
  EXPECT_EQ(server.stats().reloads_failed, 0u);
  server.stop();
}

TEST(ServerLoopback, ReloadPicksUpCompactedContainer) {
  TempEngine t("dlapd_test_reload_container");
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  // Generate a model (written through to the text repository), then fold
  // the repository into repository.dlapc offline -- the dlap_pack
  // workflow -- and hot-reload it.
  const std::string body = "{\"op\":\"trinv\",\"n\":80,\"blocksize\":16}";
  const auto before = client.request("POST", "/v1/predict", body);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->status, 200) << before->body;

  (void)storage::compact_repository(t.dir);
  ASSERT_TRUE(fs::exists(t.dir / storage::kContainerFilename));

  ASSERT_EQ(client.request("POST", "/v1/admin/reload", "{}")->status, 202);
  ASSERT_TRUE(
      eventually([&] { return server.stats().reloads_completed == 1; }));

  // Post-reload responses still match a direct Engine call bit-for-bit
  // (both now served from the mmap'ed container).
  const auto after = client.request("POST", "/v1/predict", body);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->status, 200) << after->body;
  const Result<Prediction> direct =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 80, 16)));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(after->body, render_prediction(*direct).dump());
  server.stop();
}

/// Generates the models `specs` need into `dir` (a temp-directory child)
/// from measurements offset by `offset`, then compacts them into the
/// directory's container.
void write_container_repository(const fs::path& dir, double offset,
                                const std::vector<OperationSpec>& specs) {
  fs::remove_all(dir);
  {
    EngineConfig cfg = engine_config(dir.filename().string());
    cfg.service.measure_factory = [offset](const ModelJob&) {
      return synthetic_measure(offset);
    };
    Engine engine(std::move(cfg));
    ASSERT_TRUE(engine.prepare(specs).ok());
  }
  (void)storage::compact_repository(dir);
}

TEST(ServerLoopback, ReloadReplacesStoredRankText) {
  const RankQuery query = RankQuery::trinv_variants(96, 32);
  std::string body = "{\"candidates\":[";
  for (std::size_t i = 0; i < query.candidates.size(); ++i) {
    if (i != 0) body += ',';
    write_spec(query.candidates[i], &body);
  }
  body += "]}";
  const fs::path old_repo =
      fs::temp_directory_path() / "dlapd_test_text_old";
  const fs::path new_repo =
      fs::temp_directory_path() / "dlapd_test_text_new";
  const TempEngine::Cleanup old_cleanup{old_repo};
  const TempEngine::Cleanup new_cleanup{new_repo};
  ASSERT_NO_FATAL_FAILURE(
      write_container_repository(old_repo, 0.0, query.candidates));
  ASSERT_NO_FATAL_FAILURE(
      write_container_repository(new_repo, 5000.0, query.candidates));

  EngineConfig cfg = engine_config("dlapd_test_text_live");
  cfg.generate_missing = false;
  TempEngine t("dlapd_test_text_live", cfg);
  fs::create_directories(t.dir);
  const fs::path live = t.dir / storage::kContainerFilename;
  fs::copy_file(old_repo / storage::kContainerFilename, live);
  ASSERT_TRUE(t.engine.reload().ok());
  Server server(t.engine, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  // The second rank is answered from the snapshots' stored text.
  const auto before = client.request("POST", "/v1/rank", body);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->status, 200) << before->body;
  const auto warm = client.request("POST", "/v1/rank", body);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->body, before->body);

  // Swap in a container with different models, the way compaction
  // publishes one, and reload through the daemon.
  const std::weak_ptr<const storage::ContainerReader> replaced =
      t.engine.service().repository().container();
  ASSERT_FALSE(replaced.expired());
  const fs::path next = t.dir / "next.dlapc";
  fs::copy_file(new_repo / storage::kContainerFilename, next);
  fs::rename(next, live);
  ASSERT_EQ(client.request("POST", "/v1/admin/reload", "{}")->status, 202);
  ASSERT_TRUE(
      eventually([&] { return server.stats().reloads_completed == 1; }));
  // The daemon drops the replaced container after publishing completion
  // and keeps no reference to it; the stats report both reload stages.
  EXPECT_TRUE(eventually([&] { return replaced.expired(); }));
  const auto stats = client.request("GET", "/v1/stats");
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->status, 200) << stats->body;
  const Json stats_body = Json::parse(stats->body);
  const Json* reload = stats_body.find("reload");
  ASSERT_NE(reload, nullptr);
  for (const char* field : {"last_swap_us", "last_release_us"}) {
    const Json* value = reload->find(field);
    ASSERT_NE(value, nullptr) << field;
    EXPECT_TRUE(value->is_number()) << field;
  }

  const auto after = client.request("POST", "/v1/rank", body);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->status, 200) << after->body;
  Engine fresh(cfg);
  const Result<Ranking> expected = fresh.rank(query);
  ASSERT_TRUE(expected.ok()) << expected.status().to_string();
  EXPECT_EQ(after->body, render_ranking(*expected).dump());
  // No prediction text of the old models survives the reload.
  const Json old_predictions = *Json::parse(before->body).find("predictions");
  for (std::size_t i = 0; i < old_predictions.size(); ++i) {
    EXPECT_EQ(after->body.find(old_predictions.at(i).dump()),
              std::string::npos)
        << i;
  }
  server.stop();
}

}  // namespace
}  // namespace dlap::server
