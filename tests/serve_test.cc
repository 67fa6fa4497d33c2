#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/guard.h"
#include "core/serialization.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/table.h"

// Serving-layer suite (docs/SERVING.md): wire protocol round trips and
// malformed-frame hardening, registry versioning / analyzer gating / hot
// reload, engine parity with the offline Guard, admission backpressure,
// fault isolation, and a localhost server end-to-end.

namespace guardrail {
namespace serve {
namespace {

namespace fs = std::filesystem;

// ---- Shared fixtures ----------------------------------------------------

// zip -> city dataset: 94704=Berkeley, 94607=Oakland.
const char* kCsv =
    "zip,city\n"
    "94704,Berkeley\n"
    "94704,Berkeley\n"
    "94607,Oakland\n"
    "94607,Oakland\n"
    "94704,Berkeley\n"
    "94607,Oakland\n";

const char* kProgramText =
    "# guardrail-program v1\n"
    "GIVEN zip ON city HAVING\n"
    "  IF zip = '94704' THEN city <- 'Berkeley';\n"
    "  IF zip = '94607' THEN city <- 'Oakland';\n";

Schema DemoSchema() {
  auto doc = ParseCsv(kCsv);
  EXPECT_TRUE(doc.ok());
  auto table = Table::FromCsv(*doc);
  EXPECT_TRUE(table.ok());
  return table->schema();
}

// A registry with the demo dataset published as version 1.
void LoadDemo(ProgramRegistry* registry, const std::string& dataset = "demo") {
  auto version = registry->LoadFromText(dataset, kProgramText, DemoSchema());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  ASSERT_EQ(*version, 1u);
}

ValidateRequest DemoRequest(std::string payload,
                            core::ErrorPolicy scheme = core::ErrorPolicy::kRaise,
                            RowFormat format = RowFormat::kCsv) {
  ValidateRequest request;
  request.dataset = "demo";
  request.scheme = scheme;
  request.format = format;
  request.payload = std::move(payload);
  return request;
}

// A unique temp directory; removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("guardrail_serve_test_" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id())) +
            "_" + std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
  void Write(const std::string& name, const std::string& content) const {
    std::ofstream out(path / name, std::ios::binary);
    out << content;
  }
};

// ---- Protocol: round trips ----------------------------------------------

TEST(ProtocolTest, ValidateRequestRoundTrips) {
  ValidateRequest request;
  request.dataset = "hospital";
  request.scheme = core::ErrorPolicy::kRectify;
  request.format = RowFormat::kJson;
  request.deadline_ms = 250;
  request.request_id = 0xFEEDFACECAFEBEEFULL;
  request.payload = "[{\"a\":\"x\"}]";

  std::string frame = EncodeValidateRequest(request);
  ASSERT_GE(frame.size(), kFramePrefixBytes);
  uint64_t payload_size =
      DecodeFramePrefix(reinterpret_cast<const uint8_t*>(frame.data()));
  ASSERT_EQ(payload_size, frame.size() - kFramePrefixBytes);
  ASSERT_TRUE(CheckFrameSize(payload_size).ok());

  std::string_view payload(frame.data() + kFramePrefixBytes, payload_size);
  ValidateRequest decoded;
  ASSERT_TRUE(DecodeValidateRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(decoded.scheme, request.scheme);
  EXPECT_EQ(decoded.format, request.format);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.payload, request.payload);
}

TEST(ProtocolTest, ValidateResponseRoundTrips) {
  ValidateResponse response;
  response.code = StatusCode::kOk;
  response.program_version = 7;
  response.duplicate = true;
  response.rows = {
      {RowVerdict::kOk, 0, ""},
      {RowVerdict::kViolation, 2, "94704,Berkeley"},
      {RowVerdict::kFailed, 0, "injected fault"},
  };

  std::string frame = EncodeValidateResponse(response);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  ValidateResponse decoded;
  ASSERT_TRUE(DecodeValidateResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kOk);
  EXPECT_EQ(decoded.program_version, 7u);
  EXPECT_TRUE(decoded.duplicate);
  ASSERT_EQ(decoded.rows.size(), 3u);
  EXPECT_TRUE(decoded.rows == response.rows);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  ValidateResponse response;
  response.code = StatusCode::kResourceExhausted;
  response.error = "server overloaded";
  response.retry_after_ms = 25;
  std::string frame = EncodeValidateResponse(response);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  ValidateResponse decoded;
  ASSERT_TRUE(DecodeValidateResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.error, "server overloaded");
  EXPECT_EQ(decoded.retry_after_ms, 25u);
  EXPECT_FALSE(decoded.duplicate);
  EXPECT_TRUE(decoded.rows.empty());
}

TEST(ProtocolTest, PingRoundTrips) {
  PingResponse pong;
  pong.draining = true;
  pong.datasets = {{"demo", 3, 0xdeadbeefULL, 2}, {"hospital", 1, 42, 9}};

  std::string ping_frame = EncodePingRequest();
  std::string_view ping_payload(ping_frame.data() + kFramePrefixBytes,
                                ping_frame.size() - kFramePrefixBytes);
  MsgType type;
  ASSERT_TRUE(PeekMsgType(ping_payload, &type).ok());
  EXPECT_EQ(type, MsgType::kPingRequest);
  EXPECT_TRUE(DecodePingRequest(ping_payload).ok());

  std::string frame = EncodePingResponse(pong);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  PingResponse decoded;
  ASSERT_TRUE(DecodePingResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_TRUE(decoded.draining);
  ASSERT_EQ(decoded.datasets.size(), 2u);
  EXPECT_EQ(decoded.datasets[0].dataset, "demo");
  EXPECT_EQ(decoded.datasets[0].version, 3u);
  EXPECT_EQ(decoded.datasets[0].source_hash, 0xdeadbeefULL);
  EXPECT_EQ(decoded.datasets[1].statements, 9u);
}

// ---- Protocol: malformed frames -----------------------------------------

TEST(ProtocolTest, EveryTruncationOfAValidPayloadIsRejectedCleanly) {
  ValidateRequest request = DemoRequest("zip,city\n94704,Berkeley\n");
  std::string frame = EncodeValidateRequest(request);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    ValidateRequest decoded;
    Status st = DecodeValidateRequest(payload.substr(0, len), &decoded);
    EXPECT_FALSE(st.ok()) << "truncation to " << len << " bytes decoded";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }

  ValidateResponse response;
  response.rows = {{RowVerdict::kViolation, 1, "detail"}};
  std::string rframe = EncodeValidateResponse(response);
  std::string_view rpayload(rframe.data() + kFramePrefixBytes,
                            rframe.size() - kFramePrefixBytes);
  for (size_t len = 0; len < rpayload.size(); ++len) {
    ValidateResponse decoded;
    EXPECT_FALSE(
        DecodeValidateResponse(rpayload.substr(0, len), &decoded).ok());
  }
}

TEST(ProtocolTest, OversizedAndZeroFramePrefixesAreRejected) {
  EXPECT_FALSE(CheckFrameSize(0).ok());
  EXPECT_TRUE(CheckFrameSize(1).ok());
  EXPECT_TRUE(CheckFrameSize(kMaxFrameBytes).ok());
  EXPECT_FALSE(CheckFrameSize(uint64_t{kMaxFrameBytes} + 1).ok());
  EXPECT_FALSE(CheckFrameSize(0xFFFFFFFFULL).ok());
}

TEST(ProtocolTest, GarbageEnumIdsAreRejected) {
  // Scheme id 9 in an otherwise valid request.
  std::string payload;
  PutU8(static_cast<uint8_t>(MsgType::kValidateRequest), &payload);
  PutString("demo", &payload);
  PutU8(9, &payload);  // scheme
  PutU8(0, &payload);  // format
  PutU32(0, &payload);
  PutString("zip,city\n", &payload);
  ValidateRequest decoded;
  Status st = DecodeValidateRequest(payload, &decoded);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("scheme"), std::string::npos);

  // Format id 7.
  payload.clear();
  PutU8(static_cast<uint8_t>(MsgType::kValidateRequest), &payload);
  PutString("demo", &payload);
  PutU8(0, &payload);
  PutU8(7, &payload);
  PutU32(0, &payload);
  PutString("zip,city\n", &payload);
  EXPECT_FALSE(DecodeValidateRequest(payload, &decoded).ok());

  // Wrong message type for the decoder.
  std::string ping = EncodePingRequest();
  std::string_view ping_payload(ping.data() + kFramePrefixBytes,
                                ping.size() - kFramePrefixBytes);
  EXPECT_FALSE(DecodeValidateRequest(ping_payload, &decoded).ok());
}

TEST(ProtocolTest, TrailingBytesAreRejected) {
  std::string frame = EncodePingRequest();
  std::string payload(frame.data() + kFramePrefixBytes,
                      frame.size() - kFramePrefixBytes);
  payload += '\x00';
  EXPECT_FALSE(DecodePingRequest(payload).ok());
}

TEST(ProtocolTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(0x5EEDULL);
  for (int i = 0; i < 2000; ++i) {
    size_t len = static_cast<size_t>(rng.NextUint64(64));
    std::string payload;
    payload.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      payload.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    ValidateRequest request;
    ValidateResponse response;
    PingResponse pong;
    // Any outcome is fine except a crash; errors must be InvalidArgument.
    Status s1 = DecodeValidateRequest(payload, &request);
    Status s2 = DecodeValidateResponse(payload, &response);
    Status s3 = DecodePingResponse(payload, &pong);
    for (const Status& s : {s1, s2, s3}) {
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ProtocolTest, MutatedValidFramesNeverCrashTheDecoders) {
  ValidateRequest request =
      DemoRequest("zip,city\n94704,Berkeley\n", core::ErrorPolicy::kCoerce);
  std::string frame = EncodeValidateRequest(request);
  std::string base(frame.data() + kFramePrefixBytes,
                   frame.size() - kFramePrefixBytes);
  Rng rng(0xF00DULL);
  for (int i = 0; i < 2000; ++i) {
    std::string payload = base;
    int flips = 1 + static_cast<int>(rng.NextUint64(4));
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(rng.NextUint64(payload.size()));
      payload[at] = static_cast<char>(rng.NextUint64(256));
    }
    ValidateRequest decoded;
    Status st = DecodeValidateRequest(payload, &decoded);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
}

// ---- Registry -----------------------------------------------------------

TEST(RegistryTest, PublishesAndVersionsMonotonically) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  auto v1 = registry.Get("demo");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->statement_count(), 1);
  EXPECT_NE(v1->source_hash, 0u);

  auto v2 = registry.LoadFromText("demo", kProgramText, DemoSchema());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  // The old snapshot is still pinned by v1; readers keep their version.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.Get("demo")->version, 2u);
  EXPECT_EQ(registry.versions_published(), 2);
}

TEST(RegistryTest, UnknownDatasetIsNull) {
  ProgramRegistry registry;
  EXPECT_EQ(registry.Get("nope"), nullptr);
  EXPECT_TRUE(registry.List().empty());
}

TEST(RegistryTest, AnalyzerRejectsContradictoryProgram) {
  // Two branches on the same determinant value assigning different cities:
  // the contradiction pass flags this at error severity, so the registry
  // must refuse to publish it.
  const char* contradictory =
      "# guardrail-program v1\n"
      "GIVEN zip ON city HAVING\n"
      "  IF zip = '94704' THEN city <- 'Berkeley';\n"
      "GIVEN zip ON city HAVING\n"
      "  IF zip = '94704' THEN city <- 'Oakland';\n";
  ProgramRegistry registry;
  auto version = registry.LoadFromText("demo", contradictory, DemoSchema());
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(version.status().message().find("analyzer"), std::string::npos);
  EXPECT_EQ(registry.Get("demo"), nullptr);

  // A failing load never displaces a live version.
  LoadDemo(&registry);
  auto again = registry.LoadFromText("demo", contradictory, DemoSchema());
  EXPECT_FALSE(again.ok());
  ASSERT_NE(registry.Get("demo"), nullptr);
  EXPECT_EQ(registry.Get("demo")->version, 1u);
}

TEST(RegistryTest, MalformedProgramTextIsRejected) {
  ProgramRegistry registry;
  Schema schema = DemoSchema();
  EXPECT_FALSE(registry.LoadFromText("demo", "not a program", schema).ok());
  // Unknown attribute: the parser requires names to pre-exist in the schema.
  EXPECT_FALSE(registry
                   .LoadFromText("demo",
                                 "# guardrail-program v1\n"
                                 "GIVEN state ON city HAVING\n"
                                 "  IF state = 'CA' THEN city <- 'X';\n",
                                 schema)
                   .ok());
  EXPECT_EQ(registry.Get("demo"), nullptr);
}

TEST(RegistryTest, PollDirectoryLoadsAndHotReloads) {
  TempDir dir;
  dir.Write("demo.grl", kProgramText);
  dir.Write("demo.csv", kCsv);

  ProgramRegistry registry;
  auto published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(*published, 1);
  auto snapshot = registry.Get("demo");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->schema.num_attributes(), 2);

  // Unchanged files: no new version.
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 0);
  EXPECT_EQ(registry.Get("demo")->version, 1u);

  // Changed program text: hot reload to version 2.
  std::string updated = kProgramText;
  updated += "# updated comment\n";
  dir.Write("demo.grl", updated);
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1);
  EXPECT_EQ(registry.Get("demo")->version, 2u);

  // A broken rewrite is skipped; version 2 stays live, and the broken
  // content is not retried on the next poll (attempted-hash dedup).
  dir.Write("demo.grl", "garbage");
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 0);
  EXPECT_EQ(registry.Get("demo")->version, 2u);

  // Second dataset appears: only it publishes.
  dir.Write("other.grl", kProgramText);
  dir.Write("other.csv", kCsv);
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1);
  ASSERT_EQ(registry.List().size(), 2u);
  EXPECT_EQ(registry.List()[0]->dataset, "demo");
  EXPECT_EQ(registry.List()[1]->dataset, "other");
}

TEST(RegistryTest, PollDirectoryMissingDirIsIoError) {
  ProgramRegistry registry;
  auto published = registry.PollDirectory("/nonexistent/guardrail/dir");
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.status().code(), StatusCode::kIoError);
}

// ---- Engine: offline parity --------------------------------------------

// The serving engine's per-row verdicts must be byte-identical to what the
// offline Guard computes for the same rows under every scheme.
TEST(EngineParityTest, VerdictsMatchOfflineGuardForAllSchemes) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  // Mixed batch: clean rows, a wrong city, an unseen zip, an empty city
  // field (an ordinary '' label offline), and an unseen city label.
  const std::string batch =
      "zip,city\n"
      "94704,Berkeley\n"
      "94704,Oakland\n"
      "10001,Berkeley\n"
      "94607,\n"
      "94607,Fresno\n";

  for (core::ErrorPolicy scheme :
       {core::ErrorPolicy::kRaise, core::ErrorPolicy::kIgnore,
        core::ErrorPolicy::kCoerce, core::ErrorPolicy::kRectify}) {
    ValidateResponse response = engine.Handle(DemoRequest(batch, scheme));
    ASSERT_EQ(response.code, StatusCode::kOk)
        << core::ErrorPolicyName(scheme) << ": " << response.error;
    EXPECT_EQ(response.program_version, 1u);
    ASSERT_EQ(response.rows.size(), 5u);

    // Offline reference: same schema extension path as the engine.
    auto snapshot = registry.Get("demo");
    Schema offline_schema = snapshot->schema;
    auto doc = ParseCsv(batch);
    ASSERT_TRUE(doc.ok());
    core::Guard guard(&snapshot->program);
    for (size_t r = 0; r < doc->rows.size(); ++r) {
      Row row(2, kNullValue);
      for (AttrIndex c = 0; c < 2; ++c) {
        row[static_cast<size_t>(c)] = offline_schema.attribute(c).GetOrInsert(
            doc->rows[r][static_cast<size_t>(c)]);
      }
      auto checked = guard.interpreter().CheckedCheck(row);
      ASSERT_TRUE(checked.ok());
      const RowResult& got = response.rows[r];
      if (checked->empty()) {
        EXPECT_EQ(got.verdict, RowVerdict::kOk) << "row " << r;
        EXPECT_TRUE(got.detail.empty());
        continue;
      }
      EXPECT_EQ(got.verdict, RowVerdict::kViolation) << "row " << r;
      EXPECT_EQ(got.violations, checked->size());
      if (scheme == core::ErrorPolicy::kRaise ||
          scheme == core::ErrorPolicy::kIgnore) {
        EXPECT_TRUE(got.detail.empty());
      } else {
        auto repaired = guard.ProcessRow(row, scheme);
        ASSERT_TRUE(repaired.ok());
        std::string expected;
        if (!(*repaired == row)) {
          std::vector<std::string> fields;
          for (AttrIndex c = 0; c < 2; ++c) {
            ValueId v = (*repaired)[static_cast<size_t>(c)];
            fields.push_back(
                v == kNullValue ? "" : offline_schema.attribute(c).label(v));
          }
          expected = WriteCsvRecord(fields);
        }
        EXPECT_EQ(got.detail, expected)
            << "row " << r << " scheme " << core::ErrorPolicyName(scheme);
      }
    }
  }
}

// The JSON wire format yields the same verdicts as CSV, including null for
// a missing cell.
TEST(EngineParityTest, JsonRowsMatchCsvRows) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  const std::string csv =
      "zip,city\n"
      "94704,Berkeley\n"
      "94704,Oakland\n"
      "94607,\n";
  const std::string json =
      "[{\"zip\":\"94704\",\"city\":\"Berkeley\"},"
      "{\"zip\":\"94704\",\"city\":\"Oakland\"},"
      "{\"zip\":\"94607\",\"city\":\"\"}]";

  ValidateResponse from_csv =
      engine.Handle(DemoRequest(csv, core::ErrorPolicy::kRectify));
  ValidateResponse from_json = engine.Handle(
      DemoRequest(json, core::ErrorPolicy::kRectify, RowFormat::kJson));
  ASSERT_EQ(from_csv.code, StatusCode::kOk) << from_csv.error;
  ASSERT_EQ(from_json.code, StatusCode::kOk) << from_json.error;
  ASSERT_EQ(from_csv.rows.size(), from_json.rows.size());
  for (size_t r = 0; r < from_csv.rows.size(); ++r) {
    EXPECT_TRUE(from_csv.rows[r] == from_json.rows[r]) << "row " << r;
  }

  // JSON null is a real missing cell (kNullValue), unlike the CSV empty
  // field; a null city draws no equality violation here because the
  // interpreter treats it as a missing observation to coerce, not a label.
  ValidateResponse with_null = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\",\"city\":null}]", core::ErrorPolicy::kRaise,
      RowFormat::kJson));
  ASSERT_EQ(with_null.code, StatusCode::kOk) << with_null.error;
  ASSERT_EQ(with_null.rows.size(), 1u);
}

TEST(EngineTest, MalformedPayloadsAreInvalidArgument) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  // Ragged CSV.
  ValidateResponse r1 = engine.Handle(DemoRequest("zip,city\n94704\n"));
  EXPECT_EQ(r1.code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(r1.rows.empty());

  // Header mismatch.
  ValidateResponse r2 =
      engine.Handle(DemoRequest("city,zip\nBerkeley,94704\n"));
  EXPECT_EQ(r2.code, StatusCode::kInvalidArgument);

  // JSON with an unknown attribute.
  ValidateResponse r3 = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\",\"state\":\"CA\"}]", core::ErrorPolicy::kRaise,
      RowFormat::kJson));
  EXPECT_EQ(r3.code, StatusCode::kInvalidArgument);

  // JSON with a missing attribute.
  ValidateResponse r4 = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\"}]", core::ErrorPolicy::kRaise, RowFormat::kJson));
  EXPECT_EQ(r4.code, StatusCode::kInvalidArgument);

  // Unknown dataset.
  ValidateRequest request = DemoRequest("zip,city\n94704,Berkeley\n");
  request.dataset = "nope";
  EXPECT_EQ(engine.Handle(request).code, StatusCode::kNotFound);

  // The engine stays serviceable after every failure.
  ValidateResponse ok = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(ok.code, StatusCode::kOk);
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0].verdict, RowVerdict::kOk);
}

TEST(EngineTest, BatchRowCapIsEnforced) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  EngineOptions options;
  options.max_batch_rows = 2;
  ValidationEngine engine(&registry, options);
  ValidateResponse response = engine.Handle(
      DemoRequest("zip,city\n94704,Berkeley\n94704,Berkeley\n94704,Berkeley\n"));
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_NE(response.error.find("cap"), std::string::npos);
}

TEST(EngineTest, ParallelBatchMatchesSerial) {
  ProgramRegistry registry;
  LoadDemo(&registry);

  // 6000 rows with a violation sprinkled every 7th row.
  std::string batch = "zip,city\n";
  for (int i = 0; i < 6000; ++i) {
    batch += i % 7 == 0 ? "94704,Oakland\n" : "94704,Berkeley\n";
  }

  EngineOptions serial;
  serial.parallel_batch_threshold = 1 << 30;  // Force the serial loop.
  EngineOptions parallel;
  parallel.parallel_batch_threshold = 1;  // Force the sharded scan.
  parallel.rows_per_shard = 256;
  ValidationEngine serial_engine(&registry, serial);
  ValidationEngine parallel_engine(&registry, parallel);

  ValidateResponse a =
      serial_engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
  ValidateResponse b =
      parallel_engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
  ASSERT_EQ(a.code, StatusCode::kOk) << a.error;
  ASSERT_EQ(b.code, StatusCode::kOk) << b.error;
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_TRUE(a.rows[r] == b.rows[r]) << "row " << r;
  }
}

TEST(EngineTest, ExpiredDeadlineAnswersTimeout) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  // A large serial batch with an already-expired budget: the stride-64
  // checker fires early and the whole request answers kTimeout.
  std::string batch = "zip,city\n";
  for (int i = 0; i < 1000; ++i) batch += "94704,Berkeley\n";
  ValidateRequest request = DemoRequest(batch);
  request.deadline_ms = 1;
  // Burn past the deadline before the scan starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ValidateResponse response = engine.Handle(request);
  // Either the request finished before expiry (tiny batch, fast machine) or
  // it timed out — but a timeout must be the clean kTimeout wire code.
  if (response.code != StatusCode::kOk) {
    EXPECT_EQ(response.code, StatusCode::kTimeout);
    EXPECT_TRUE(response.rows.empty());
  }
}

// ---- Engine: admission backpressure ------------------------------------

TEST(AdmissionTest, BoundedAndReleased) {
  AdmissionController admission(2);
  EXPECT_TRUE(admission.TryAcquire());
  EXPECT_TRUE(admission.TryAcquire());
  EXPECT_FALSE(admission.TryAcquire());  // Third arrival is shed.
  EXPECT_EQ(admission.inflight(), 2);
  admission.Release();
  EXPECT_TRUE(admission.TryAcquire());
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, OverloadedEngineAnswersResourceExhausted) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  EngineOptions options;
  options.max_inflight = 1;
  ValidationEngine engine(&registry, options);

  // Saturate the single slot by hand, then observe the shed response.
  ASSERT_TRUE(engine.admission().TryAcquire());
  ValidateResponse shed = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.rows.empty());
  engine.admission().Release();

  ValidateResponse ok = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(ok.code, StatusCode::kOk);
}

// ---- Engine: fault isolation -------------------------------------------

TEST(EngineTest, InjectedFaultsAreIsolatedPerRequest) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  auto& failpoints = FailpointRegistry::Instance();
  failpoints.DisarmAll();

  // Request-level fault: the request fails cleanly with the injected code.
  {
    ScopedFailpoint fp("serve.handle_request", 1.0, StatusCode::kIoError);
    ValidateResponse response =
        engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
    EXPECT_EQ(response.code, StatusCode::kIoError);
    EXPECT_TRUE(response.rows.empty());
  }

  // Row-level fault (interpreter.check): rows fail individually, the batch
  // still completes with kOk and per-row kFailed verdicts.
  {
    ScopedFailpoint fp("interpreter.check", 1.0, StatusCode::kInternal);
    ValidateResponse response =
        engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n94607,Oakland\n"));
    EXPECT_EQ(response.code, StatusCode::kOk);
    ASSERT_EQ(response.rows.size(), 2u);
    for (const RowResult& row : response.rows) {
      EXPECT_EQ(row.verdict, RowVerdict::kFailed);
      EXPECT_FALSE(row.detail.empty());
    }
  }

  // Disarmed: the very next request is clean.
  ValidateResponse clean =
      engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(clean.code, StatusCode::kOk);
  ASSERT_EQ(clean.rows.size(), 1u);
  EXPECT_EQ(clean.rows[0].verdict, RowVerdict::kOk);
}

// ---- Registry + engine concurrency (TSan-exercised) ---------------------

// Validation requests race a loader republishing new versions. TSan (the CI
// thread-sanitizer job runs this test) must see no torn reads, and every
// response must report a version that was live at some point during the
// request: >= the registry's live version read before the call, <= the one
// read after. Both bounds come from ProgramRegistry::Get: a version is live
// before LoadFromText returns, so the loader's copy of the returned number
// can lag what requests report.
TEST(ServeConcurrencyTest, HotReloadDoesNotTearInFlightRequests) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  Schema base = DemoSchema();

  std::atomic<bool> stop{false};

  std::thread loader([&] {
    // Release the workers on every exit path, a failed ASSERT_TRUE included,
    // so a failed publish fails the test instead of hanging it.
    struct StopOnExit {
      std::atomic<bool>* stop;
      ~StopOnExit() { stop->store(true, std::memory_order_release); }
    } stop_on_exit{&stop};
    for (int i = 0; i < 50; ++i) {
      auto version = registry.LoadFromText("demo", kProgramText, base);
      ASSERT_TRUE(version.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::string batch =
      "zip,city\n94704,Berkeley\n94704,Oakland\n94607,Oakland\n";
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t before = registry.Get("demo")->version;
        ValidateResponse response =
            engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
        uint64_t after = registry.Get("demo")->version;
        ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
        EXPECT_GE(response.program_version, before);
        EXPECT_LE(response.program_version, after);
        ASSERT_EQ(response.rows.size(), 3u);
        EXPECT_EQ(response.rows[0].verdict, RowVerdict::kOk);
        EXPECT_EQ(response.rows[1].verdict, RowVerdict::kViolation);
        EXPECT_EQ(response.rows[1].detail, "94704,Berkeley");
        EXPECT_EQ(response.rows[2].verdict, RowVerdict::kOk);
      }
    });
  }
  loader.join();
  for (auto& t : workers) t.join();
  EXPECT_EQ(registry.Get("demo")->version, 51u);
}

// ---- Server end-to-end --------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadDemo(&registry_);
    EngineOptions options;
    engine_ = std::make_unique<ValidationEngine>(&registry_, options);
    ServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<Server>(&registry_, engine_.get(),
                                       server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  ProgramRegistry registry_;
  std::unique_ptr<ValidationEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ValidateOverLocalhost) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = client->Validate(
      DemoRequest("zip,city\n94704,Berkeley\n94704,Oakland\n",
                  core::ErrorPolicy::kRectify));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
  EXPECT_EQ(response->program_version, 1u);
  ASSERT_EQ(response->rows.size(), 2u);
  EXPECT_EQ(response->rows[0].verdict, RowVerdict::kOk);
  EXPECT_EQ(response->rows[1].verdict, RowVerdict::kViolation);
  EXPECT_EQ(response->rows[1].detail, "94704,Berkeley");

  // Same connection, next request: unknown dataset.
  ValidateRequest bad = DemoRequest("zip,city\n94704,Berkeley\n");
  bad.dataset = "nope";
  auto not_found = client->Validate(bad);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->code, StatusCode::kNotFound);

  // Ping reports the live dataset.
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->protocol_version, kProtocolVersion);
  EXPECT_FALSE(pong->draining);
  ASSERT_EQ(pong->datasets.size(), 1u);
  EXPECT_EQ(pong->datasets[0].dataset, "demo");
  EXPECT_EQ(pong->datasets[0].version, 1u);
}

TEST_F(ServerTest, GarbagePayloadGetsErrorResponseNotACrash) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  // A well-framed but undecodable payload (empty request body is bad CSV)
  // must come back as a clean error response on the same connection...
  ValidateRequest probe = DemoRequest("zip,city\n94704,Berkeley\n");
  auto error_response = client->Validate(DemoRequest(""));
  ASSERT_TRUE(error_response.ok());
  EXPECT_EQ(error_response->code, StatusCode::kInvalidArgument);

  // ...and the connection still works afterwards.
  auto ok_response = client->Validate(probe);
  ASSERT_TRUE(ok_response.ok());
  EXPECT_EQ(ok_response->code, StatusCode::kOk);
}

TEST_F(ServerTest, DrainFinishesInFlightThenStops) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  // Kick off a drain concurrently with a request in flight.
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_->Drain();
    drained.store(true);
  });

  // Requests issued before/during the drain either complete normally or,
  // if the connection was already past the drain point, fail at transport
  // level — but never with a torn/partial response.
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    auto response = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    if (!response.ok()) break;  // Connection closed by the drain.
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    ASSERT_EQ(response->rows.size(), 1u);
    ++completed;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_GT(completed, 0);
  EXPECT_TRUE(server_->draining());

  // New connections are refused or reset after the drain.
  auto late = Client::Connect("127.0.0.1", server_->port(), 500);
  if (late.ok()) {
    auto response = late->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    EXPECT_FALSE(response.ok());
  }
}

TEST(ServerWatchTest, ServesFromWatchedDirectoryAndHotReloads) {
  TempDir dir;
  dir.Write("demo.grl", kProgramText);
  dir.Write("demo.csv", kCsv);

  ProgramRegistry registry;
  ValidationEngine engine(&registry, EngineOptions{});
  ServerOptions options;
  options.port = 0;
  options.watch_dir = dir.path.string();
  options.reload_interval_ms = 50;
  Server server(&registry, &engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
  EXPECT_EQ(response->program_version, 1u);

  // Touch the program: the watcher republishes within a few intervals.
  std::string updated = kProgramText;
  updated += "# rev 2\n";
  dir.Write("demo.grl", updated);
  uint64_t version = 1;
  for (int i = 0; i < 100 && version < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto again = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->code, StatusCode::kOk);
    version = again->program_version;
  }
  EXPECT_EQ(version, 2u);
  server.Drain();
}

}  // namespace
}  // namespace serve
}  // namespace guardrail
