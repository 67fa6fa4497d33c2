// serve_highcard: a live serve::Server on localhost guarding a program keyed
// on a high-cardinality dictionary.
//
// The program has one statement, GIVEN key ON val, with one branch per key
// label (RunConfig::keys of them, 12288 by default). Each round
// hot-republishes it kRepublishes times, then two client connections send
// 512-row CSV and JSON requests under ignore and rectify in a closed loop:
// each client waits for its reply before sending again, as `guardrail
// validate` callers do. Two costs that are nearly absent from the other
// workloads dominate here: each request's copy of the snapshot schema
// (dictionaries included) and the analyzer's pairwise branch checks on
// every publish.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checker.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/batch_eval.h"
#include "core/serialization.h"
#include "oracle.h"
#include "request_path.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = guardrail::core;
namespace serve = guardrail::serve;
using guardrail::Rng;
using guardrail::StopWatch;

constexpr int kRowsPerRequest = 512;
constexpr int kClients = 2;
constexpr int kPoolRequests = 32;
constexpr int kRequestsPerClient = 96;
constexpr int kRepublishes = 3;
constexpr int kSetupReps = 3;
constexpr char kDataset[] = "highcard";

struct PoolRequest {
  serve::ValidateRequest request;
  std::vector<serve::RowResult> expected;
};

/// The schema and one-branch-per-key program the generator implies.
struct HighcardProgram {
  guardrail::Schema schema;
  std::string text;
};

HighcardProgram BuildProgram(const HighcardSpec& spec) {
  guardrail::Attribute key("key");
  for (int32_t k = 0; k < spec.keys; ++k) key.GetOrInsert(HighcardKeyLabel(k));
  guardrail::Attribute val("val");
  for (int32_t v = 0; v < spec.values; ++v) {
    val.GetOrInsert(HighcardValueLabel(v));
  }
  guardrail::Attribute note("note");
  for (int32_t n = 0; n < spec.notes; ++n) {
    note.GetOrInsert(HighcardNoteLabel(n));
  }
  HighcardProgram out;
  out.schema = guardrail::Schema({key, val, note});
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  for (int32_t k = 0; k < spec.keys; ++k) {
    core::Branch branch;
    branch.condition.equalities = {{0, k}};
    branch.target = 1;
    branch.assignment = HighcardExpectedValue(spec, k);
    // Equal supports: a rectify repair never prefers a sibling branch.
    branch.support = 100;
    branch.tolerated_values = {branch.assignment};
    stmt.branches.push_back(std::move(branch));
  }
  core::Program program;
  program.statements = {std::move(stmt)};
  out.text = core::SerializeProgram(program, out.schema, "serve_highcard");
  return out;
}

/// Seeded request pool: 94% clean rows, 3% unseen values, 2% wrong valid
/// values, 1% keys outside the dictionary.
std::vector<PoolRequest> MakePool(const HighcardSpec& spec, uint64_t seed) {
  Rng rng(seed ^ 0x5E11E5ULL);
  std::vector<PoolRequest> pool;
  for (int i = 0; i < kPoolRequests; ++i) {
    PoolRequest entry;
    entry.request.dataset = kDataset;
    entry.request.format =
        i % 4 == 3 ? serve::RowFormat::kJson : serve::RowFormat::kCsv;
    entry.request.scheme = (i + i / 4) % 2 == 0 ? core::ErrorPolicy::kIgnore
                                            : core::ErrorPolicy::kRectify;
    std::string& payload = entry.request.payload;
    payload = entry.request.format == serve::RowFormat::kCsv
                  ? "key,val,note\n"
                  : "[";
    for (int r = 0; r < kRowsPerRequest; ++r) {
      const int32_t k = static_cast<int32_t>(rng.NextUint64(spec.keys));
      std::string key = HighcardKeyLabel(k);
      std::string val = HighcardValueLabel(HighcardExpectedValue(spec, k));
      const double roll = rng.NextDouble();
      if (roll < 0.03) {
        val = "bad" + std::to_string(rng.NextUint64(1000));
      } else if (roll < 0.05) {
        val = HighcardValueLabel(
            static_cast<int32_t>(rng.NextUint64(spec.values)));
      } else if (roll < 0.06) {
        key = "unk" + std::to_string(rng.NextUint64(1000));
      }
      const std::string note =
          HighcardNoteLabel(static_cast<int32_t>(rng.NextUint64(spec.notes)));
      if (entry.request.format == serve::RowFormat::kCsv) {
        payload += key + "," + val + "," + note + "\n";
      } else {
        if (r > 0) payload += ",";
        payload += "{\"key\":\"" + key + "\",\"val\":\"" + val +
                   "\",\"note\":\"" + note + "\"}";
      }
      entry.expected.push_back(
          HighcardExpectedResult(spec, {key, val, note}, entry.request.scheme));
    }
    if (entry.request.format == serve::RowFormat::kJson) payload += "]";
    pool.push_back(std::move(entry));
  }
  return pool;
}

/// Registry, engine, server and client connections, torn down in reverse.
struct ServingStack {
  serve::ProgramRegistry registry;
  std::unique_ptr<serve::ValidationEngine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
};

std::unique_ptr<ServingStack> StartStack(const HighcardProgram& program,
                                         RunLog* log) {
  auto stack = std::make_unique<ServingStack>();
  stack->engine = std::make_unique<serve::ValidationEngine>(
      &stack->registry, serve::EngineOptions());
  stack->server = std::make_unique<serve::Server>(
      &stack->registry, stack->engine.get(), serve::ServerOptions());
  log->Attempt("publish");
  auto version =
      stack->registry.LoadFromText(kDataset, program.text, program.schema);
  if (!version.ok()) {
    log->Fail("publish", version.status().ToString());
    return nullptr;
  }
  guardrail::Status started = stack->server->Start();
  if (!log->Check(started.ok(), "server starts: " + started.ToString())) {
    return nullptr;
  }
  for (int c = 0; c < kClients + 1; ++c) {
    auto client = serve::Client::Connect("127.0.0.1", stack->server->port());
    if (!log->Check(client.ok(), "client connects")) return nullptr;
    stack->clients.push_back(std::move(*client));
  }
  return stack;
}

/// One client's closed-loop share of a validate phase.
struct ClientResult {
  std::vector<double> latency_ms;
  int64_t rows = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  std::string first_error;
};

void RunClient(serve::Client* client, const std::vector<PoolRequest>* pool,
               int index, Tracer* tracer, ClientResult* out) {
  const int offset = index * (kPoolRequests / kClients);
  for (int j = 0; j < kRequestsPerClient; ++j) {
    const PoolRequest& entry =
        (*pool)[static_cast<size_t>((offset + j) % kPoolRequests)];
    StopWatch watch;
    auto response = [&] {
      ScopedSpan span(tracer, "client.request",
                      static_cast<uint64_t>(index * kRequestsPerClient + j + 1));
      return client->Validate(entry.request);
    }();
    out->latency_ms.push_back(watch.ElapsedMillis());
    if (!response.ok() || response->code != guardrail::StatusCode::kOk) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = response.ok() ? response->error
                                         : response.status().ToString();
      }
      continue;
    }
    out->rows += static_cast<int64_t>(response->rows.size());
    if (response->rows != entry.expected) ++out->mismatched;
  }
}

/// Traced run only: each pool request's path through the layers, plus the
/// same request over the socket for the wire's share.
void TraceRequests(ServingStack* stack, const std::vector<PoolRequest>& pool,
                   Tracer* tracer, RunLog* log) {
  auto snapshot = stack->registry.Get(kDataset);
  uint64_t id = 0;
  for (const PoolRequest& entry : pool) {
    ++id;
    serve::ValidateResponse response = TraceRequestPath(
        *snapshot, stack->engine.get(), entry.request, id, tracer, log);
    log->Check(response.code == guardrail::StatusCode::kOk &&
                   response.rows == entry.expected,
               "in-process Handle matches the generator");
    auto remote = [&] {
      ScopedSpan span(tracer, "serve.roundtrip", id);
      return stack->clients.back().Validate(entry.request);
    }();
    log->Check(remote.ok() && remote->rows == entry.expected,
               "round trip matches the generator");
  }
}

void TracePublishSplit(const HighcardProgram& program, Tracer* tracer,
                       RunLog* log) {
  guardrail::Schema schema = program.schema;
  auto parsed = [&] {
    ScopedSpan span(tracer, "core.deserialize");
    return core::DeserializeProgram(program.text, &schema);
  }();
  if (!log->Check(parsed.ok(), "program deserializes")) return;
  {
    ScopedSpan span(tracer, "analysis.analyze");
    (void)guardrail::analysis::Analyzer().Analyze(*parsed, schema);
  }
  {
    ScopedSpan span(tracer, "core.compile");
    (void)core::CompiledProgram::Compile(*parsed);
  }
}

}  // namespace

std::vector<Metric> RunServeHighcard(const RunConfig& config, RunLog* log) {
  Tracer tracer(config.trace);
  EndToEnd e2e;
  HighcardSpec spec;
  spec.keys = config.keys;
  spec.seed = config.seed;

  HighcardProgram program;
  std::vector<PoolRequest> pool;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();  // Drains the previous repetition's server.
    StopWatch watch;
    program = BuildProgram(spec);
    pool = MakePool(spec, config.seed);
    stack = StartStack(program, log);
    e2e.setup_seconds.push_back(watch.ElapsedSeconds());
    if (stack == nullptr) return {};
  }

  int rounds = 0;
  StopWatch run_watch;
  for (int round = 0;; ++round) {
    const bool warmup = round == 0;
    if (!warmup && rounds > 0 && run_watch.ElapsedSeconds() >= config.seconds) {
      break;
    }
    if (round == 1) run_watch.Restart();

    double update_seconds = 0.0;
    for (int p = 0; p < kRepublishes; ++p) {
      if (config.trace) TracePublishSplit(program, &tracer, log);
      log->Attempt("publish");
      StopWatch watch;
      auto version = [&] {
        ScopedSpan span(&tracer, "serve.publish");
        return stack->registry.LoadFromText(kDataset, program.text,
                                            program.schema);
      }();
      update_seconds += watch.ElapsedSeconds();
      if (!version.ok()) log->Fail("publish", version.status().ToString());
    }

    std::vector<ClientResult> results(kClients);
    StopWatch validate_watch;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back(RunClient, &stack->clients[static_cast<size_t>(c)],
                             &pool, c, &tracer,
                             &results[static_cast<size_t>(c)]);
      }
      for (std::thread& t : threads) t.join();
    }
    const double validate_seconds = validate_watch.ElapsedSeconds();
    int64_t rows = 0;
    for (const ClientResult& r : results) {
      for (int j = 0; j < kRequestsPerClient; ++j) log->Attempt("validate");
      for (int64_t f = 0; f < r.failed; ++f) log->Fail("validate", r.first_error);
      log->Check(r.mismatched == 0,
                 "served verdicts and repairs match the generator (" +
                     std::to_string(r.mismatched) + " requests differ)");
      rows += r.rows;
    }
    if (config.trace) TraceRequests(stack.get(), pool, &tracer, log);
    if (warmup) continue;
    ++rounds;
    std::vector<double> latencies;
    for (const ClientResult& r : results) {
      latencies.insert(latencies.end(), r.latency_ms.begin(),
                       r.latency_ms.end());
    }
    e2e.AddRound(update_seconds, rows, validate_seconds, std::move(latencies));
  }
  stack.reset();

  if (!config.trace) return e2e.Metrics();
  const double all_rounds = static_cast<double>(rounds + 1);
  auto per_round = [&](const char* span) {
    return tracer.TotalSelfSeconds(span) / all_rounds;
  };
  auto median_us = [&](const char* span) {
    return Median(tracer.SelfMicros(span));
  };
  std::vector<Metric> out = {
      {"analysis.analyze_s", per_round("analysis.analyze"), "s"},
      {"serve.publish_s", per_round("serve.publish"), "s"},
      {"core.deserialize_s", per_round("core.deserialize"), "s"},
      {"core.compile_s", per_round("core.compile"), "s"},
      {"common.csv_parse_us", median_us("common.csv_parse"), "us"},
      {"serve.decode_rows_us", median_us("serve.decode_rows"), "us"},
      {"table.schema_copy_us", median_us("table.schema_copy"), "us"},
      {"core.request_kernel_us", median_us("core.request_kernel"), "us"},
      {"serve.handle_us", median_us("serve.handle"), "us"},
      {"serve.encode_response_us", median_us("serve.encode_response"), "us"},
      {"serve.wire_us",
       median_us("serve.roundtrip") - median_us("serve.handle"), "us"},
  };
  AppendTraceOverhead(tracer, &out);
  return out;
}

}  // namespace perfbench
